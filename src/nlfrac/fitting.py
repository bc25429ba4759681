"""Least-squares recovery of relaxation parameters from decay data.

The model is the closed-form relaxation solution

    y(x) = sum_k y_k phi_k(x),  phi_k(x) = x^sigma_k E_{alpha,sigma_k+1}(-lambda x^alpha),

with the parameter vector laid out as (alpha, gamma_1..gamma_n, lambda,
y_1..y_n) and a boolean mask choosing which entries move.  The model is
linear in the initial values y_k, so the fit is a variable projection
(Golub & Pereyra, SIAM J. Numer. Anal. 10 (1973) 413): each trial of
the nonlinear entries (alpha, gamma_k, lambda) evaluates the basis
columns phi_k once and solves the free y_k by weighted linear least
squares inside their box bounds.  A derivative-free simplex moves the
free nonlinear entries only and scores each trial by the residual sum
of squares that solve leaves.  Infeasible trials, anything outside its
box bounds or the operator's validity region, score +inf rather than
being clamped, so the simplex walks around the constraint boundary
instead of sliding along it.

The basis columns go through the same Mittag-Leffler path as the
forward solver, which is what makes noiseless round trips land at
machine-level residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import lsq_linear, minimize

from .errors import NlfracError, ParameterOutOfRangeError
from .mlf import eval_weighted_many
from .relax import (
    AsymptoticForm,
    CMReport,
    RelaxationProblem,
    asymptotic_form,
    cm_verdict,
    solve_relaxation,
)
# evaluate_solution_many, reduce_spec and validate are not called here,
# but perfbench/tracing.py wraps them under this module's name
from .relax import evaluate_solution_many  # noqa: F401
from .specparams import DerivativeSpec, reduce_spec, validate  # noqa: F401

__all__ = [
    "FitProblem",
    "FitResult",
    "parameter_names",
    "fit_relaxation",
    "fit_report_tail",
    "model_values",
]


def parameter_names(n: int) -> tuple[str, ...]:
    """Canonical parameter order for level-n fits."""
    if not (isinstance(n, int) and n >= 1):
        raise ParameterOutOfRangeError("level must be a positive integer")
    return (
        ("alpha",)
        + tuple(f"gamma_{k}" for k in range(1, n + 1))
        + ("lambda",)
        + tuple(f"y_{k}" for k in range(1, n + 1))
    )


def _unpack(vec, n):
    alpha = vec[0]
    gamma = tuple(vec[1 : n + 1])
    lam = vec[n + 1]
    y = tuple(vec[n + 2 :])
    return alpha, gamma, lam, y


def _problem(vec, n: int) -> RelaxationProblem:
    alpha, gamma, lam, y = _unpack(vec, n)
    return RelaxationProblem(DerivativeSpec(n, alpha, gamma), lam, y)


def _basis(prob: RelaxationProblem, xs: np.ndarray) -> np.ndarray:
    """Columns phi_k(xs): the terms of the solution with unit weights."""
    sol = solve_relaxation(prob)
    return np.column_stack([eval_weighted_many(q, xs) for _, q in sol.terms])


def model_values(vec, n: int, xs: np.ndarray) -> np.ndarray:
    """Closed-form model at the data abscissas for a full parameter vector."""
    prob = _problem(np.asarray(vec, dtype=float), n)
    return _basis(prob, np.asarray(xs, dtype=float)) @ prob.y


@dataclass(frozen=True)
class FitProblem:
    """Data plus search configuration.

    Rows may arrive in any order; they are sorted on x here, so row
    order can never influence the outcome.  Bounds are (lo, hi) pairs
    over the full vector and must already confine lambda to positive
    values and alpha to (0, 1].
    """

    x: np.ndarray
    y: np.ndarray
    n: int
    free_mask: tuple[bool, ...]
    bounds: tuple[tuple[float, float], ...]
    initial_guess: tuple[float, ...]
    downweight_origin: bool = False
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = parameter_names(self.n)
        p = len(names)
        x = np.asarray(self.x, dtype=float).ravel()
        y = np.asarray(self.y, dtype=float).ravel()
        if x.size != y.size or x.size < 2:
            raise ParameterOutOfRangeError("need matching x and y with at least 2 rows")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ParameterOutOfRangeError("data must be finite")
        order = np.argsort(x)
        x, y = x[order].copy(), y[order].copy()
        if x[0] <= 0.0:
            raise ParameterOutOfRangeError("data abscissas must be positive")
        if np.any(np.diff(x) <= 0.0):
            raise ParameterOutOfRangeError("data abscissas must be distinct")
        mask = tuple(bool(b) for b in self.free_mask)
        if len(mask) != p:
            raise ParameterOutOfRangeError(f"free_mask needs {p} entries ({names})")
        if not any(mask):
            raise ParameterOutOfRangeError("at least one parameter must be free")
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(bounds) != p:
            raise ParameterOutOfRangeError(f"bounds needs {p} pairs")
        for (lo, hi), name in zip(bounds, names):
            if not (lo <= hi):
                raise ParameterOutOfRangeError(f"empty bound for {name}")
        lo, hi = bounds[0]
        if not (0.0 < lo and hi <= 1.0 + 1e-12):
            raise ParameterOutOfRangeError("alpha bounds must sit inside (0, 1]")
        lo, hi = bounds[self.n + 1]
        if lo <= 0.0:
            raise ParameterOutOfRangeError("lambda lower bound must be positive")
        guess = tuple(float(v) for v in self.initial_guess)
        if len(guess) != p:
            raise ParameterOutOfRangeError(f"initial_guess needs {p} values")
        x.flags.writeable = False
        y.flags.writeable = False
        w = (x / x[-1]) ** 0.5 if self.downweight_origin else np.ones_like(x)
        w.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "free_mask", mask)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "initial_guess", guess)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class FitResult:
    parameters: dict[str, float]
    rss: float
    iterations: int
    converged: bool
    cm: CMReport

    def to_dict(self) -> dict:
        return {
            "parameters": dict(self.parameters),
            "rss": self.rss,
            "iterations": self.iterations,
            "converged": self.converged,
            "cm_admissible": self.cm.admissible_by_theorem,
            "cm_notes": list(self.cm.notes),
        }


def _feasible(vec: np.ndarray, p: FitProblem) -> RelaxationProblem | None:
    """The trial's problem, or None when the trial is infeasible.

    Infeasible means outside a box bound or outside what
    RelaxationProblem accepts: an invalid operator, or one that reduces
    to a lower level and so would orphan initial values.
    """
    for v, (lo, hi) in zip(vec, p.bounds):
        if not (lo <= v <= hi):
            return None
    try:
        return _problem(vec, p.n)
    except NlfracError:
        return None


def _projection(p: FitProblem, start: np.ndarray, nl_idx):
    """Trial of the free nonlinear entries -> (rss, full parameter vector).

    Entries not in nl_idx keep their start values, except the free y_k,
    which the weighted linear least-squares solve sets.  A free y_k whose
    box is a single value keeps the start value the box pinned it to.
    """
    n = p.n
    lo, hi = np.array(p.bounds[n + 2 :]).T
    free_y = np.array(p.free_mask[n + 2 :]) & (lo < hi)
    lo, hi = lo[free_y], hi[free_y]

    def project(nl_vec: np.ndarray) -> tuple[float, np.ndarray]:
        vec = start.copy()
        vec[nl_idx] = nl_vec
        prob = _feasible(vec, p)
        if prob is None:
            return math.inf, vec
        basis = _basis(prob, p.x) * p.weights[:, None]
        y = vec[n + 2 :]
        a = basis[:, free_y]
        b = p.y * p.weights - basis[:, ~free_y] @ y[~free_y]
        coef = np.linalg.lstsq(a, b, rcond=None)[0]
        if np.any(coef < lo) or np.any(coef > hi):
            coef = lsq_linear(a, b, bounds=(lo, hi), method="bvls").x
        y[free_y] = coef
        resid = a @ coef - b
        return float(resid @ resid), vec

    return project


def fit_relaxation(p: FitProblem, seed: int = 0, max_iter: int = 2000) -> FitResult:
    """Variable projection: simplex over the free nonlinear entries.

    The simplex moves only the free entries among alpha, gamma_k and
    lambda.  Each trial solves the free y_k by weighted linear least
    squares within their box bounds, so no y_k is a simplex coordinate
    and the guesses of the free y_k are never used.  ``iterations``
    counts simplex iterations; it is 0 when no nonlinear entry is free,
    and then the linear solve alone is the fit.  The seed only perturbs
    the starting point (5 percent, one draw per free nonlinear entry),
    so repeated calls with the same seed and data are bit-identical.  An
    initial point scoring +inf is rejected up front: the simplex would
    have no gradient information at all to escape it.
    """
    n = p.n
    names = parameter_names(n)
    free_idx = [i for i, b in enumerate(p.free_mask) if b]
    nl_idx = [i for i in free_idx if i < n + 2]
    start = np.array(p.initial_guess, dtype=float)
    rng = np.random.default_rng(seed)
    start[nl_idx] *= 1.0 + 0.05 * rng.standard_normal(len(nl_idx))
    # pull the start of every free entry back inside its box
    for i in free_idx:
        lo, hi = p.bounds[i]
        start[i] = min(max(start[i], lo), hi)
    if _feasible(start, p) is None:
        raise ParameterOutOfRangeError(
            "initial guess is infeasible under the bounds and validity "
            "constraints; adjust the guess or the bounds"
        )
    project = _projection(p, start, nl_idx)
    nl_best, iterations, converged = start[nl_idx], 0, True
    if nl_idx:
        res = minimize(
            lambda v: project(v)[0],
            nl_best,
            method="Nelder-Mead",
            options={
                "maxiter": max_iter,
                "xatol": 1e-10,
                "fatol": 1e-24,
                "adaptive": True,
            },
        )
        nl_best, iterations, converged = res.x, int(res.nit), bool(res.success)
    rss, vec = project(nl_best)
    return FitResult(
        parameters=dict(zip(names, map(float, vec))),
        rss=rss,
        iterations=iterations,
        converged=converged,
        cm=cm_verdict(_problem(vec, n)),
    )


def fit_report_tail(r: FitResult, n: int) -> AsymptoticForm:
    """Large-x power form implied by fitted parameters."""
    names = parameter_names(n)
    vec = [r.parameters[k] for k in names]
    return asymptotic_form(_problem(np.asarray(vec, dtype=float), n))
