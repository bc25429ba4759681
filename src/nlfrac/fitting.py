"""Least-squares recovery of relaxation parameters from decay data.

The model is the closed-form relaxation solution

    y(x) = sum_k y_k phi_k(x),  phi_k(x) = x^sigma_k E_{alpha,sigma_k+1}(-lambda x^alpha),

with the parameter vector laid out as (alpha, gamma_1..gamma_n, lambda,
y_1..y_n) and a boolean mask choosing which entries move.  The model is
linear in the initial values y_k, so the fit is a variable projection
(Golub & Pereyra, SIAM J. Numer. Anal. 10 (1973) 413): each trial of
the nonlinear entries (alpha, gamma_k, lambda) evaluates the basis
columns phi_k once and solves the free y_k by weighted linear least
squares inside their box bounds.  A Levenberg-Marquardt iteration
(damped Gauss-Newton) moves the free nonlinear entries only, on the
weighted residual vector that solve leaves, with its Jacobian from
forward differences of that projected residual.  Steps are clipped to
the box.  A trial outside the operator's validity region, which is not
a box, is infeasible: it is rejected like a trial that does not lower
the residual sum of squares, and the damping goes up until the step
stays inside.

The basis columns go through the same Mittag-Leffler path as the
forward solver, which is what makes noiseless round trips land at
machine-level residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NlfracError, ParameterOutOfRangeError
from .mlf import eval_weighted_terms
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
    return eval_weighted_terms([q for _, q in sol.terms], xs).T


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
    """Trial of the free nonlinear entries -> (weighted residual, full vector).

    The residual is None when the trial is infeasible.  Entries not in
    nl_idx keep their start values, except the free y_k, which the
    weighted linear least-squares solve sets.  A free y_k whose box is a
    single value keeps the start value the box pinned it to.
    """
    n = p.n
    lo, hi = np.array(p.bounds[n + 2 :]).T
    free_y = np.array(p.free_mask[n + 2 :]) & (lo < hi)
    lo, hi = lo[free_y], hi[free_y]

    def project(nl_vec: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        vec = start.copy()
        vec[nl_idx] = nl_vec
        prob = _feasible(vec, p)
        if prob is None:
            return None, vec
        basis = _basis(prob, p.x) * p.weights[:, None]
        y = vec[n + 2 :]
        a = basis[:, free_y]
        b = p.y * p.weights - basis[:, ~free_y] @ y[~free_y]
        coef = np.linalg.lstsq(a, b, rcond=None)[0]
        if np.any(coef < lo) or np.any(coef > hi):
            # only here: scipy.optimize is slow to import
            from scipy.optimize import lsq_linear

            coef = lsq_linear(a, b, bounds=(lo, hi), method="bvls").x
        y[free_y] = coef
        return a @ coef - b, vec

    return project


# forward-difference step, relative to max(|entry|, 1)
_DIFF_STEP = math.sqrt(np.finfo(float).eps)
# step rule: a trial step shorter than this relative to the point ends the fit
_XTOL = 1e-10
# RSS rule: an accepted step lowering the RSS by less than this share ends it
_FTOL = 1e-12


def _jacobian(project, x, r, lo, hi) -> np.ndarray:
    """Forward differences of the projected residual, one trial per entry.

    Each difference steps towards the inside of the box and flips when
    its trial is infeasible; an entry infeasible both ways gets a zero
    column, so the step leaves it where it is.
    """
    jac = np.zeros((r.size, x.size))
    for j in range(x.size):
        h = _DIFF_STEP * max(abs(x[j]), 1.0)
        if x[j] + h > hi[j]:
            h = -h
        for step in (h, -h):
            trial = x.copy()
            trial[j] += step
            r_step = project(trial)[0]
            if r_step is not None:
                jac[:, j] = (r_step - r) / step
                break
    return jac


def _levenberg_marquardt(project, x, r, vec, lo, hi, max_iter):
    """Damped Gauss-Newton on project's residual within the box [lo, hi].

    The damping is Marquardt's, scaled by the Jacobian's column norms.
    A trial that is infeasible or does not lower the RSS is rejected and
    the damping rises tenfold; an accepted one lowers it tenfold.
    Returns (vec, residual, iterations, converged), where iterations
    counts Jacobian evaluations.
    """
    rss = float(r @ r)
    damping = 1e-3
    for it in range(1, max_iter + 1):
        jac = _jacobian(project, x, r, lo, hi)
        scale = np.diag(np.linalg.norm(jac, axis=0))
        rhs = np.concatenate([-r, np.zeros(x.size)])
        while True:
            lhs = np.vstack([jac, math.sqrt(damping) * scale])
            trial = np.clip(x + np.linalg.lstsq(lhs, rhs, rcond=None)[0], lo, hi)
            if np.linalg.norm(trial - x) <= _XTOL * (_XTOL + np.linalg.norm(x)):
                return vec, r, it, True
            r_trial, vec_trial = project(trial)
            if r_trial is not None and (rss_trial := float(r_trial @ r_trial)) < rss:
                break
            damping *= 10.0
        rss_prev = rss
        x, r, vec, rss = trial, r_trial, vec_trial, rss_trial
        damping /= 10.0
        if rss_prev - rss <= _FTOL * rss_prev:
            return vec, r, it, True
    return vec, r, max_iter, False


def fit_relaxation(p: FitProblem, seed: int = 0, max_iter: int = 2000) -> FitResult:
    """Variable projection: Levenberg-Marquardt over the free nonlinear entries.

    The iteration moves only the free entries among alpha, gamma_k and
    lambda, inside their box bounds and the operator's validity region.
    Each trial solves the free y_k by weighted linear least squares
    within their box bounds, so no y_k is an iteration coordinate and
    the guesses of the free y_k are never used.

    ``iterations`` counts Levenberg-Marquardt iterations, one Jacobian
    evaluation each; it is 0 when no nonlinear entry is free, and then
    the linear solve alone is the fit.  ``converged`` is True when a
    stopping rule was met within ``max_iter`` iterations: the trial step
    fell below 1e-10 relative to the point, or an accepted step lowered
    the residual sum of squares by less than 1e-12 of it.  The seed only
    perturbs the starting point (5 percent, one draw per free nonlinear
    entry), so repeated calls with the same seed and data are
    bit-identical.  An infeasible initial point is rejected up front.
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
    r, vec = project(start[nl_idx])
    iterations, converged = 0, True
    if nl_idx:
        lo, hi = np.array([p.bounds[i] for i in nl_idx]).T
        vec, r, iterations, converged = _levenberg_marquardt(
            project, start[nl_idx], r, vec, lo, hi, max_iter
        )
    return FitResult(
        parameters=dict(zip(names, map(float, vec))),
        rss=float(r @ r),
        iterations=iterations,
        converged=converged,
        cm=cm_verdict(_problem(vec, n)),
    )


def fit_report_tail(r: FitResult, n: int) -> AsymptoticForm:
    """Large-x power form implied by fitted parameters."""
    names = parameter_names(n)
    vec = [r.parameters[k] for k in names]
    return asymptotic_form(_problem(np.asarray(vec, dtype=float), n))
