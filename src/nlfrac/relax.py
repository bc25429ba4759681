"""Closed-form machinery for the linear relaxation equation.

The equation D y = -lambda y with an nth-level derivative of order
alpha and type gamma has the unique solution

    y(x) = sum_k y_k x^sigma_k E_{alpha, sigma_k+1}(-lambda x^alpha),

one term per kernel direction of the terminal (fully reduced) operator,
with y_k the initial values read off at the origin.  This module builds
that representation, evaluates it through the Mittag-Leffler engine,
derives its large-x power-law form, decides complete monotonicity by
the parameter criterion (partial sums s_k >= k-1 plus nonnegative
initial data), checks monotonicity numerically by finite differences,
and cross-checks the Laplace transform of the evaluated solution
against the rational closed form.

Reduced specs are handled by reducing first: initial data must match
the terminal kernel dimension, and the familiar one-level cases drop
out as the one-term specializations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterOutOfRangeError
from .gridops import GradedGrid, SampledFunction, default_grading_exponent, laplace_numeric
from .mlf import (
    CMWeightedParams,
    eval_weighted_terms,
    reciprocal_gamma,
)
from .powerlaw import PowerSum
from .specparams import TOL, DerivativeSpec, reduce_spec, require_valid, validate

__all__ = [
    "RelaxationProblem",
    "RelaxationSolution",
    "AsymptoticForm",
    "CMReport",
    "LaplaceCheck",
    "solve_homogeneous",
    "solve_relaxation",
    "evaluate_solution",
    "evaluate_solution_many",
    "asymptotic_form",
    "cm_verdict",
    "cm_numeric_check",
    "laplace_verify",
]


def _terminal_spec(spec: DerivativeSpec) -> DerivativeSpec:
    require_valid(spec)
    return reduce_spec(spec)


@dataclass(frozen=True)
class RelaxationProblem:
    """Relaxation equation data: operator spec, rate, initial values.

    Initial values attach to the kernel directions of the terminal
    operator, so their count must equal the reduced level; a reducible
    spec with a full-length vector is rejected rather than silently
    dropping entries.
    """

    spec: DerivativeSpec
    lam: float
    y: tuple[float, ...]
    terminal: DerivativeSpec = field(init=False, compare=False)

    def __post_init__(self):
        terminal = _terminal_spec(self.spec)
        lam = float(self.lam)
        if not (math.isfinite(lam) and lam > 0.0):
            raise ParameterOutOfRangeError(f"relaxation rate must be > 0, got {self.lam!r}")
        y = tuple(float(v) for v in self.y)
        if any(not math.isfinite(v) for v in y):
            raise ParameterOutOfRangeError("initial values must be finite")
        if len(y) != terminal.n:
            raise ParameterOutOfRangeError(
                f"expected {terminal.n} initial values for the terminal level-"
                f"{terminal.n} operator, got {len(y)}"
            )
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "terminal", terminal)


@dataclass(frozen=True)
class RelaxationSolution:
    """Term list (weight, evaluation parameters) of the closed form."""

    alpha: float
    lam: float
    terms: tuple[tuple[float, CMWeightedParams], ...]

    @property
    def sigmas(self) -> tuple[float, ...]:
        return tuple(p.beta - 1.0 for _, p in self.terms)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self.terms)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "lambda": self.lam,
            "terms": [
                {"y": w, "sigma": p.beta - 1.0, "beta": p.beta}
                for w, p in self.terms
            ],
        }

    def __call__(self, x):
        if np.ndim(x) == 0:
            return evaluate_solution(self, float(x))
        return evaluate_solution_many(self, np.asarray(x, dtype=float))


@dataclass(frozen=True)
class AsymptoticForm:
    """Leading power-law form sum d_k x^e_k of the solution at large x."""

    terms: tuple[tuple[float, float], ...]

    @property
    def leading(self) -> tuple[float, float] | None:
        """(d, e) of the slowest-decaying term with nonzero weight."""
        live = [(d, e) for d, e in self.terms if d != 0.0]
        if not live:
            return None
        return max(live, key=lambda t: t[1])


@dataclass(frozen=True)
class CMReport:
    """Outcome of a complete-monotonicity assessment.

    admissible_by_theorem is None for purely numeric reports; the
    criterion is one-directional, so False never claims a proof of
    non-monotonicity, only that the guarantee does not apply.
    """

    admissible_by_theorem: bool | None
    numeric_orders_checked: int
    violations: tuple[tuple[int, float, float], ...]
    notes: tuple[str, ...] = ()


def solve_homogeneous(spec: DerivativeSpec, y) -> PowerSum:
    """Kernel combination sum y_k x^sigma_k / Gamma(sigma_k + 1), exactly."""
    terminal = _terminal_spec(spec)
    y = tuple(float(v) for v in y)
    if len(y) != terminal.n:
        raise ParameterOutOfRangeError(
            f"expected {terminal.n} initial values, got {len(y)} "
            "(reduced specs keep only the surviving kernel directions)"
        )
    return PowerSum(
        tuple(
            (v * reciprocal_gamma(s + 1.0), s)
            for v, s in zip(y, terminal.sigma)
            if v != 0.0
        )
    )


def solve_relaxation(p: RelaxationProblem) -> RelaxationSolution:
    terms = []
    for v, s in zip(p.y, p.terminal.sigma):
        params = CMWeightedParams(p.terminal.alpha, s + 1.0, s + 1.0, p.lam)
        terms.append((v, params))
    return RelaxationSolution(p.terminal.alpha, p.lam, tuple(terms))


def evaluate_solution(sol: RelaxationSolution, x: float) -> float:
    """Pointwise value; the x = 0 limit follows each term's own rules."""
    x = float(x)
    if x < 0.0:
        raise ParameterOutOfRangeError(f"solutions live on x >= 0, got {x:g}")
    return float(evaluate_solution_many(sol, np.array([x]))[0])


def evaluate_solution_many(sol: RelaxationSolution, xs: np.ndarray) -> np.ndarray:
    """The solution over an array of x >= 0; its terms share one Mittag-Leffler pass."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    live = [(w, p) for w, p in sol.terms if w != 0.0]
    if live:
        for (w, _), term in zip(live, eval_weighted_terms([p for _, p in live], xs)):
            out += w * term
    return out


def asymptotic_form(p: RelaxationProblem) -> AsymptoticForm:
    """Large-x form d_k = y_k / (lambda Gamma(s_k - k + 1)), e_k = s_k - k.

    Derived by substituting the one-term Mittag-Leffler tail
    E_{a,b}(-z) ~ 1/(z Gamma(b-a)) into each solution term:
    y_k x^sigma_k / (lambda x^alpha Gamma(sigma_k + 1 - alpha)) with
    sigma_k - alpha = s_k - k.  Not stated in closed form by the source
    material, so it is cross-checked numerically in the test suite
    before anything relies on it.  Directions whose gamma argument hits
    a pole (the classical derivative vertex) drop out through the
    reciprocal gamma, which matches their faster-than-power decay.
    """
    terminal = p.terminal
    terms = []
    for v, s_k, k in zip(p.y, terminal.s, range(1, terminal.n + 1)):
        d = v * reciprocal_gamma(s_k - k + 1.0) / p.lam
        terms.append((d, s_k - k))
    return AsymptoticForm(tuple(terms))


def cm_verdict(p: RelaxationProblem) -> CMReport:
    """Parameter criterion: valid spec, s_k >= k - 1 for every k, and
    nonnegative initial data.  One-directional; see CMReport.
    """
    notes = []
    rep = validate(p.spec)
    if not rep.cm_admissible:
        for k, s_k in enumerate(p.spec.s, start=1):
            if s_k < k - 1.0 - TOL:
                notes.append(f"partial sum s_{k} = {s_k:g} < {k - 1}")
    for i, v in enumerate(p.y, start=1):
        if v < 0.0:
            notes.append(f"initial value y_{i} = {v:g} < 0")
    admissible = rep.cm_admissible and not notes
    return CMReport(admissible, 0, (), tuple(notes))


def cm_numeric_check(
    f,
    x_lo: float,
    x_hi: float,
    max_order: int = 6,
    tau: float = 1e-7,
) -> CMReport:
    """Finite-difference monotonicity scan.

    On a 400-point log grid, forms the forward differences of f with
    step x/64 and requires the alternating-sign pattern of complete
    monotonicity, (-1)^m Delta^m f >= -tau * |f|, for m = 0..max_order.
    The difference characterization makes no smoothness demands beyond
    evaluability.  Violations record (order, location, signed value).
    """
    if not (0 < x_lo < x_hi):
        raise ParameterOutOfRangeError("need 0 < x_lo < x_hi")
    if not (isinstance(max_order, int) and 0 <= max_order <= 8):
        raise ParameterOutOfRangeError("difference order capped at 8")
    xs = np.exp(np.linspace(math.log(x_lo), math.log(x_hi), 400))
    h = xs / 64.0
    pts = xs[:, None] + h[:, None] * np.arange(max_order + 1)[None, :]
    try:
        flat = np.asarray(f(pts.ravel()), dtype=float)
        if flat.shape != (pts.size,):
            raise TypeError
    except (TypeError, ValueError):
        flat = np.array([float(f(v)) for v in pts.ravel()])
    vals = flat.reshape(pts.shape)
    scale = np.abs(vals[:, 0])
    violations = []
    for m in range(max_order + 1):
        coeff = np.array([(-1.0) ** j * math.comb(m, j) for j in range(m + 1)])
        q = vals[:, : m + 1] @ coeff
        bad = q < -tau * scale
        for i in np.nonzero(bad)[0]:
            violations.append((m, float(xs[i]), float(q[i])))
    return CMReport(None, max_order, tuple(violations))


@dataclass(frozen=True)
class LaplaceCheck:
    """Per-point comparison of numeric vs closed-form transform."""

    entries: tuple[tuple[float, float, float, float], ...]  # (s, closed, numeric, rel dev)

    @property
    def max_rel_dev(self) -> float:
        return max((e[3] for e in self.entries), default=0.0)


def closed_form_laplace(p: RelaxationProblem, s: float) -> float:
    """Transform sum_k y_k s^(k - s_k - 1) / (s^alpha + lambda)."""
    terminal = p.terminal
    num = math.fsum(
        v * s ** (k - s_k - 1.0)
        for v, s_k, k in zip(p.y, terminal.s, range(1, terminal.n + 1))
    )
    return num / (s**terminal.alpha + p.lam)


def laplace_verify(
    p: RelaxationProblem,
    s_values,
    x_max: float = 40.0,
    m: int = 4096,
) -> LaplaceCheck:
    """Sample the evaluated solution, transform it numerically with its
    asymptotic tail attached, and compare against the closed form.
    """
    sol = solve_relaxation(p)
    terminal = p.terminal
    grid = GradedGrid(x_max, m, default_grading_exponent(terminal))
    vals = evaluate_solution_many(sol, grid.nodes)
    sigma_min = min(terminal.sigma)
    f = SampledFunction(grid, vals, sigma_min if sigma_min <= 0.0 else None)
    tail = asymptotic_form(p)
    entries = []
    for s in s_values:
        s = float(s)
        closed = closed_form_laplace(p, s)
        numeric = laplace_numeric(f, tail, s)
        denom = max(abs(closed), 1e-300)
        entries.append((s, closed, numeric, abs(numeric - closed) / denom))
    return LaplaceCheck(tuple(entries))
