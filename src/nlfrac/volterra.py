"""Picard iteration for the integral form of the relaxation equation.

An nth-level derivative equation D y = F(x, y) with initial data y_k
is equivalent to the weakly singular Volterra equation

    y(x) = sum_k y_k x^sigma_k / Gamma(sigma_k + 1) + (I^alpha F(., y))(x).

The homogeneous part is carried analytically as a power sum the whole
way through; only the forcing integral is discretized, through the
quadrature matrix W of gridops.quadrature_matrix, which keeps the last
one it built, so repeated solves and residual checks on one (order,
grid, exponent) assemble it once.

W is lower triangular apart from W[0, 1], so the discrete equation is
solved by marching forward in blocks of rows, as product-integration
solvers for fractional ODEs do.  A block adds the already solved
history with one matrix-vector product and then iterates on its own
diagonal square only.  Those sweeps act on the block's stretch of x
alone, so they settle far sooner than sweeps of the whole map, which
pass through a transient of size about exp(lambda^(1/alpha) x_max) and
at high rates stall or diverge.  The residual of the solution is
read off the march as well, one diagonal-square product per block;
`residual` applies the whole matrix and is the independent check.

The right-hand side is called vectorized on a block's nodes.  A callable
that raises TypeError or ValueError there, or returns the wrong shape,
is evaluated point by point instead; the vectorized call is retried on
every sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonConvergenceError, ParameterOutOfRangeError
from .gridops import GradedGrid, SampledFunction, quadrature_matrix
from .relax import solve_homogeneous
from .specparams import DerivativeSpec, reduce_spec, require_valid

__all__ = [
    "VolterraProblem",
    "PicardResult",
    "picard_solve",
    "residual",
    "make_rhs",
    "RHS_REGISTRY",
]


@dataclass(frozen=True)
class VolterraProblem:
    """Integral-form problem data.

    rhs(x, y) receives node and value arrays of equal shape and must
    return the forcing samples; scalar-only callables are adapted
    automatically at solve time.
    """

    spec: DerivativeSpec
    rhs: Callable
    y: tuple[float, ...]
    grid: GradedGrid
    tol: float = 1e-10
    max_iter: int = 200
    terminal: DerivativeSpec = field(init=False, compare=False)

    def __post_init__(self):
        require_valid(self.spec)
        terminal = reduce_spec(self.spec)
        y = tuple(float(v) for v in self.y)
        if len(y) != terminal.n:
            raise ParameterOutOfRangeError(
                f"expected {terminal.n} initial values, got {len(y)}"
            )
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ParameterOutOfRangeError(f"tolerance must be > 0, got {self.tol!r}")
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise ParameterOutOfRangeError("max_iter must be a positive integer")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "terminal", terminal)


# rows per marching block of picard_solve.  Smaller blocks pay more
# Python per sweep, larger ones sweep a larger diagonal square: 32
# solves on 2048 nodes, matrices assembled, took 0.19 to 0.24 s at 128
# rows on a 2-core Xeon, about 12 % more at 64 or 256, 45 % more at 512
_BLOCK_ROWS = 128


class PicardResult(NamedTuple):
    solution: SampledFunction
    iterations: int
    residual: float
    converged: bool


def _homogeneous_baseline(p: VolterraProblem):
    hom = solve_homogeneous(p.spec, p.y)
    x = p.grid.nodes
    hom_vals = hom.values(x) if not hom.is_zero else np.zeros_like(x)
    exps = [mu for _, mu in hom.terms]
    lead = min(exps) if exps else None
    if lead is not None and lead > 0.0:
        lead = None  # regular at the origin, no declaration needed
    return hom_vals, lead


def _vectorized_rhs(rhs: Callable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(rhs(x, y), dtype=float)
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(rhs(float(a), float(b))) for a, b in zip(x, y)])


def picard_solve(p: VolterraProblem) -> PicardResult:
    """March the integral map forward in blocks of rows.

    Block [i0, i1) takes base = hom + W[i0:i1, :i0] @ F(history) once
    and then sweeps y_b = base + W[i0:i1, i0:i1] @ F(x_b, y_b), starting
    from the last value solved before the block, until the sup-norm
    change between sweeps drops to tol or max_iter sweeps are spent.
    The first block holds rows 0 and 1, which W[0, 1] couples.
    `iterations` is the largest sweep count of any block and `converged`
    says that every block met tol; running out of sweeps is reported,
    not raised.  A non-finite sweep aborts, since every later block
    would inherit it.  `residual` is the sup-norm defect of the whole
    map at the marched solution, taken block by block from the march as
    |y_b - base - W[i0:i1, i0:i1] @ F(x_b, y_b)|: base already holds the
    block's history product, so this is the full map's defect on those
    rows at the cost of one diagonal-square product per block.
    """
    hom_vals, lead = _homogeneous_baseline(p)
    x = p.grid.nodes
    W = quadrature_matrix(p.spec.alpha, p.grid, singular_exponent=lead)
    m = x.size
    cur = np.empty(m)
    forcing = np.empty(m)
    most = 0
    res = 0.0
    converged = True
    for i0 in range(0, m, _BLOCK_ROWS):
        i1 = min(i0 + _BLOCK_ROWS, m)
        xb = x[i0:i1]
        base = hom_vals[i0:i1] + W[i0:i1, :i0] @ forcing[:i0]
        diag = W[i0:i1, i0:i1]
        # start from the last solved value, or from base in the first block
        yb = np.full(i1 - i0, cur[i0 - 1]) if i0 else base
        change = math.inf
        for its in range(1, p.max_iter + 1):
            nxt = base + diag @ _vectorized_rhs(p.rhs, xb, yb)
            if not np.all(np.isfinite(nxt)):
                bad = int(np.argmax(~np.isfinite(nxt)))
                raise NonConvergenceError(
                    f"sweep {its} became non-finite at x = {xb[bad]:g} "
                    f"(value {nxt[bad]!r}); the forcing term is likely "
                    "leaving the integrable range"
                )
            change = float(np.max(np.abs(nxt - yb)))
            yb = nxt
            if change <= p.tol:
                break
        most = max(most, its)
        converged = converged and change <= p.tol
        cur[i0:i1] = yb
        forcing[i0:i1] = _vectorized_rhs(p.rhs, xb, yb)
        res = max(res, float(np.max(np.abs(yb - (base + diag @ forcing[i0:i1])))))
    sol = SampledFunction(p.grid, cur, singular_exponent=lead)
    return PicardResult(sol, most, res, converged)


def residual(p: VolterraProblem, candidate) -> float:
    """Sup-norm defect of a candidate under one application of the map."""
    hom_vals, lead = _homogeneous_baseline(p)
    x = p.grid.nodes
    if isinstance(candidate, SampledFunction):
        if candidate.grid != p.grid:
            raise ParameterOutOfRangeError("candidate lives on a different grid")
        vals = np.asarray(candidate.values)
    else:
        vals = np.asarray(candidate, dtype=float)
        if vals.shape != x.shape:
            raise ParameterOutOfRangeError(
                f"candidate needs {x.shape[0]} node values, got shape {vals.shape}"
            )
    W = quadrature_matrix(p.spec.alpha, p.grid, singular_exponent=lead)
    mapped = hom_vals + W @ _vectorized_rhs(p.rhs, x, vals)
    return float(np.max(np.abs(vals - mapped)))


def _linear_rhs(c: float) -> Callable:
    c = float(c)

    def f(x, y):
        return c * np.asarray(y, dtype=float)

    return f


def _logistic_rhs(a: float, b: float) -> Callable:
    a, b = float(a), float(b)

    def f(x, y):
        y = np.asarray(y, dtype=float)
        return a * y - b * y * y

    return f


RHS_REGISTRY: dict[str, Callable] = {
    "linear": _linear_rhs,
    "logistic": _logistic_rhs,
}


def make_rhs(name: str, params: dict) -> Callable:
    """Build a forcing callable from the named registry entry."""
    if name not in RHS_REGISTRY:
        raise ParameterOutOfRangeError(
            f"unknown right-hand side {name!r}; known: {sorted(RHS_REGISTRY)}"
        )
    try:
        return RHS_REGISTRY[name](**params)
    except TypeError as exc:
        raise ParameterOutOfRangeError(f"bad parameters for {name!r}: {exc}") from None
