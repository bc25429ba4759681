"""Quadrature path: fractional calculus on sampled functions.

Everything here works on graded grids x_i = x_max (i/m)^r, i = 1..m,
which cluster nodes near the origin where solutions behave like x^sigma
with sigma possibly negative.  The fractional integral is a product
trapezoidal rule: the weakly singular kernel (x-t)^(order-1) is
integrated exactly against the piecewise-linear interpolant of the
data, so the rule has no trouble with the kernel singularity at t = x
and is exact for piecewise-linear inputs at order 1.

The first cell [0, x_1] has no left sample.  When the data's leading
behavior x^sigma is declared, that cell is integrated exactly against
c x^sigma through the regularized incomplete beta function; otherwise
the interpolant is extended linearly from the first two samples.

Differentiation uses five-point stencils fitted per node (fourth order
on smooth data), built by solving the small Vandermonde systems in a
batch.  Composed derivatives are only as good as the data is smooth;
the operator contract documents, and does not check, that each stage
of an nth-level composition has been regularized enough by the
preceding integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special as sc

from .errors import ParameterOutOfRangeError
from .specparams import TOL, DerivativeSpec, require_valid

__all__ = [
    "GradedGrid",
    "SampledFunction",
    "default_grading_exponent",
    "rl_integral_grid",
    "quadrature_matrix",
    "derivative_grid",
    "nth_level_derivative_grid",
    "laplace_numeric",
    "csv_text",
    "write_csv",
    "read_xy",
]

# below this the five-point stencils at the ends would overlap
MIN_NODES = 16


@dataclass(frozen=True)
class GradedGrid:
    """Nodes x_i = x_max (i/m)^r for i = 1..m; the origin is not a node."""

    x_max: float
    m: int
    r: float = 2.0
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, int):
            raise ParameterOutOfRangeError("node count must be an integer")
        x_max = float(self.x_max)
        r = float(self.r)
        if not (math.isfinite(x_max) and x_max > 0.0):
            raise ParameterOutOfRangeError(f"x_max must be positive, got {self.x_max!r}")
        if self.m < 1:
            raise ParameterOutOfRangeError("node count must be >= 1")
        if not (math.isfinite(r) and r >= 1.0):
            raise ParameterOutOfRangeError(f"grading exponent must be >= 1, got {self.r!r}")
        object.__setattr__(self, "x_max", x_max)
        object.__setattr__(self, "r", r)
        nodes = x_max * (np.arange(1, self.m + 1) / self.m) ** r
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)


def default_grading_exponent(spec: DerivativeSpec) -> float:
    """Grading r = 2/min_k(sigma_k + 1), clamped to [1, 6].

    Solutions of the relaxation equation carry x^sigma_k terms; this
    choice restores second-order quadrature accuracy for the worst of
    them.  Uniform grids (r = 1) lose all accuracy near 0 once any
    sigma_k < 0.
    """
    smallest = min(s + 1.0 for s in spec.sigma)
    return min(6.0, max(1.0, 2.0 / smallest))


@dataclass(frozen=True)
class SampledFunction:
    """Values on a graded grid, with optional declared x^sigma behavior at 0."""

    grid: GradedGrid
    values: np.ndarray
    singular_exponent: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.m,):
            raise ParameterOutOfRangeError(
                f"expected {self.grid.m} values, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ParameterOutOfRangeError("sampled values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if self.singular_exponent is not None:
            s = float(self.singular_exponent)
            if not (-1.0 + TOL < s <= TOL):
                raise ParameterOutOfRangeError(
                    f"singular exponent must lie in (-1, 0], got {s:g}"
                )
            object.__setattr__(self, "singular_exponent", s)


# rows per assembly block.  Each call allocates five rows x m scratch
# arrays once, 0.5 MB each at m = 2048, and reuses them for every
# block.  Per matrix at m = 2048, the median over the 8 picard pool keys
# in three sweeps on a 2-core Xeon whose speed drifts: 16 rows 45-59 ms,
# 32 rows 44-63, 64 rows 49-54, 128 rows 55-72, 256 rows 69-71.
_BLOCK_ROWS = 32

# a kept cell c <= i of row i can have h_c / a >= 1/4 only on the 4
# diagonals c = i-3..i: node spacings never shrink along a graded grid,
# so a = X_{i+1} - X_c >= (i + 1 - c) h_c
_NEAR_DIAGONALS = 4


def _apply_rule(nu: float, x: np.ndarray, y, sigma, want_matrix: bool):
    """Product-trapezoid weights, assembled in row blocks.

    With X = (0, x_1, ..., x_m), cell c = [X_c, X_{c+1}] contributes to
    output node x_i = X_{i+1} for c <= i through the exact moments
    M0 = int (x_i-t)^(nu-1) dt and M1 = int .. (t-X_c) dt, split onto
    the two cell ends.  With a = x_i - X_c, b = a - h and h = X_{c+1} -
    X_c, they are d0 = (a^nu - b^nu)/nu and d1 = (a^(nu+1) - b^(nu+1))/
    (nu+1).  Those direct differences lose digits when h is small
    against a, so they are taken only where h/a >= 1/4 (a band of
    _NEAR_DIAGONALS diagonals, patched in afterwards) and rewritten
    elsewhere as -a^p expm1(p log1p(-h/a)).  One expm1 serves both
    moments: (1-r)^(nu+1) - 1 = e0 - r (1 + e0) with e0 = (1-r)^nu - 1,
    a sum of two non-positive terms, so nothing cancels.  The power
    a^nu of a cell's left end is the right-end power of the cell before
    it, so each entry takes one power.

    Cell 0 = [0, x_1] has no sample at the origin: the data is
    continued linearly through the first two samples (constantly when
    there is one), and its left weight goes to them.  Only the lower
    triangle is computed: row block i0:i1 evaluates the cells c < i1,
    the only ones that reach its rows, in _BLOCK_ROWS-row scratch arrays
    reused through out=, and writes its rows of the matrix directly.
    The upper triangle stays zero except W[0, 1], the weight of the
    second sample in the first cell's extrapolation.

    A declared leading power sigma is handled by subtraction: the model
    c t^sigma with c matched at the first node integrates in closed
    form, and only the remainder (which vanishes at the first node and
    grows away from 0 one ladder step faster) goes through the grid
    rule.  The split is exact for any c, so quadrature noise in the
    first sample cannot bias the result; it only modulates how much of
    the data the closed form absorbs.  Without this, linear chords on
    the strongly graded cells near 0 carry O(1) relative error for
    x^sigma data, polluting whole decades of output.

    Returns (values, matrix); the matrix is only materialized on
    request and includes the subtraction as a first-column correction.
    """
    m = x.size
    nodes = np.concatenate(([0.0], x))
    h = np.diff(nodes)
    neg_h = -h
    # extrapolation slope: the origin's value is (1 + s) y_1 - s y_2
    s = x[0] / (x[1] - x[0]) if m > 1 else 0.0
    rg = 1.0 / math.gamma(nu)
    if sigma is not None:
        with np.errstate(all="ignore"):
            power_in = x**sigma
        exact_out = (
            math.gamma(sigma + 1.0) / math.gamma(sigma + 1.0 + nu)
        ) * x ** (sigma + nu)
        scale = x[0] ** (-sigma)
    y_sub = y
    c = 0.0
    if sigma is not None and y is not None:
        c = y[0] * scale
        if c != 0.0:
            y_sub = y - c * power_in
    out = None if y is None else np.empty(m)
    W = np.zeros((m, m)) if want_matrix else None
    model_acc = np.empty(m) if (want_matrix and sigma is not None) else None
    rows = min(_BLOCK_ROWS, m)
    # flat, so that each block's (rows x cells) arrays are contiguous
    dist, pw, t_left, t_right, tmp = (np.empty(rows * m) for _ in range(5))
    wbuf = None if want_matrix else np.empty(rows * m)
    band_row = np.repeat(np.arange(rows), _NEAR_DIAGONALS)
    band_lag = np.tile(np.arange(_NEAR_DIAGONALS), rows)
    # cells c > i of row i0 + k, among columns i0+1..i1-1 of the block
    beyond = np.arange(rows - 1)[None, :] >= np.arange(rows)[:, None]
    for i0 in range(0, m, _BLOCK_ROWS):
        i1 = min(i0 + _BLOCK_ROWS, m)
        nb = i1 - i0
        a, pa, TL, TR, T = (
            buf[: nb * i1].reshape(nb, i1) for buf in (dist, pw, t_left, t_right, tmp)
        )
        # cells beyond the row give garbage (b < 0) and are zeroed below
        with np.errstate(all="ignore"):
            np.subtract(x[i0:i1, None], nodes[None, :i1], out=a)
            np.power(a, nu, out=pa)
            # T = -min(h/a, 1/4), TL = e0, TR = e1
            np.divide(neg_h[:i1], a, out=T)
            np.maximum(T, -0.25, out=T)
            np.log1p(T, out=TL)
            TL *= nu
            np.expm1(TL, out=TL)
            np.add(TL, 1.0, out=TR)
            TR *= T
            TR += TL
            # TL = d0, T = d1
            TL *= pa
            TL *= -1.0 / nu
            np.multiply(a, pa, out=T)
            T *= TR
            T *= -1.0 / (nu + 1.0)
            # direct moment differences where h/a >= 1/4
            k = band_row[: nb * _NEAR_DIAGONALS]
            cell = k + i0 - band_lag[: k.size]
            keep = cell >= 0
            k, cell = k[keep], cell[keep]
            an = a[k, cell]
            near = h[cell] / an >= 0.25
            k, cell, an = k[near], cell[near], an[near]
            bn = x[i0 + k] - nodes[cell + 1]
            pan, pbn = pa[k, cell], bn**nu
            TL[k, cell] = (pan - pbn) / nu
            T[k, cell] = (an * pan - bn * pbn) / (nu + 1.0)
            np.multiply(a, TL, out=TR)
            TR -= T
            TR /= h[:i1]
            TL -= TR
        if nb > 1:
            np.copyto(TL[:, i0 + 1 :], 0.0, where=beyond[:nb, : nb - 1])
            np.copyto(TR[:, i0 + 1 :], 0.0, where=beyond[:nb, : nb - 1])
        wb = W[i0:i1, :i1] if want_matrix else wbuf[: nb * i1].reshape(nb, i1)
        # sample j is the right end of cell j and the left end of cell j + 1
        n = i1 - 1
        col1 = (1.0 + s) * TL[:, 0] + TR[:, 0]
        if n > 0:
            np.add(TL[:, 1], col1, out=wb[:, 0])
            np.add(TL[:, 2:], TR[:, 1:n], out=wb[:, 1:n])
            wb[:, n] = TR[:, n]
            wb[:, 1] += -s * TL[:, 0]
        else:
            wb[:, 0] = col1
        wb *= rg
        if model_acc is not None:
            model_acc[i0:i1] = wb @ power_in[:i1]
        if y is not None:
            out[i0:i1] = wb @ y_sub[:i1]
    if y is not None and c != 0.0:
        out += c * exact_out
    if W is not None and sigma is not None:
        W[:, 0] += (exact_out - model_acc) * scale
    return out, W


def _cell_sigma(lead):
    """First-cell model exponent: any tracked leading power > -1 usable."""
    return lead if (lead is not None and lead > -1.0 + TOL) else None


def _integral_values(order: float, x: np.ndarray, y: np.ndarray, lead):
    """Integral of any positive order via chunks of order < 2.

    `lead` is the analytically tracked leading exponent of the data at
    0 (unclamped; None when unknown), used to integrate the first cell
    exactly against that power.
    """
    while order > 1.9:
        y, _ = _apply_rule(1.0, x, y, _cell_sigma(lead), False)
        lead = None if lead is None else lead + 1.0
        order -= 1.0
    out, _ = _apply_rule(order, x, y, _cell_sigma(lead), False)
    return out, (None if lead is None else lead + order)


def _public_sigma(lead):
    """Clamp a tracked exponent to the declared-field range (-1, 0]."""
    if lead is not None and -1.0 + TOL < lead <= TOL:
        return lead
    return None


def rl_integral_grid(order: float, f: SampledFunction) -> SampledFunction:
    """Fractional integral of the sampled data, order in (0, 2)."""
    order = float(order)
    if not (math.isfinite(order) and order > 0.0):
        raise ParameterOutOfRangeError(f"integral order must be > 0, got {order!r}")
    if order >= 2.0:
        raise ParameterOutOfRangeError(f"integral order must be < 2, got {order:g}")
    x = f.grid.nodes
    vals, lead = _integral_values(order, x, f.values, f.singular_exponent)
    return SampledFunction(f.grid, vals, _public_sigma(lead))


# the last matrix quadrature_matrix built, as (key, matrix), or None
_last_matrix = None


def quadrature_matrix(order: float, grid: GradedGrid, singular_exponent=None) -> np.ndarray:
    """Dense matrix of the rl_integral_grid rule, for repeated application.

    Row i holds the weights mapping the samples to the integral at x_i.
    Identical to rl_integral_grid by construction (same assembly
    routine).  The last matrix is kept, keyed on (order, grid,
    singular_exponent), so repeated solves on one grid assemble it once;
    it is returned read-only because every caller with that key shares
    it.  Only one matrix is held: a new key drops the old matrix before
    the new one is assembled, so the cache never holds two at once.
    """
    global _last_matrix
    order = float(order)
    if not (math.isfinite(order) and 0.0 < order < 2.0):
        raise ParameterOutOfRangeError(f"integral order must be in (0, 2), got {order!r}")
    if singular_exponent is not None:
        singular_exponent = float(singular_exponent)
    key = (order, grid, singular_exponent)
    # one read of the slot, so key and matrix always belong together
    last = _last_matrix
    if last is not None and last[0] == key:
        return last[1]
    # drop every reference to the old matrix, this frame's included, so
    # that it is freed before the new one is assembled
    del last
    _last_matrix = None
    _, W = _apply_rule(order, grid.nodes, None, singular_exponent, True)
    W.flags.writeable = False
    _last_matrix = (key, W)
    return W


def _derivative_values(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Five-point first derivative on an arbitrary strictly increasing grid.

    Per node, the window is the five nearest-by-index nodes (one-sided
    at the ends).  Stencil weights solve the order-4 exactness system
    on offsets normalized by the window span, one batched solve for all
    nodes.
    """
    m = x.size
    lo = np.clip(np.arange(m) - 2, 0, m - 5)
    win = lo[:, None] + np.arange(5)[None, :]
    d = x[win] - x[:, None]
    scale = np.max(np.abs(d), axis=1, keepdims=True)
    u = d / scale
    powers = np.arange(5)
    V = u[:, None, :] ** powers[None, :, None]
    rhs = np.zeros((m, 5, 1))
    rhs[:, 1, 0] = 1.0
    w = np.linalg.solve(V, rhs)[:, :, 0] / scale
    return np.einsum("ij,ij->i", w, y[win])


# head nodes whose one-sided stencils divide by near-origin spacings;
# their raw output amplifies data noise by up to 1/x_1 and is replaced
HEAD = 8


def _stage_derivative(x: np.ndarray, y: np.ndarray, lead):
    """Derivative stage of a composition, with the noise-prone head
    nodes replaced: by the tracked-power form u' = lead u / x when the
    leading exponent is known, else by a bounded continuation.  Either
    choice keeps head magnitudes at the scale of the true derivative;
    the raw stencils there would multiply data error by the reciprocal
    of the first node spacings.
    """
    d = _derivative_values(x, y)
    j = min(HEAD, x.size - 1)
    if lead is not None and abs(lead) > TOL:
        d[:j] = lead * y[:j] / x[:j]
    else:
        d[:j] = d[j]
    new_lead = None if (lead is None or abs(lead) <= TOL) else lead - 1.0
    return d, new_lead


def derivative_grid(f: SampledFunction) -> SampledFunction:
    if f.grid.m < 5:
        raise ParameterOutOfRangeError("derivative stencils need at least 5 nodes")
    return SampledFunction(f.grid, _derivative_values(f.grid.nodes, f.values), None)


def nth_level_derivative_grid(spec: DerivativeSpec, f: SampledFunction) -> SampledFunction:
    """Composed operator on sampled data: trailing integral, then per
    direction (innermost first) a derivative followed by its integral.

    The contract on f is smoothness compatible with each differentiation
    stage; that is documented, not checked.  Accuracy close to the
    origin is limited by the one-sided stencils there.
    """
    require_valid(spec)
    if f.grid.m < MIN_NODES:
        raise ParameterOutOfRangeError(
            f"grid too coarse for composed differentiation (m={f.grid.m} < {MIN_NODES})"
        )
    x = f.grid.nodes
    y = f.values
    lead = f.singular_exponent
    if spec.trailing_order > TOL:
        y, lead = _integral_values(spec.trailing_order, x, y, lead)
    for k in range(spec.n, 0, -1):
        y, lead = _stage_derivative(x, y, lead)
        g = spec.gamma[k - 1]
        if g > TOL:
            y, lead = _integral_values(g, x, y, lead)
    return SampledFunction(f.grid, y, _public_sigma(lead))


def _upper_gamma(a: float, yv: float) -> float:
    """Upper incomplete gamma for real a (including a <= 0) and yv > 0."""
    if a > 1e-12:
        return sc.gammaincc(a, yv) * math.gamma(a)
    if a > -1e-12:
        return float(sc.exp1(yv))
    return (_upper_gamma(a + 1.0, yv) - yv**a * math.exp(-yv)) / a


def laplace_numeric(f: SampledFunction, tail, s: float) -> float:
    """Laplace transform at s > 0: exact linear-cell quadrature on the
    grid plus the analytically integrated power-law tail beyond x_max.

    The tail is any object with .terms (or a bare sequence) of
    (coefficient, exponent) pairs describing f(t) ~ sum d t^e for
    t > x_max; each piece integrates to d s^(-e-1) Gamma(e+1, s x_max).
    Without a tail the transform is silently truncated at x_max.
    """
    s = float(s)
    if not (math.isfinite(s) and s > 0.0):
        raise ParameterOutOfRangeError(f"Laplace variable must be > 0, got {s!r}")
    x = f.grid.nodes
    y = f.values
    x1 = x[0]
    pieces = []
    if f.singular_exponent is not None:
        # subtract the declared power model (exact split, see _apply_rule)
        sg = f.singular_exponent
        c = y[0] * x1 ** (-sg)
        y = y - c * x**sg
        moment = s ** (-sg - 1.0) * math.gamma(sg + 1.0) * float(sc.gammainc(sg + 1.0, s * f.grid.x_max))
        pieces.append(c * moment)
    if f.grid.m > 1:
        a = x[:-1]
        h = np.diff(x)
        ea = np.exp(-s * a)
        eb = np.exp(-s * x[1:])
        i0 = ea * (-np.expm1(-s * h)) / s
        i1 = (i0 - h * eb) / s
        t_right = i1 / h
        t_left = i0 - t_right
        pieces.append(float(np.dot(t_left, y[:-1]) + np.dot(t_right, y[1:])))
    # cell [0, x_1]: linear continuation of (what remains of) the data
    i0 = -math.expm1(-s * x1) / s
    i1 = (i0 - x1 * math.exp(-s * x1)) / s
    f0 = y[0] if f.grid.m == 1 else y[0] - x1 * (y[1] - y[0]) / (x[1] - x[0])
    pieces.append(f0 * (i0 - i1 / x1) + y[0] * i1 / x1)
    if tail is not None:
        terms = getattr(tail, "terms", tail)
        yv = s * f.grid.x_max
        for d, e in terms:
            if d == 0.0:
                continue
            pieces.append(d * s ** (-e - 1.0) * _upper_gamma(e + 1.0, yv))
    return math.fsum(pieces)


def csv_text(x, y, sigma=None) -> str:
    """CSV text with header x,y; a declared exponent rides in a comment line."""
    lines = [] if sigma is None else [f"# sigma={sigma:.17g}"]
    lines.append("x,y")
    lines.extend(f"{xv:.17g},{yv:.17g}" for xv, yv in zip(x, y))
    return "\n".join(lines) + "\n"


def write_csv(f: SampledFunction, path: str) -> None:
    """Write f as csv_text to path."""
    with open(path, "w", newline="\n") as fh:
        fh.write(csv_text(f.grid.nodes, f.values, f.singular_exponent))


def read_xy(path: str):
    """Read an x,y CSV (comments allowed); returns (x, y, sigma_or_None)."""
    sigma = None
    xs: list[float] = []
    ys: list[float] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "sigma=" in line:
                    sigma = float(line.split("sigma=", 1)[1])
                continue
            if line.lower().startswith("x,"):
                continue
            sx, sy = line.split(",")[:2]
            xs.append(float(sx))
            ys.append(float(sy))
    return np.array(xs), np.array(ys), sigma
