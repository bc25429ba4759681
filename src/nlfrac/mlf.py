"""Two-parameter Mittag-Leffler function on the real line.

E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha k + beta) for
0 < alpha <= 1, beta > 0.  There is one evaluator, over arrays of z:
eval_ml and eval_ml_info evaluate a batch of one point, and every
point comes back with the regime that produced it.  The evaluator
targets relative error 1e-10 for real z with |z| <= 1e5 and
alpha >= 0.05, with two regimes on the negative axis:

* algebraic asymptotic expansion, truncated at its smallest term, once
  |z| is large and the truncation estimate, with the exponentials the
  expansion drops for alpha > 2/3, clears 1e-13,
* every other point goes to the integral regime, at every beta > 0.  A
  trapezoid rule on a parabolic Hankel contour inverts the Laplace
  transform s^(a-b) / (s^a + x) at all of its points at once.  The
  parabola crosses the real axis near the saddle s = b - a of
  e^s s^(a-b), so its terms stay about the size of the result.  Above
  CONTOUR_SUBTRACT_ALPHA, where its terms cancel, the rule inverts the
  difference from the alpha = 1 transform s^(1-b) / (s + x) in a form
  that does not cancel and adds back E_{1,b}(-x).

alpha = 1 uses exp(z) at beta = 1, otherwise the series on the positive
axis, its Kummer transform on the negative axis and the asymptotic
forms.  Positive arguments take the series where it converges and the
exponential asymptotic E ~ (1/alpha) z^((1-beta)/alpha) exp(z^(1/alpha))
beyond; values overflow to inf where the true result exceeds the double
range.

The series and Kummer sums build their terms as a (terms x points)
table: running products by np.cumprod, each point's stopping rule
from running maxima or sums along the term axis, and one pairwise
compensated sum.  The table length comes from the log-magnitudes of
the terms at the largest argument, and points are taken in blocks so
that the working set stays small for any batch.

Also here: the weighted kernel h(x) = x^(gamma_w - 1) E_{alpha,beta}
(-lam x^alpha) and the parameter test for its complete monotonicity
(0 < alpha <= 1, alpha <= beta, 0 < gamma_w <= 1, lam > 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gamma, gammaln

from . import mlconstants as C
from .errors import EvaluationAtZeroUndefinedError, ParameterOutOfRangeError

__all__ = [
    "MLQuery",
    "CMWeightedParams",
    "reciprocal_gamma",
    "eval_ml",
    "eval_ml_info",
    "eval_ml_many",
    "eval_ml_asymptotic_leading",
    "eval_weighted",
    "is_cm_params",
]

# regime codes of _evaluate, indexing their labels
_SERIES, _ASYMPTOTIC, _INTEGRAL, _CLOSED_FORM = range(4)
_REGIME_LABELS = ("series", "asymptotic", "integral", "closed-form")


def reciprocal_gamma(x: float) -> float:
    """Entire function 1/Gamma(x); exactly 0.0 at the poles of Gamma."""
    x = float(x)
    if not x > -math.inf:  # NaN or -inf
        raise ParameterOutOfRangeError(f"reciprocal_gamma: argument is {x}")
    if x <= 0.0:
        if x == math.floor(x):
            return 0.0
        # Gamma alternates sign between negative integers:
        # positive on (-2,-1), (-4,-3), ...; floor(x) even means positive
        sign = 1.0 if math.floor(x) % 2 == 0 else -1.0
        try:
            return sign * math.exp(-math.lgamma(x))
        except OverflowError:
            return sign * math.inf
    if x <= 171.0:
        return 1.0 / math.gamma(x)
    # underflows cleanly to 0.0 for large x
    return math.exp(-math.lgamma(x))


@dataclass(frozen=True)
class MLQuery:
    """Arguments of one Mittag-Leffler evaluation.

    Requires 0 < alpha <= 1, beta > 0, finite real z.
    """

    alpha: float
    beta: float
    z: float

    def __post_init__(self):
        a, b, z = float(self.alpha), float(self.beta), float(self.z)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "z", z)
        if not (0.0 < a <= 1.0):
            raise ParameterOutOfRangeError(f"alpha must lie in (0, 1], got {a:g}")
        if not b > 0.0:
            raise ParameterOutOfRangeError(f"beta must be positive, got {b:g}")
        if not math.isfinite(z):
            raise ParameterOutOfRangeError(f"z must be finite, got {z!r}")


@dataclass(frozen=True)
class CMWeightedParams:
    """Parameters of the weighted kernel x^(gamma_w-1) E_{alpha,beta}(-lam x^alpha)."""

    alpha: float
    beta: float
    gamma_w: float
    lam: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma_w", "lam"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterOutOfRangeError(f"alpha must lie in (0, 1], got {self.alpha:g}")
        if not self.beta > 0.0:
            raise ParameterOutOfRangeError(f"beta must be positive, got {self.beta:g}")

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma_w": self.gamma_w,
            "lam": self.lam,
        }


# ---------------------------------------------------------------------------
# term tables

def _table_rows(stops, cap):
    """Rows a term table needs to reach a sum's stopping point.

    stops(k) estimates, for rows k = 0, 1, ..., whether the stopping
    rule holds there, from the log-magnitudes of the terms at the
    largest argument the table serves.  The estimate grows fourfold
    until a row past the first meets the rule; one more row absorbs
    its rounding.  At most cap rows.
    """
    n = 32
    while True:
        hit = np.flatnonzero(stops(np.arange(min(n, cap)))[1:])
        if hit.size:
            return min(int(hit[0]) + 3, cap)
        if n >= cap:
            return cap
        n *= 4


def _by_blocks(x, rows_at, sweep):
    """sweep(x_block, rows) over blocks of x, largest magnitude first.

    A block's table length rows_at(r) comes from its largest magnitude
    r; a sum at a smaller argument stops no later.  Each block holds
    about 2^14 table cells (128 kB per array), which bounds the working
    set whatever the batch and keeps it in cache: on a 2-core Xeon,
    2^16-cell blocks made 1500-point sweeps 1.5 to 2 times slower.
    sweep returns a tuple of per-point arrays.
    """
    cells = 1 << 14
    order = np.argsort(-np.abs(x), kind="stable")
    outs = None
    start = 0
    while start < x.size:
        rows = rows_at(abs(float(x[order[start]])))
        blk = order[start : start + max(1, cells // rows)]
        res = sweep(x[blk], rows)
        if outs is None:
            outs = [np.empty(x.size, dtype=r.dtype) for r in res]
        for o, r in zip(outs, res):
            o[blk] = r
        start += blk.size
    return outs


def _compensated_sum(t):
    """Sum of the rows of t by a pairwise TwoSum tree; overwrites t.

    Each level adds the lower half of the rows to the upper half and
    keeps the exact rounding error of every addition.  The errors are
    summed along the same tree and added once at the end.
    """
    c = np.zeros_like(t)
    n = t.shape[0]
    while n > 1:
        h = n // 2
        m = n - h
        a = t[:h]
        b = t[m:n]
        u = a + b
        v = u - a
        c[:h] += c[m:n] + ((a - (u - v)) + (b - v))
        t[:h] = u
        n = m
    return t[0] + c[0]


def _reciprocal_gamma_rows(alpha, beta, k):
    """1/Gamma(alpha k + beta) at an array of integers k, to double precision.

    x = alpha k + beta rounds by up to ulp(x), which moves 1/Gamma by
    digamma(x) ulp(x) relative: near a pole of Gamma that is far more
    than the rounding of 1/Gamma itself, and cancellation in a sum
    magnifies it.  The exact residual r = alpha k + beta - x (Dekker's
    split makes hi k and (alpha - hi) k exact) undoes it.  On x > 0 the
    value is 1/Gamma(x) (1 - digamma(x) r), to first order.  On x <= 0
    it is the reflection about the nearest pole -n,

        1/Gamma(-n + e) = (-1)^n Gamma(n + 1 - e) sin(pi e) / pi,

    with e = (x + n) + r (x + n is exact) and Gamma(n + 1 - e) corrected
    to first order for the rounding of n + 1 - e in the same way.  It
    holds at any distance from the pole, where digamma(x) does not: two
    ulps from -7 its relative error is 5e-2.  An exact pole gives 0.
    """
    x = alpha * k + beta
    hi = 134217729.0 * alpha
    hi -= hi - alpha
    ak = alpha * k
    s = x - ak
    r = ((hi * k - ak) + (alpha - hi) * k) + ((ak - (x - s)) + (beta - s))
    coef = np.empty_like(x)
    pos = x > 0.0
    xp = x[pos]
    coef[pos] = np.array([reciprocal_gamma(v) for v in xp]) * (1.0 - digamma(xp) * r[pos])
    n = -np.round(x[~pos])
    e = (x[~pos] + n) + r[~pos]
    y = n + 1.0 - e
    g = gamma(y) * (1.0 + digamma(y) * ((n + 1.0 - y) - e))
    coef[~pos] = (-1.0) ** n * g * np.sin(math.pi * e) / math.pi
    return coef


def _series_batch(alpha, beta, z):
    """Defining series at each point, with compensated summation.

    Returns (values, converged).  A sum ends at the first term k >= 1
    with |t_k| <= SERIES_TAIL_REL max_{j<=k} |t_j|.  It has not
    converged when no term within SERIES_MAX_TERMS meets that, or when a
    term overflows first; its value is then nan.  At alpha = 1 the term
    is carried by the ratio t_{k+1} = t_k z / (beta + k): z^k alone
    overflows near k = 134 at z = 200, long before the terms peak at
    k ~ z.
    """
    ratio = alpha == 1.0
    log_tail = math.log(C.SERIES_TAIL_REL)

    def rows_at(r):
        def stops(k):
            lt = k * math.log(r) - gammaln(alpha * k + beta)
            return lt <= np.maximum.accumulate(lt) + log_tail

        return _table_rows(stops, C.SERIES_MAX_TERMS)

    if not ratio:
        k = np.arange(rows_at(float(np.max(np.abs(z)))), dtype=float)
        coef = _reciprocal_gamma_rows(alpha, beta, k)[:, None]

    def sweep(zb, rows):
        t = np.empty((rows, zb.size))
        if ratio:
            t[0] = reciprocal_gamma(beta)
            t[1:] = zb / (beta + np.arange(rows - 1.0))[:, None]
            np.cumprod(t, axis=0, out=t)
        else:
            t[0] = 1.0
            t[1:] = zb
            np.cumprod(t, axis=0, out=t)
            t *= coef[:rows]
        at = np.abs(t)
        peak = np.maximum.accumulate(at, axis=0)
        hit = (at <= C.SERIES_TAIL_REL * peak) & np.logical_and.accumulate(np.isfinite(t), axis=0)
        hit[0] = False
        converged = hit.any(axis=0)
        last = hit.argmax(axis=0)
        t[np.arange(rows)[:, None] > last] = 0.0
        return np.where(converged, _compensated_sum(t), np.nan), converged

    # past-the-table powers overflow and meet zero coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        return _by_blocks(z, rows_at, sweep)


def _kummer_batch(beta, x):
    """E_{1,beta}(-x) for x in (0, ALPHA_ONE_ASYM_ABS_Z].

    Kummer transform: E_{1,b}(-x) = e^-x [1 + (b-1) S] / Gamma(b),
    S = sum_{k>=1} t_k, t_k = q_k / (b+k-1), q_k = x^k / k!, all terms
    one sign, so unlike the plain series it does not cancel as x grows.
    A point's sum ends at the first k with t_k < 1e-18 S_k and
    q_k < 1e-18 max(1, S_k), S_k its running sum.
    """
    tiny = 1e-18
    log_tiny = math.log(tiny)

    def rows_at(r):
        def stops(i):
            k = i + 1.0
            lq = k * math.log(r) - gammaln(k + 1.0)
            lt = lq - np.log(beta + i)
            ls = np.logaddexp.accumulate(lt)
            return (lt < log_tiny + ls) & (lq < log_tiny + np.maximum(ls, 0.0))

        return _table_rows(stops, math.inf)

    def sweep(xb, rows):
        k = np.arange(1.0, rows + 1.0)[:, None]
        q = np.cumprod(xb / k, axis=0)
        # beta + (k - 1), not (beta + k) - 1, which drops the low bits of
        # a small beta: 8e-15 relative on t_1 = x / beta at beta = 0.014
        t = q / (beta + (k - 1.0))
        s = np.cumsum(t, axis=0)
        hit = (t < tiny * s) & (q < tiny * np.maximum(1.0, s))
        last = np.where(hit.any(axis=0), hit.argmax(axis=0), rows - 1)
        t[k - 1.0 > last] = 0.0
        return (_compensated_sum(t),)

    (sums,) = _by_blocks(x, rows_at, sweep)
    return np.exp(-x) * (1.0 + (beta - 1.0) * sums) * reciprocal_gamma(beta)


def _asymptotic_batch(alpha, beta, z):
    """Algebraic expansion -sum_{j>=1} z^-j / Gamma(beta - j alpha).

    Truncated where the two-term envelope max(|t_j|, |t_j+1|) is
    smallest; returns (values, estimated relative truncation errors).
    Individual |t_j| are useless for locating the optimal cut: whenever
    beta - j alpha falls within rounding distance of a Gamma pole the
    term dips to ~1e-20 of its neighbours, and treating that dip as
    convergence silently drops the rest of the tail.  For the same
    reason the cut never ends on a term whose coefficient is exactly
    zero (beta - j alpha a pole, as for j = 1 at beta = alpha).

    The coefficients -1/Gamma(beta - j alpha) are formed once, with the
    rounding of beta - j alpha undone: at alpha = 0.9999999,
    beta = alpha, each lies within j 1e-7 of a pole, where that rounding
    alone cost 6e-11 relative.  The terms of all points are built in a
    (terms x points) table.  A
    point's terms stop at the first p = z^-j that is zero or not
    finite, or the first term that is not finite.  Where p underflowed
    (|z| > 1e6 for that within the table), the tail shrinks by 1/|z|
    per term, so its first term is the envelope at the last kept term;
    it is 0 where that term underflows too.  The relative error is
    taken against max(|sum|, smallest normal), so a sum below the
    normal range is judged by its absolute error.  The retained terms
    are summed by _compensated_sum.
    """
    z = np.asarray(z, dtype=float)
    nterms = C.ASYM_MAX_TERMS
    rows = np.arange(nterms)[:, None]
    coef = -_reciprocal_gamma_rows(alpha, beta, -np.arange(1.0, nterms + 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.cumprod(np.broadcast_to(1.0 / z, (nterms, z.size)), axis=0)
        terms = p * coef[:, None]
        stop = (p == 0.0) | ~np.isfinite(p) | ~np.isfinite(terms)
        count = np.where(stop.any(axis=0), stop.argmax(axis=0), nterms)
        terms[rows >= count] = 0.0
        mags = np.abs(terms)
        mags[rows >= count] = np.inf
        env = np.maximum(mags[:-1], mags[1:])
        env[coef[:-1] == 0.0] = np.inf
        # tails cut short by an underflowing p, which stays 0 from there
        under = np.flatnonzero((p[-1] == 0.0) & (count > 0))
        under = under[p[count[under], under] == 0.0]
        last = count[under] - 1
        env[last, under] = np.abs(coef[last + 1]) * np.abs(z[under]) ** -(last + 2.0)
        cut = np.argmin(env, axis=0)
        env_cut = env[cut, np.arange(z.size)]
        # a zero term leaves the compensated sum as it is
        terms[rows > cut] = 0.0
        total = _compensated_sum(terms[: int(cut.max(initial=0)) + 1])
        rel = env_cut / np.maximum(np.abs(total), np.finfo(float).tiny)
    return total, rel


def _contour(alpha, beta, x):
    """E_{alpha,beta}(-x) at an array of x > 0, for every beta > 0.

    A trapezoid rule in u on the parabola s(u) = mu (1 + i u)^2 inverts
    s^(a-b) / (s^a + x) at t = 1 (Weideman & Trefethen, Math. Comp. 76
    (2007) 1341; Garrappa, SIAM J. Numer. Anal. 53 (2015) 1350); for
    0 < alpha < 1 there is no pole on the principal sheet.  The integrand
    is conjugate-symmetric in u, so the value is the sum of the real
    parts of the terms F_k at u_k = k h, k >= 0, those past u = 0
    counted twice, for all points at once.  The terms form a
    (points x nodes) table and each point sums its own row, so a value
    does not depend on the batch it comes in.

    The contour follows the saddle of e^s s^(a-b), near s = b - a: it
    crosses the real axis at mu = max(1/2, b - a), where the terms are
    about the size of the result, so rounding is not amplified at any
    beta (Garrappa places the contour from the singularities in the same
    way; the N-scaled Weideman-Trefethen parabola reaches s = 0.13 N and
    amplifies rounding by about e^(0.13 N)).  Along u the terms fall off
    like e^(-2 mu u^2) from the saddle, so the step h = min(0.15,
    0.2 / sqrt(mu)) narrows with it; h = 0.15 keeps the branch point
    u = i at 2 pi / h = 42 e-folds of discretisation error.  The nodes
    end at u = sqrt(1 + 50 / mu), where |e^s| = e^(mu (1 - u^2)) = e^-50:
    67 nodes at mu = 1/2 and 75 at beta = 171.

    Above CONTOUR_SUBTRACT_ALPHA the value cancels among the terms: near
    alpha = 1 the transform is close to s^(1-b) / (s + x), whose pole at
    s = -x sits on the branch cut.  There the rule integrates the
    difference from that alpha = 1 transform,

        s^(a-b) / (s^a + x) - s^(1-b) / (s + x)
            = -x s^(a-b) expm1((1-a) log s) / ((s^a + x)(s + x)),

    written so that nothing cancels as alpha -> 1, sums it with
    compensation, and adds back its inverse E_{1,b}(-x) from the
    alpha = 1 routes.

    The terms at mu = 1/2 are of order one, so the relative rounding
    grows where |E| is small: as beta -> 0, E(-x) -> 1/Gamma(beta) ~ beta
    at small x, and the error reads 1e-12 at beta = 1e-4 and 8e-11 at
    beta = 1e-6.
    """
    mu = max(0.5, beta - alpha)
    h = min(0.15, 0.2 / math.sqrt(mu))
    n = 1 + int(math.sqrt(1.0 + 50.0 / mu) / h)
    u = h * np.arange(n)
    s = mu * (1.0 + 1j * u) ** 2
    log_s = np.log(s)
    # h e^s s^(a-b) s'(u) / (2 pi i), with s'(u) = 2 i mu (1 + i u)
    c = (h * mu / math.pi) * np.exp(s + (alpha - beta) * log_s) * (1.0 + 1j * u)
    c[1:] *= 2.0
    q = np.exp(alpha * log_s)
    if alpha > C.CONTOUR_SUBTRACT_ALPHA:
        # F_k = -x c_k expm1((1-a) log s_k) / ((q_k + x)(s_k + x))
        f = (-c * np.expm1((1.0 - alpha) * log_s))[:, None] / (
            (q[:, None] + x) * (s[:, None] / x + 1.0)
        )
        return _compensated_sum(f.real.copy()) + _evaluate(1.0, beta, -x)[0]
    # F_k = c_k / (q_k + x), in real arithmetic and in place
    d = np.add.outer(x, q.real)
    f = d * c.real
    f += c.imag * q.imag
    d *= d
    d += q.imag**2
    f /= d
    return f.sum(axis=1)


# ---------------------------------------------------------------------------
# the evaluator

def _evaluate(alpha, beta, z):
    """E_{alpha,beta} and a regime code at each point of a flat array z.

    The routes are those eval_ml_many lists.
    """
    code = np.full(z.shape, _CLOSED_FORM, dtype=np.int8)
    if alpha == 1.0 and beta == 1.0:
        with np.errstate(over="ignore"):
            return np.exp(z), code
    val = np.empty_like(z)
    ax = np.abs(z)
    left = z != 0.0
    val[~left] = reciprocal_gamma(beta)
    # the series serves z > 0 while its terms stay below about 1e280
    # (z^(1/alpha) <= 280 ln 10), at alpha = 1 up to ALPHA_ONE_ASYM_ABS_Z;
    # on z < 0 it would cancel, and the routes below serve every point
    if alpha == 1.0:
        top = C.ALPHA_ONE_ASYM_ABS_Z
    else:
        top = (C.POSITIVE_SERIES_DIGITS_CAP * math.log(10.0)) ** alpha
    idx = np.flatnonzero((z > 0.0) & (z <= top))
    if idx.size:
        v, converged = _series_batch(alpha, beta, z[idx])
        idx = idx[converged]
        val[idx] = v[converged]
        code[idx] = _SERIES
        left[idx] = False

    grow = left & (z > 0.0)
    if grow.any():
        zg = z[grow]
        with np.errstate(over="ignore"):
            arg = zg ** (1.0 / alpha) + (1.0 - beta) / alpha * np.log(zg)
            val[grow] = np.exp(arg) / alpha
        code[grow] = _ASYMPTOTIC
    left &= z < 0.0

    if alpha == 1.0:
        kummer = left & (ax <= C.ALPHA_ONE_ASYM_ABS_Z)
        if kummer.any():
            val[kummer] = _kummer_batch(beta, ax[kummer])
        far = left & ~kummer
        if far.any():
            val[far] = _asymptotic_batch(1.0, beta, z[far])[0]
            code[far] = _ASYMPTOTIC
        return val, code

    idx = np.flatnonzero(left & (ax >= C.ASYM_MIN_ABS_Z))
    if idx.size:
        v, rel = _asymptotic_batch(alpha, beta, z[idx])
        if alpha > 2.0 / 3.0:
            # the expansion drops the exponentials (1/alpha) Z^(1-beta) e^Z
            # at Z = X e^(+-i pi/alpha), X = x^(1/alpha), which for
            # alpha > 2/3 decay only like e^(X cos(pi/alpha)) with
            # cos(pi/alpha) -> -1 as alpha -> 1
            lx = np.log(ax[idx]) / alpha
            # X overflows for |z| past ~1e200, where the exponent is -inf;
            # as in _asymptotic_batch, a value below the normal range is
            # judged by its absolute error
            with np.errstate(over="ignore"):
                rel = rel + np.exp(
                    math.log(2.0 / alpha) + (1.0 - beta) * lx
                    + np.exp(lx) * math.cos(math.pi / alpha)
                    - np.log(np.maximum(np.abs(v), np.finfo(float).tiny))
                )
        ok = rel <= C.ASYM_ACCEPT_REL
        idx = idx[ok]
        val[idx] = v[ok]
        code[idx] = _ASYMPTOTIC
        left[idx] = False
    idx = np.flatnonzero(left)
    code[idx] = _INTEGRAL
    if idx.size:
        val[idx] = _contour(alpha, beta, ax[idx])
    return val, code


def eval_ml(q: MLQuery) -> float:
    """Value of E_{alpha,beta}(z)."""
    return float(_evaluate(q.alpha, q.beta, np.array([q.z]))[0][0])


def eval_ml_info(q: MLQuery) -> tuple[float, str]:
    """Value together with the label of the regime that produced it.

    The labels are "series" (z > 0, at any alpha), "asymptotic",
    "integral" (every other z < 0 at alpha < 1) and "closed-form"
    (z = 0, exp(z) at alpha = beta = 1, and the Kummer transform for
    every z in [-ALPHA_ONE_ASYM_ABS_Z, 0) at alpha = 1).
    """
    val, code = _evaluate(q.alpha, q.beta, np.array([q.z]))
    return float(val[0]), _REGIME_LABELS[code[0]]


def eval_ml_many(alpha: float, beta: float, z) -> np.ndarray:
    """E_{alpha,beta} over an array of real arguments, in the shape of z.

    eval_ml and eval_ml_info are this evaluator on one point.

    Each regime serves all of its points at once:

    * z = 0: 1/Gamma(beta); at alpha = beta = 1, exp(z) everywhere;
    * the series band, one table sweep, on z > 0 only: up to
      ALPHA_ONE_ASYM_ABS_Z at alpha = 1, otherwise while the growth
      stays within POSITIVE_SERIES_DIGITS_CAP.  A point leaves it only
      when its sum did not converge;
    * z > 0 beyond: the exponential asymptotic form;
    * alpha = 1, z < 0: the Kummer sweep down to -ALPHA_ONE_ASYM_ABS_Z,
      the batched asymptotic expansion below;
    * alpha < 1, z <= -ASYM_MIN_ABS_Z: the batched asymptotic
      expansion, kept where its truncation estimate, plus for
      alpha > 2/3 the exponentials it drops, is within ASYM_ACCEPT_REL;
    * the rest of z < 0: the contour rule at beta itself, one
      (points x nodes) table for the whole batch; above
      CONTOUR_SUBTRACT_ALPHA it adds E_{1,beta} from the alpha = 1
      routes to the rule's difference.

    A point's value does not depend on the batch it comes in.
    """
    MLQuery(alpha, beta, 0.0)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(np.isfinite(z)):
        raise ParameterOutOfRangeError("z values must be finite")
    return _evaluate(alpha, beta, z.ravel())[0].reshape(z.shape)


def eval_ml_asymptotic_leading(q: MLQuery) -> float:
    """Leading large-argument term -1 / (z Gamma(beta - alpha)).

    Only meaningful for z <= -ASYM_MIN_ABS_Z; raises otherwise.
    """
    if q.z > -C.ASYM_MIN_ABS_Z:
        raise ParameterOutOfRangeError(
            f"leading asymptotic term requires z <= -{C.ASYM_MIN_ABS_Z:g}, got {q.z:g}"
        )
    return -reciprocal_gamma(q.beta - q.alpha) / q.z


# ---------------------------------------------------------------------------
# weighted kernel and complete monotonicity

def is_cm_params(p: CMWeightedParams) -> bool:
    """Complete-monotonicity test for x^(gamma_w-1) E_{alpha,beta}(-lam x^alpha).

    The kernel is completely monotone on (0, inf) exactly when
    0 < alpha <= 1, alpha <= beta, 0 < gamma_w <= 1 and lam > 0.
    Boundary comparisons allow 1e-12 slack so that specs assembled from
    floating-point arithmetic (for instance a Caputo vertex whose sigma
    carries rounding dust) classify as the limits they represent.
    """
    tol = 1e-12
    return (
        0.0 < p.alpha <= 1.0 + tol
        and p.alpha <= p.beta + tol
        and 0.0 < p.gamma_w <= 1.0 + tol
        and p.lam > 0.0
    )


def eval_weighted(p: CMWeightedParams, x: float) -> float:
    """Value of x^(gamma_w-1) E_{alpha,beta}(-lam x^alpha) at x >= 0."""
    return float(eval_weighted_many(p, np.array([float(x)]))[0])


def eval_weighted_many(p: CMWeightedParams, x) -> np.ndarray:
    """x^(gamma_w-1) E_{alpha,beta}(-lam x^alpha) over an array of x >= 0.

    At x = 0 the kernel takes its limit: 1/Gamma(beta) at gamma_w = 1
    and 0 above; below, x^(gamma_w-1) diverges and the call raises.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0):
        raise ParameterOutOfRangeError("weighted kernel needs x >= 0")
    zero = x == 0.0
    out = np.empty_like(x)
    if zero.any():
        if abs(p.gamma_w - 1.0) <= 1e-12:
            out[zero] = reciprocal_gamma(p.beta)
        elif p.gamma_w > 1.0:
            out[zero] = 0.0
        else:
            raise EvaluationAtZeroUndefinedError(
                f"x^(gamma_w-1) diverges at 0 for gamma_w = {p.gamma_w:g}"
            )
    xs = x[~zero]
    out[~zero] = xs ** (p.gamma_w - 1.0) * eval_ml_many(p.alpha, p.beta, -p.lam * xs**p.alpha)
    return out
