"""Two-parameter Mittag-Leffler function on the real line.

E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha k + beta) for
0 < alpha <= 1, beta > 0.  There is one evaluator, over arrays of z:
eval_ml and eval_ml_info evaluate a batch of one point, and every
point comes back with the regime that produced it.  The evaluator
targets relative error 1e-10 for real z with |z| <= 1e5 and
alpha >= 0.05, switching between three regimes on the negative axis:

* power series with compensated summation while predicted
  cancellation stays within a ~5 digit budget,
* algebraic asymptotic expansion, truncated at its smallest term, once
  |z| is large and the truncation estimate clears 1e-13,
* otherwise the integral regime.  A trapezoid rule on a parabolic
  Hankel contour inverts the Laplace transform s^(a-b) / (s^a + x) at
  all of its points at once, with fixed nodes, and reports each
  point's rounding bound 2 eps sum_k |F_k| / |E| over its terms F_k.
  The rule serves 0 < b <= a + 1; larger beta is reached by the upward
  recurrence E_{a,b+a}(z) = (E_{a,b}(z) - 1/Gamma(b)) / z from the
  rule's values.  A point whose bound exceeds INTEGRAL_EPSREL, which
  happens where the value cancels among the terms near alpha = 1 with
  beta <= 1, falls back alone to a real spectral integral, written in
  u = r^alpha,

      E_{a,b}(-x) = (1/(pi a)) * int_0^inf exp(-u^(1/a)) u^((1-b)/a)
                    * [u sin(pi b) + x sin(pi (b-a))]
                    / ((u - u0)^2 + h^2) du,
      u0 + i h = x e^{i pi (1-a)},

  valid for 0 < a < 1, 0 < b <= a + 1, x > 0, by adaptive quadrature
  and the same recurrence.  The denominator peaks at u0 with width h;
  above INTEGRAL_PINCH_ALPHA that peak is too narrow for adaptive
  quadrature, and the complex pole is subtracted on a window around u0
  and added back in closed form.

alpha = 1 uses exp(z) at beta = 1, otherwise the series, its Kummer
transform on the negative axis and the asymptotic forms.  Positive
arguments take the series where it converges and the exponential
asymptotic E ~ (1/alpha) z^((1-beta)/alpha) exp(z^(1/alpha)) beyond;
values overflow to inf where the true result exceeds the double range.

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

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln

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

_LOG10E = 0.4342944819032518

# regime codes of _evaluate, indexing their labels
_SERIES, _ASYMPTOTIC, _INTEGRAL, _CLOSED_FORM = range(4)
_REGIME_LABELS = ("series", "asymptotic", "integral", "closed-form")


def reciprocal_gamma(x: float) -> float:
    """Entire function 1/Gamma(x); exactly 0.0 at the poles of Gamma."""
    x = float(x)
    if math.isnan(x):
        raise ParameterOutOfRangeError("reciprocal_gamma: argument is NaN")
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


def _sinpi(t: float) -> float:
    """sin(pi t), exact zeros at integer t."""
    m = round(t)
    s = math.sin(math.pi * (t - m))
    return s if m % 2 == 0 else -s


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


def _series_batch(alpha, beta, z):
    """Defining series at each point, with compensated summation.

    Returns (values, converged, realised cancellation digits).  A sum
    ends at the first term k >= 1 with |t_k| <= SERIES_TAIL_REL
    max_{j<=k} |t_j|.  It has not converged when no term within
    SERIES_MAX_TERMS meets that, or when a term overflows first; its
    value is then nan.  At alpha = 1 the term is carried by the ratio
    t_{k+1} = t_k z / (beta + k): z^k alone overflows near k = 134 at
    z = 200, long before the terms peak at k ~ z.
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
        x = alpha * k + beta
        coef = np.array([reciprocal_gamma(v) for v in x])
        # x rounds alpha k + beta by up to ulp(x), which moves 1/Gamma by
        # digamma(x) ulp(x) relative, and cancellation magnifies that; undo
        # it to first order with the exact residual r = alpha k + beta - x
        # (Dekker's split makes hi k and (alpha - hi) k exact)
        hi = 134217729.0 * alpha
        hi -= hi - alpha
        ak = alpha * k
        s = x - ak
        r = ((hi * k - ak) + (alpha - hi) * k) + ((ak - (x - s)) + (beta - s))
        coef = (coef * (1.0 - digamma(x) * r))[:, None]

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
        total = np.where(converged, _compensated_sum(t), np.nan)
        maxt = peak[last, np.arange(zb.size)]
        digits = np.where(
            (maxt > 0.0) & (total != 0.0),
            np.log10(np.maximum(maxt / np.maximum(np.abs(total), 1e-300), 1.0)),
            np.where(maxt > 0.0, np.inf, 0.0),
        )
        return total, converged, digits

    # past-the-table powers overflow and meet zero coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        return _by_blocks(z, rows_at, sweep)


def _kummer_batch(beta, x):
    """E_{1,beta}(-x) for x in (ALPHA_ONE_SERIES_ABS_Z, ALPHA_ONE_ASYM_ABS_Z].

    Kummer transform: E_{1,b}(-x) = e^-x [1 + (b-1) S] / Gamma(b),
    S = sum_{k>=1} t_k, t_k = q_k / (b+k-1), q_k = x^k / k!, all terms
    one sign.  A point's sum ends at the first k with t_k < 1e-18 S_k
    and q_k < 1e-18 max(1, S_k), S_k its running sum.
    """
    tiny = 1e-18
    log_tiny = math.log(tiny)

    def rows_at(r):
        def stops(i):
            k = i + 1.0
            lq = k * math.log(r) - gammaln(k + 1.0)
            lt = lq - np.log(beta + k - 1.0)
            ls = np.logaddexp.accumulate(lt)
            return (lt < log_tiny + ls) & (lq < log_tiny + np.maximum(ls, 0.0))

        return _table_rows(stops, math.inf)

    def sweep(xb, rows):
        k = np.arange(1.0, rows + 1.0)[:, None]
        q = np.cumprod(xb / k, axis=0)
        t = q / (beta + k - 1.0)
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
    convergence silently drops the rest of the tail.

    The coefficients -1/Gamma(beta - j alpha) are formed once, and the
    terms of all points are built in a (terms x points) table.  A
    point's terms stop at the first p = z^-j that is zero or not
    finite, or the first term that is not finite.  The retained terms
    are summed in order with Neumaier's compensation.
    """
    z = np.asarray(z, dtype=float)
    nterms = C.ASYM_MAX_TERMS
    rows = np.arange(nterms)[:, None]
    coef = np.array([-reciprocal_gamma(beta - j * alpha) for j in range(1, nterms + 1)])
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.cumprod(np.broadcast_to(1.0 / z, (nterms, z.size)), axis=0)
        terms = p * coef[:, None]
        stop = (p == 0.0) | ~np.isfinite(p) | ~np.isfinite(terms)
        count = np.where(stop.any(axis=0), stop.argmax(axis=0), nterms)
        terms[rows >= count] = 0.0
        mags = np.abs(terms)
        mags[rows >= count] = np.inf
        env = np.maximum(mags[:-1], mags[1:])
        # with a single term, the envelope is that term alone
        env[0] = np.where(count == 1, mags[0], env[0])
        cut = np.argmin(env, axis=0)
        env_cut = env[cut, np.arange(z.size)]
        # a zero term leaves the compensated sum as it is
        terms[rows > cut] = 0.0
        s = np.zeros_like(z)
        c = np.zeros_like(z)
        for t in terms[: int(cut.max(initial=0)) + 1]:
            u = s + t
            c = np.where(np.abs(s) >= np.abs(t), c + ((s - u) + t), c + ((t - u) + s))
            s = u
        total = s + c
        empty = (count == 0) | (total == 0.0)
        vals = np.where(empty, 0.0, total)
        rel = np.where(empty, np.inf, env_cut / np.abs(total))
    return vals, rel


def _spectral(alpha, beta, x):
    """E_{alpha,beta}(-x) from its spectral integral, 0 < alpha < 1.

    In u = r^alpha the representation reads

        E = (1/pi) int_0^inf psi(u) (u sin(pi b) + x sin(pi(b-a))) / D du,
        psi(u) = exp(-u^(1/a)) u^p / a,  p = (1-b)/a,
        D = (u - u0)^2 + h^2,  u0 + i h = w = x e^{i pi (1-a)}.

    For alpha > 1/2 the Lorentzian 1/D peaks at u0 > 0 with width h;
    past the cut c below, u0 is a quadrature breakpoint.  As alpha -> 1, h ~
    pi (1-a) x becomes narrower than adaptive quadrature resolves to
    1e-12, so above INTEGRAL_PINCH_ALPHA the pole is taken out.
    Because sin(pi b) w + x sin(pi(b-a)) = -x sin(pi a) e^{-i pi b}, the
    integral equals -(1/pi) Im[e^{-i pi b} int psi(u) / (u - w) du],
    whose pole w sits h above the axis.  On the window [u1, u2] =
    [u0/2, 2 u0] it is subtracted,

        int psi/(u-w) = int (psi(u) - psi(w))/(u-w) du + psi(w) log((u2-w)/(u1-w)),

    which leaves a smooth integrand.  Elsewhere the real form above is
    integrated as it stands, so its small factors sin(pi b) and
    sin(pi(b-a)) stay explicit.  On [0, c] the constant part of the
    integrand at u = 0 is integrated in closed form against u^p, which
    keeps the pole of u^p at beta = alpha + 1 finite (its 1/delta
    cancels against sin(pi(b-a)) = sin(pi delta)), and the rest goes to
    QAWS with the weight u^(p+1).  c = min(1, u0/2) with the window and
    c = 1 without: near alpha = 1/2, u0 is rounding dust, and a cut at
    u0/2 would leave the u^p singularity to the plain quadrature.

    The window needs alpha > 2/3: below, |psi(w)| grows like
    exp(x^(1/a) |cos(pi (1-a)/a)|) and the subtraction cancels
    catastrophically.

    Preconditions: 0 < alpha < 1, 0 < beta <= alpha + 1 (+slack), x > 0.
    """
    from scipy.integrate import quad

    ia = 1.0 / alpha
    # 1 + alpha - beta, exact when beta - alpha lies in [1/2, 2]
    delta = 1.0 - (beta - alpha)
    dp = delta * ia
    p = dp - 1.0
    th = math.pi * (1.0 - alpha)
    u0 = x * math.cos(th)
    h = x * math.sin(th)
    sb = _sinpi(beta)
    cb = math.cos(math.pi * beta)
    sba = _sinpi(beta - alpha)

    def den(u):
        d = u - u0
        return d * d + h * h

    def psi(u):
        return math.exp(-(u**ia)) * u**p / alpha

    def direct(u):
        return psi(u) * (u * sb + x * sba) / den(u)

    def near_zero(u):
        # (phi(u) - phi(0)) / u for phi = direct / u^p, without cancellation
        u = max(u, 1e-300)
        dn = den(u)
        ex = math.expm1(-(u**ia)) / u
        return (ex * (u * sb + x * sba) / dn + (x * sb + sba * (2.0 * u0 - u)) / (x * dn)) / alpha

    def _quad(f, lo, hi, **kw):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val, _err = quad(
                f, lo, hi, limit=C.INTEGRAL_LIMIT, epsabs=0.0, epsrel=C.INTEGRAL_EPSREL, **kw
            )
        return val

    pinched = alpha > C.INTEGRAL_PINCH_ALPHA
    u1 = 0.5 * u0
    u2 = 2.0 * u0
    c = min(1.0, u1) if pinched else 1.0
    total = _quad(near_zero, 0.0, c, weight="alg", wvar=(dp, 0.0))
    if pinched:
        if u1 > c:
            total += _quad(direct, c, u1)
        w = complex(u0, h)
        pw = cmath.exp(-(w**ia)) * w**p / alpha
        pr = pw.real
        pim = pw.imag

        def window(u):
            d = u - u0
            return ((psi(u) - pr) * (sb * d - cb * h) + pim * (sb * h + cb * d)) / den(u)

        total += _quad(window, u1, u2, points=[u0])
        lr = 0.5 * math.log(den(u2) / den(u1))
        li = math.pi - math.atan(h / (u2 - u0)) - math.atan(h / (u0 - u1))
        total += sb * (pr * lr - pim * li) - cb * (pr * li + pim * lr)
    elif u2 > c:
        total += _quad(direct, c, u2, points=[u0] if u0 > c else None)
    total += _quad(direct, max(c, u2), math.inf)

    # int_0^c u^p phi(0) du = sin(pi(b-a)) c^dp / (x delta), where
    # sin(pi(b-a)) = sin(pi delta) -> 0 with delta
    ratio = 1.0 if delta == 0.0 else sba / (math.pi * delta)
    return total / math.pi + ratio * c**dp / x


def _base(alpha, beta):
    """(b, m) with beta = b + m alpha and b <= alpha + 1.

    b is where the upward recurrence E_{a,b+a}(z) = (E_{a,b}(z) -
    1/Gamma(b)) / z starts; m = 0 when beta itself is in reach of the
    integral routes.
    """
    if beta <= alpha + 1.0 + 1e-12:
        return beta, 0
    m = math.ceil((beta - 1.0) / alpha - 1e-12)
    return beta - m * alpha, m


def _climb(alpha, b, m, x, v):
    """E_{alpha,b+m alpha}(-x) from v = E_{alpha,b}(-x); x a float or an array."""
    for _ in range(m):
        v = (v - reciprocal_gamma(b)) / -x
        b += alpha
    return v


def _integral(alpha, beta, x):
    """E_{alpha,beta}(-x) by the spectral integral, any beta > 0."""
    b, m = _base(alpha, beta)
    return _climb(alpha, b, m, x, _spectral(alpha, b, x))


def _contour(alpha, beta, x):
    """E_{alpha,beta}(-x) and its rounding bound at an array of x > 0.

    A trapezoid rule in u on the parabola s(u) = mu (1 + i u)^2 inverts
    s^(a-b) / (s^a + x) at t = 1 (Weideman & Trefethen, Math. Comp. 76
    (2007) 1341; Garrappa, SIAM J. Numer. Anal. 53 (2015) 1350); for
    0 < alpha < 1 there is no pole on the principal sheet.  The integrand
    is conjugate-symmetric in u, so the value is the compensated sum of
    the real parts of the terms F_k at u_k = k h, k >= 0, those past
    u = 0 counted twice, for all points at once.

    The bound is 2 eps sum_k |F_k| / |E|.  Against 40-digit terms at the
    same nodes, over alpha in [0.05, 0.9999], beta in (0, alpha + 1] and
    x in [0.25, 60], the terms carry at most 1.2 eps sum_k |F_k| of
    rounding, and the sum adds at most eps/2 |E|.  The bound covers
    rounding only.  The discretisation error comes from s^(a-b) at
    s = 0 (u = i) and grows with b - a: at alpha = 0.7, beta = 8 it is
    3e-2 while the bound reads 1e-11.  So the rule serves the base b of
    _base, and _climb takes it to beta; the base's absolute rounding
    bound shrinks by x^m on the way.
    """
    # mu = 1/2 puts the contour's crossing of the real axis at s = 1/2,
    # so |e^s| <= e^(1/2) on it and rounding is not amplified (the
    # N-scaled Weideman-Trefethen parabola reaches s = 0.13 N and
    # amplifies it by about e^(0.13 N)).  h = 0.15 keeps the branch point
    # u = i at 2 pi / h = 42 e-folds of discretisation error, and the
    # nodes end at u = 9.9, where |e^s| = e^(mu (1 - u^2)) < 1e-21.
    mu, h, n = 0.5, 0.15, 67
    b, m = _base(alpha, beta)
    u = h * np.arange(n)
    s = mu * (1.0 + 1j * u) ** 2
    log_s = np.log(s)
    # h e^s s^(a-b) s'(u) / (2 pi i), with s'(u) = 2 i mu (1 + i u)
    c = (h * mu / math.pi) * np.exp(s + (alpha - b) * log_s) * (1.0 + 1j * u)
    c[1:] *= 2.0
    q = np.exp(alpha * log_s)
    # F_k = c_k / (q_k + x), in real arithmetic
    d = q.real[:, None] + x
    den = d * d + (q.imag**2)[:, None]
    base = _compensated_sum((c.real[:, None] * d + (c.imag * q.imag)[:, None]) / den)
    spread = 2.0 * np.finfo(float).eps * _compensated_sum(np.abs(c)[:, None] / np.sqrt(den))
    v = _climb(alpha, b, m, x, base)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return v, spread / (np.abs(v) * x**m)


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
    if alpha == 1.0:
        band = (ax <= C.ALPHA_ONE_SERIES_ABS_Z) | ((z > 0.0) & (z <= C.ALPHA_ONE_ASYM_ABS_Z))
        digits_cap = math.inf
    else:
        with np.errstate(over="ignore"):
            predicted = _LOG10E * ax ** (1.0 / alpha)
        band = predicted <= np.where(
            z < 0.0, C.SERIES_PREDICTED_DIGITS_CAP, C.POSITIVE_SERIES_DIGITS_CAP
        )
        digits_cap = C.SERIES_REALISED_DIGITS_CAP

    idx = np.flatnonzero(band & left)
    if idx.size:
        v, converged, digits = _series_batch(alpha, beta, z[idx])
        ok = converged & ((z[idx] > 0.0) | (digits <= digits_cap))
        idx = idx[ok]
        val[idx] = v[ok]
        code[idx] = _SERIES
        left[idx] = False

    grow = left & (z > 0.0)
    if grow.any():
        zg = z[grow]
        with np.errstate(over="ignore"):
            arg = zg ** (1.0 / alpha) + (1.0 - beta) / alpha * np.log(zg)
            val[grow] = np.where(arg > C.EXP_ARG_MAX, np.inf, np.exp(arg) / alpha)
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
        ok = rel <= C.ASYM_ACCEPT_REL
        idx = idx[ok]
        val[idx] = v[ok]
        code[idx] = _ASYMPTOTIC
        left[idx] = False
    idx = np.flatnonzero(left)
    code[idx] = _INTEGRAL
    if idx.size:
        v, bound = _contour(alpha, beta, ax[idx])
        slow = ~(bound <= C.INTEGRAL_EPSREL)
        v[slow] = [_integral(alpha, beta, float(x)) for x in ax[idx[slow]]]
        val[idx] = v
    return val, code


def eval_ml(q: MLQuery) -> float:
    """Value of E_{alpha,beta}(z)."""
    return float(_evaluate(q.alpha, q.beta, np.array([q.z]))[0][0])


def eval_ml_info(q: MLQuery) -> tuple[float, str]:
    """Value together with the label of the regime that produced it.

    The labels are "series", "asymptotic", "integral" and
    "closed-form" (z = 0, exp(z) at alpha = beta = 1, and the Kummer
    transform at alpha = 1).
    """
    val, code = _evaluate(q.alpha, q.beta, np.array([q.z]))
    return float(val[0]), _REGIME_LABELS[code[0]]


def eval_ml_many(alpha: float, beta: float, z) -> np.ndarray:
    """E_{alpha,beta} over an array of real arguments, in the shape of z.

    eval_ml and eval_ml_info are this evaluator on one point.

    Each regime serves all of its points at once:

    * z = 0: 1/Gamma(beta); at alpha = beta = 1, exp(z) everywhere;
    * the series band, one table sweep: |z| <= ALPHA_ONE_SERIES_ABS_Z
      and growth up to ALPHA_ONE_ASYM_ABS_Z at alpha = 1, otherwise
      while the predicted cancellation (or, for z > 0, growth) stays
      within its digit cap.  A point leaves it only when its sum did
      not converge or, for z < 0 and alpha < 1, cancelled past
      SERIES_REALISED_DIGITS_CAP;
    * z > 0 beyond: the exponential asymptotic form;
    * alpha = 1, z < 0 beyond: the Kummer sweep down to
      -ALPHA_ONE_ASYM_ABS_Z, the batched asymptotic expansion below;
    * alpha < 1, z <= -ASYM_MIN_ABS_Z: the batched asymptotic
      expansion, kept where its truncation estimate is within
      ASYM_ACCEPT_REL;
    * the rest: the contour rule, one (nodes x points) table for the
      whole batch, directly for 0 < beta <= alpha + 1 and by upward
      recurrence from it above.  A point whose rounding bound
      2 eps sum_k |F_k| / |E| exceeds INTEGRAL_EPSREL takes the spectral
      integral by adaptive quadrature, one point at a time.

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
    x = float(x)
    if x < 0.0:
        raise ParameterOutOfRangeError(f"weighted kernel needs x >= 0, got {x:g}")
    if x == 0.0:
        if abs(p.gamma_w - 1.0) <= 1e-12:
            return reciprocal_gamma(p.beta)
        if p.gamma_w > 1.0:
            return 0.0
        raise EvaluationAtZeroUndefinedError(
            f"x^(gamma_w-1) diverges at 0 for gamma_w = {p.gamma_w:g}"
        )
    e = _evaluate(p.alpha, p.beta, np.array([-p.lam * x**p.alpha]))[0][0]
    return x ** (p.gamma_w - 1.0) * float(e)


def eval_weighted_many(p: CMWeightedParams, x) -> np.ndarray:
    """Vectorised eval_weighted over x >= 0; zeros take eval_weighted's limit."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0):
        raise ParameterOutOfRangeError("batched weighted kernel needs x >= 0")
    zero = x == 0.0
    if zero.any():
        out = np.full(x.shape, eval_weighted(p, 0.0))
        if not zero.all():
            out[~zero] = eval_weighted_many(p, x[~zero])
        return out
    e = eval_ml_many(p.alpha, p.beta, -p.lam * x**p.alpha)
    return x ** (p.gamma_w - 1.0) * e
