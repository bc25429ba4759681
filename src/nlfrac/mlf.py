"""Two-parameter Mittag-Leffler function on the real line.

E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha k + beta) for
0 < alpha <= 1, beta > 0.  The evaluator targets relative error 1e-10
for real z with |z| <= 1e5 and alpha >= 0.05, switching between three
regimes on the negative axis:

* power series with compensated (Neumaier) summation while predicted
  cancellation stays within a ~5 digit budget,
* algebraic asymptotic expansion, truncated at its smallest term, once
  |z| is large and the truncation estimate clears 1e-13,
* otherwise a real spectral integral, written in u = r^alpha,

      E_{a,b}(-x) = (1/(pi a)) * int_0^inf exp(-u^(1/a)) u^((1-b)/a)
                    * [u sin(pi b) + x sin(pi (b-a))]
                    / ((u - u0)^2 + h^2) du,
      u0 + i h = x e^{i pi (1-a)},

  valid for 0 < a < 1, 0 < b <= a + 1, x > 0.  The denominator peaks at
  u0 with width h; above INTEGRAL_PINCH_ALPHA that peak is too narrow
  for adaptive quadrature, and the complex pole is subtracted on a
  window around u0 and added back in closed form.  Larger beta is
  reached by the upward recurrence
  E_{a,b+a}(z) = (E_{a,b}(z) - 1/Gamma(b)) / z.

alpha = 1 uses exp(z) at beta = 1, otherwise the series, its Kummer
transform on the negative axis and the asymptotic forms.  Positive
arguments are supported through the series and the exponential
asymptotic E ~ (1/alpha) z^((1-beta)/alpha) exp(z^(1/alpha)); values
overflow to inf where the true result exceeds the double range.

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

from . import mlconstants as C
from .errors import EvaluationAtZeroUndefinedError, NonConvergenceError, ParameterOutOfRangeError

__all__ = [
    "MLQuery",
    "CMWeightedParams",
    "gamma_fn",
    "reciprocal_gamma",
    "eval_ml",
    "eval_ml_info",
    "eval_ml_many",
    "eval_ml_asymptotic_leading",
    "eval_weighted",
    "is_cm_params",
]

_LOG10E = 0.4342944819032518


def gamma_fn(x: float) -> float:
    """Gamma function; raises ParameterOutOfRangeError at the poles.

    Overflow (x > ~171.6) returns inf with the sign of the limit.
    """
    x = float(x)
    if math.isnan(x):
        raise ParameterOutOfRangeError("gamma_fn: argument is NaN")
    if x <= 0.0 and x == math.floor(x):
        raise ParameterOutOfRangeError(
            f"gamma_fn: pole at nonpositive integer {x:g}"
        )
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


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
# scalar evaluation

def _neumaier_add(s, c, t):
    u = s + t
    if abs(s) >= abs(t):
        c += (s - u) + t
    else:
        c += (t - u) + s
    return u, c


def _series(alpha, beta, z):
    """Defining series with compensated summation.

    Returns (value, converged, realised cancellation digits).  At
    alpha = 1 the term itself is carried by the ratio
    t_{k+1} = t_k z / (beta + k): z^k alone overflows near k = 134 at
    z = 200, long before the terms peak at k ~ z.
    """
    ratio = alpha == 1.0
    s = 0.0
    c = 0.0
    p = reciprocal_gamma(beta) if ratio else 1.0
    maxt = 0.0
    converged = False
    for k in range(C.SERIES_MAX_TERMS):
        t = p if ratio else p * reciprocal_gamma(alpha * k + beta)
        s, c = _neumaier_add(s, c, t)
        at = abs(t)
        if at > maxt:
            maxt = at
        if k >= 1 and at <= C.SERIES_TAIL_REL * (maxt if maxt > 0.0 else 1.0):
            converged = True
            break
        p = p * z / (beta + k) if ratio else p * z
        if not math.isfinite(p):
            break
    total = s + c
    if maxt == 0.0 or total == 0.0:
        digits = 0.0 if maxt == 0.0 else math.inf
    else:
        digits = max(0.0, math.log10(maxt / abs(total)))
    return total, converged, digits


def _asymptotic(alpha, beta, z):
    """Algebraic expansion -sum_{j>=1} z^-j / Gamma(beta - j alpha).

    Truncated where the two-term envelope max(|t_j|, |t_j+1|) is
    smallest; returns (value, estimated relative truncation error).
    Individual |t_j| are useless for locating the optimal cut: whenever
    beta - j alpha falls within rounding distance of a Gamma pole the
    term dips to ~1e-20 of its neighbours, and treating that dip as
    convergence silently drops the rest of the tail.
    """
    zi = 1.0 / z
    p = 1.0
    terms = []
    for j in range(1, C.ASYM_MAX_TERMS + 1):
        p *= zi
        if p == 0.0 or not math.isfinite(p):
            break
        t = -p * reciprocal_gamma(beta - j * alpha)
        if not math.isfinite(t):
            break
        terms.append(t)
    if not terms:
        return 0.0, math.inf
    mags = [abs(t) for t in terms]
    if len(mags) == 1:
        env = [mags[0]]
    else:
        env = [max(mags[i], mags[i + 1]) for i in range(len(mags) - 1)]
    cut = min(range(len(env)), key=env.__getitem__)
    s = 0.0
    c = 0.0
    for t in terms[: cut + 1]:
        s, c = _neumaier_add(s, c, t)
    total = s + c
    if total == 0.0:
        return 0.0, math.inf
    return total, env[cut] / abs(total)


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


def _integral(alpha, beta, x):
    """E_{alpha,beta}(-x) by the integral route, any beta > 0."""
    if beta <= alpha + 1.0 + 1e-12:
        return _spectral(alpha, beta, x)
    m = math.ceil((beta - 1.0) / alpha - 1e-12)
    b = beta - m * alpha
    v = _spectral(alpha, b, x)
    z = -x
    for _ in range(m):
        v = (v - reciprocal_gamma(b)) / z
        b += alpha
    return v


def _alpha_one(beta, z):
    """E_{1,beta}(z) = 1F1(1; beta; z) / Gamma(beta), exp(z) at beta = 1."""
    if beta == 1.0:
        try:
            return math.exp(z), "closed-form"
        except OverflowError:
            return math.inf, "closed-form"
    if abs(z) <= C.ALPHA_ONE_SERIES_ABS_Z:
        v, okc, _ = _series(1.0, beta, z)
        return v, "series"
    if z > 0.0:
        if z <= C.ALPHA_ONE_ASYM_ABS_Z:
            v, okc, _ = _series(1.0, beta, z)
            return v, "series"
        arg = z + (1.0 - beta) * math.log(z)
        v = math.inf if arg > C.EXP_ARG_MAX else math.exp(arg)
        return v, "asymptotic"
    x = -z
    if x <= C.ALPHA_ONE_ASYM_ABS_Z:
        # Kummer transform: E_{1,b}(-x) = e^-x [1 + (b-1) S] / Gamma(b),
        # S = sum_{k>=1} x^k / ((b+k-1) k!), all terms one sign
        s = 0.0
        c = 0.0
        term = 1.0
        for k in range(1, 800):
            term *= x / k
            t = term / (beta + k - 1.0)
            s, c = _neumaier_add(s, c, t)
            if t < 1e-18 * (s if s > 0.0 else 1.0) and term < 1e-18 * max(1.0, s):
                break
        g = 1.0 + (beta - 1.0) * (s + c)
        return math.exp(-x) * g * reciprocal_gamma(beta), "closed-form"
    v, rel = _asymptotic(1.0, beta, z)
    return v, "asymptotic"


def _eval(alpha, beta, z):
    """Dispatch one evaluation; returns (value, regime label)."""
    if z == 0.0:
        return reciprocal_gamma(beta), "closed-form"
    if alpha == 1.0:
        return _alpha_one(beta, z)
    if z > 0.0:
        try:
            growth = _LOG10E * z ** (1.0 / alpha)
        except OverflowError:
            growth = math.inf
        if growth <= C.POSITIVE_SERIES_DIGITS_CAP:
            v, okc, _ = _series(alpha, beta, z)
            if okc:
                return v, "series"
        try:
            arg = z ** (1.0 / alpha) + (1.0 - beta) / alpha * math.log(z)
        except OverflowError:
            arg = math.inf
        v = math.inf if arg > C.EXP_ARG_MAX else math.exp(arg) / alpha
        return v, "asymptotic"
    ax = -z
    try:
        predicted = _LOG10E * ax ** (1.0 / alpha)
    except OverflowError:
        predicted = math.inf
    if predicted <= C.SERIES_PREDICTED_DIGITS_CAP:
        v, okc, digits = _series(alpha, beta, z)
        if okc and digits <= C.SERIES_REALISED_DIGITS_CAP:
            return v, "series"
    if ax >= C.ASYM_MIN_ABS_Z:
        v, rel = _asymptotic(alpha, beta, z)
        if rel <= C.ASYM_ACCEPT_REL:
            return v, "asymptotic"
    return _integral(alpha, beta, ax), "integral"


def eval_ml(q: MLQuery) -> float:
    """Value of E_{alpha,beta}(z)."""
    return _eval(q.alpha, q.beta, q.z)[0]


def eval_ml_info(q: MLQuery) -> tuple[float, str]:
    """Value together with the regime label that produced it."""
    return _eval(q.alpha, q.beta, q.z)


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
# batched evaluation

def _neumaier_batch(s, c, t):
    """One compensated step on arrays; the same arithmetic as _neumaier_add."""
    u = s + t
    c = np.where(np.abs(s) >= np.abs(t), c + ((s - u) + t), c + ((t - u) + s))
    return u, c


def _series_batch(alpha, beta, z):
    """Vector series for entries known to fit the cancellation budget.

    Returns (values, realised digits) arrays.
    """
    z = np.asarray(z, dtype=float)
    ratio = alpha == 1.0
    s = np.zeros_like(z)
    c = np.zeros_like(z)
    p = np.full_like(z, reciprocal_gamma(beta)) if ratio else np.ones_like(z)
    maxt = np.zeros_like(z)
    alive = np.ones(z.shape, dtype=bool)
    for k in range(C.SERIES_MAX_TERMS):
        t = p if ratio else p * reciprocal_gamma(alpha * k + beta)
        s, c = _neumaier_batch(s, c, t)
        at = np.abs(t)
        np.maximum(maxt, at, out=maxt)
        if k >= 1:
            done = at <= C.SERIES_TAIL_REL * np.where(maxt > 0.0, maxt, 1.0)
            newly = done & alive
            if np.any(newly):
                p = np.where(newly, 0.0, p)
                alive &= ~newly
            if not np.any(alive):
                break
        p = p * z / (beta + k) if ratio else p * z
    total = s + c
    with np.errstate(divide="ignore", invalid="ignore"):
        digits = np.where(
            (maxt > 0.0) & (total != 0.0),
            np.log10(np.maximum(maxt / np.maximum(np.abs(total), 1e-300), 1.0)),
            np.where(maxt > 0.0, np.inf, 0.0),
        )
    return total, digits


def _asymptotic_batch(alpha, beta, z):
    """_asymptotic over an array of z, equal to it bit for bit.

    The coefficients -1/Gamma(beta - j alpha) are formed once, and the
    terms of all points are built row by row in a (terms x points)
    table.  Each point keeps the scalar's stopping rules (p == 0,
    non-finite p or term), its two-term envelope cut and its Neumaier
    sum.  Returns (values, estimated relative truncation errors).
    """
    z = np.asarray(z, dtype=float)
    nterms = C.ASYM_MAX_TERMS
    coef = np.array([-reciprocal_gamma(beta - j * alpha) for j in range(1, nterms + 1)])
    terms = np.zeros((nterms, z.size))
    count = np.full(z.shape, nterms)
    alive = np.ones(z.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        zi = 1.0 / z
        p = np.ones_like(z)
        for j in range(nterms):
            p = p * zi
            t = p * coef[j]
            stop = alive & ((p == 0.0) | ~np.isfinite(p) | ~np.isfinite(t))
            if stop.any():
                count[stop] = j
                alive &= ~stop
                if not alive.any():
                    break
            terms[j] = t
        mags = np.abs(terms)
        mags[np.arange(nterms)[:, None] >= count] = np.inf
        env = np.maximum(mags[:-1], mags[1:])
        # with a single term, the envelope is that term alone
        env[0] = np.where(count == 1, mags[0], env[0])
        cut = np.argmin(env, axis=0)
        env_cut = env[cut, np.arange(z.size)]
        s = np.zeros_like(z)
        c = np.zeros_like(z)
        for j in range(int(cut.max(initial=0)) + 1):
            u, cu = _neumaier_batch(s, c, terms[j])
            take = j <= cut
            s = np.where(take, u, s)
            c = np.where(take, cu, c)
        total = s + c
        empty = (count == 0) | (total == 0.0)
        vals = np.where(empty, 0.0, total)
        rel = np.where(empty, np.inf, env_cut / np.abs(total))
    return vals, rel


def _kummer_batch(beta, x):
    """E_{1,beta}(-x) for x in (ALPHA_ONE_SERIES_ABS_Z, ALPHA_ONE_ASYM_ABS_Z].

    The Kummer sum of _alpha_one, swept over all points at once.  A
    point leaves the sweep at the term where the scalar loop breaks, so
    its sum is the scalar's.
    """
    x = np.asarray(x, dtype=float)
    sums = np.empty_like(x)
    idx = np.arange(x.size)
    xs = x
    s = np.zeros_like(x)
    c = np.zeros_like(x)
    term = np.ones_like(x)
    for k in range(1, 800):
        term = term * (xs / k)
        t = term / (beta + k - 1.0)
        s, c = _neumaier_batch(s, c, t)
        # every term is positive, so s > 0 and the scalar's guard for s = 0 never fires
        done = (t < 1e-18 * s) & (term < 1e-18 * np.maximum(1.0, s))
        if done.any():
            sums[idx[done]] = s[done] + c[done]
            keep = ~done
            idx, xs, s, c, term = idx[keep], xs[keep], s[keep], c[keep], term[keep]
            if idx.size == 0:
                break
    sums[idx] = s + c
    g = 1.0 + (beta - 1.0) * sums
    return np.exp(-x) * g * reciprocal_gamma(beta)


def _alpha_one_batch(beta, z):
    """_alpha_one over an array of z, branch by branch.

    Values can differ from the scalar route in the last few bits:
    np.exp and np.log replace math.exp and math.log.  The series and
    Kummer sums are the scalar's.
    """
    z = np.asarray(z, dtype=float)
    if beta == 1.0:
        with np.errstate(over="ignore"):
            return np.exp(z)
    out = np.empty_like(z)
    small = np.abs(z) <= C.ALPHA_ONE_SERIES_ABS_Z
    if small.any():
        out[small] = _series_batch(1.0, beta, z[small])[0]
    big = ~small
    grow = big & (z > 0.0) & (z <= C.ALPHA_ONE_ASYM_ABS_Z)
    if grow.any():
        out[grow] = _series_batch(1.0, beta, z[grow])[0]
    huge = big & (z > C.ALPHA_ONE_ASYM_ABS_Z)
    if huge.any():
        zh = z[huge]
        arg = zh + (1.0 - beta) * np.log(zh)
        with np.errstate(over="ignore"):
            out[huge] = np.where(arg > C.EXP_ARG_MAX, np.inf, np.exp(arg))
    kummer = big & (z < 0.0) & (z >= -C.ALPHA_ONE_ASYM_ABS_Z)
    if kummer.any():
        out[kummer] = _kummer_batch(beta, -z[kummer])
    far = z < -C.ALPHA_ONE_ASYM_ABS_Z
    if far.any():
        out[far] = _asymptotic_batch(1.0, beta, z[far])[0]
    return out


def _integral_cheb(alpha, beta, xs):
    """Integral-regime values for many positive x via interpolation.

    E_{alpha,beta}(-e^t) is analytic in t on a strip around the real
    axis, so a Chebyshev interpolant in t = log x built from a few dozen
    scalar quadratures covers an arbitrary batch.  The degree doubles
    until spot checks against the scalar route agree to 2e-11 relative;
    if that never happens every point falls back to the scalar loop.
    """
    xs = np.asarray(xs, dtype=float)
    t = np.log(xs)
    lo = float(t.min())
    hi = float(t.max())
    if hi - lo < 1e-9:
        return np.full_like(xs, _integral(alpha, beta, float(np.exp(0.5 * (lo + hi)))))
    span = hi - lo
    # a couple of digits per node once past the asymptotic-smoothness
    # scale; start generously for wide spans
    n = max(33, min(129, 2 * int(span) + 33))
    while n <= C.CHEB_MAX_NODES:
        k = np.arange(n)
        tn = 0.5 * (lo + hi) + 0.5 * span * np.cos(np.pi * k / (n - 1))
        vals = np.array([_integral(alpha, beta, math.exp(tt)) for tt in tn])
        poly = np.polynomial.Chebyshev.fit(tn, vals, deg=n - 1, domain=[lo, hi])
        probes = 0.5 * (lo + hi) + 0.5 * span * np.cos(
            np.pi * (np.array([0.5, 7.5, 19.5, n - 1.5]) / (n - 1))
        )
        scale = float(np.max(np.abs(vals)))
        err = max(
            abs(poly(tp) - _integral(alpha, beta, math.exp(tp))) for tp in probes
        )
        if err <= C.CHEB_ACCEPT_REL * max(scale, 1e-290):
            return poly(t)
        n = 2 * n - 1
    return np.array([_integral(alpha, beta, float(x)) for x in xs])


def eval_ml_many(alpha: float, beta: float, z) -> np.ndarray:
    """E_{alpha,beta} over an array of real arguments.

    Same regime logic and accuracy target as eval_ml, with each regime
    served for all of its points at once:

    * alpha = 1: the exact exponential forms of _alpha_one, branch by
      branch (np.exp at beta = 1, the series sweep for |z| <= 7 and for
      growth up to 600, a masked Kummer sweep on [-600, -7) and the
      batched asymptotic below it);
    * the series band: one vectorised sweep, the same sums as the scalar
      series;
    * negative points left over with |z| >= ASYM_MIN_ABS_Z: the batched
      asymptotic expansion, equal to the scalar one bit for bit;
    * what it does not accept: a Chebyshev interpolant in log|z| when
      at least BATCH_QUAD_MIN_POINTS points remain, otherwise scalar
      quadrature per point;
    * positive points beyond the series band: the scalar evaluator.
    """
    MLQuery(alpha, beta, 0.0)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(np.isfinite(z)):
        raise ParameterOutOfRangeError("z values must be finite")
    if alpha == 1.0:
        return _alpha_one_batch(beta, z)

    out = np.full_like(z, np.nan)
    ax = np.abs(z)
    with np.errstate(over="ignore"):
        predicted = _LOG10E * ax ** (1.0 / alpha)
    neg = z < 0.0
    pos = z > 0.0
    zero = z == 0.0
    out[zero] = reciprocal_gamma(beta)

    series_mask = (neg & (predicted <= C.SERIES_PREDICTED_DIGITS_CAP)) | (
        pos & (predicted <= C.POSITIVE_SERIES_DIGITS_CAP)
    )
    leftover = ~series_mask & ~zero
    if np.any(series_mask):
        vals, digits = _series_batch(alpha, beta, z[series_mask])
        ok = np.isfinite(vals) & (
            (z[series_mask] > 0.0) | (digits <= C.SERIES_REALISED_DIGITS_CAP)
        )
        idx = np.flatnonzero(series_mask)
        out[idx[ok]] = vals[ok]
        leftover[idx[~ok]] = True

    for i in np.flatnonzero(leftover & pos):
        out[i] = _eval(alpha, beta, z[i])[0]
    remaining = leftover & neg
    asym = remaining & (ax >= C.ASYM_MIN_ABS_Z)
    if np.any(asym):
        idx = np.flatnonzero(asym)
        vals, rel = _asymptotic_batch(alpha, beta, z[idx])
        ok = rel <= C.ASYM_ACCEPT_REL
        out[idx[ok]] = vals[ok]
        remaining[idx[ok]] = False
    ridx = np.flatnonzero(remaining)
    if ridx.size >= C.BATCH_QUAD_MIN_POINTS:
        out[ridx] = _integral_cheb(alpha, beta, -z[ridx])
    else:
        for i in ridx:
            out[i] = _integral(alpha, beta, -z[i])
    return out


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
    e = _eval(p.alpha, p.beta, -p.lam * x**p.alpha)[0]
    return x ** (p.gamma_w - 1.0) * e


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
