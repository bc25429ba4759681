"""Two-parameter Mittag-Leffler function on the real line.

E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha k + beta) for
0 < alpha <= 1, beta > 0.  The evaluator targets relative error 1e-10
for real z with |z| <= 1e5 and alpha >= 0.05, switching between three
regimes on the negative axis:

* power series with compensated (Neumaier) summation while predicted
  cancellation stays within a ~5 digit budget,
* algebraic asymptotic expansion, truncated at its smallest term, once
  |z| is large and the truncation estimate clears 1e-13,
* otherwise a real integral representation

      E_{a,b}(-x) = (1/pi) * int_0^inf exp(-r) r^(a-b)
                    * [r^a sin(pi b) + x sin(pi (b-a))]
                    / (r^(2a) + 2 x r^a cos(pi a) + x^2) dr

  valid for 0 < a < 1, 0 < b <= a + 1, x > 0; larger beta is reached by
  the upward recurrence E_{a,b+a}(z) = (E_{a,b}(z) - 1/Gamma(b)) / z.

alpha = 1 uses exact exponential forms.  Positive arguments are
supported through the series and the exponential asymptotic
E ~ (1/alpha) z^((1-beta)/alpha) exp(z^(1/alpha)); values overflow to
inf where the true result exceeds the double range.

Also here: the weighted kernel h(x) = x^(gamma_w - 1) E_{alpha,beta}
(-lam x^alpha) and the parameter test for its complete monotonicity
(0 < alpha <= 1, alpha <= beta, 0 < gamma_w <= 1, lam > 0).
"""

from __future__ import annotations

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

    Returns (value, converged, realised cancellation digits).
    """
    s = 0.0
    c = 0.0
    p = 1.0
    maxt = 0.0
    converged = False
    for k in range(C.SERIES_MAX_TERMS):
        t = p * reciprocal_gamma(alpha * k + beta)
        s, c = _neumaier_add(s, c, t)
        at = abs(t)
        if at > maxt:
            maxt = at
        if k >= 1 and at <= C.SERIES_TAIL_REL * (maxt if maxt > 0.0 else 1.0):
            converged = True
            break
        p *= z
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


def _integral_core(alpha, beta, x):
    """Adaptive quadrature of the spectral representation.

    Preconditions: 0 < alpha < 1, 0 < beta <= alpha + 1 (+slack), x > 0.
    Writing D(r) = r^2a + 2 x r^a cos(pi a) + x^2 and
    J(e) = int_0^inf r^e exp(-r)/D dr, the value is

        E = [sin(pi b) J(2a-b) + x sin(pi(b-a)) J(a-b)] / pi.

    J(e) is singular as e -> -1; for delta = e + 1 below 0.35 it is
    computed in the subtracted form

        J(e) = g(0)/delta + int_0^1 r^(delta-1) (g(r)-g(0)) dr
                           + int_1^inf r^(delta-1) g(r) dr,

    g(r) = exp(-r)/D(r), which stays finite as delta -> 0 because the
    sin factor in front vanishes at the same rate (their ratio tends to
    pi; the limit reproduces the Hankel-circle residue that the plain
    collapsed contour loses exactly at b = a + 1).
    """
    from scipy.integrate import quad

    ca = math.cos(math.pi * alpha)
    x2 = x * x
    twoxc = 2.0 * x * ca
    g0 = 1.0 / x2

    def g(r):
        ra = r**alpha
        return math.exp(-r) / (ra * ra + twoxc * ra + x2)

    r0 = None
    radius = C.INTEGRAL_BASE_RADIUS
    if ca < 0.0:
        # denominator can pinch near r = x^(1/alpha)
        try:
            r_peak = x ** (1.0 / alpha)
        except OverflowError:
            r_peak = math.inf
        if r_peak < 80.0:
            r0 = r_peak
            radius = max(radius, r_peak + 35.0)

    def _quad(f, lo, hi, pts):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val, _err = quad(
                f,
                lo,
                hi,
                points=pts,
                limit=C.INTEGRAL_LIMIT,
                epsabs=0.0,
                epsrel=C.INTEGRAL_EPSREL,
            )
        return val

    def J_direct(e):
        # delta = e + 1 >= 0.35 here, so the substitution power is <= 8
        q = 1 if e >= 0.0 else math.ceil(2.5 / (1.0 + e))
        qf = float(q)

        def f(v):
            r = v**qf
            return qf * v ** (qf * (1.0 + e) - 1.0) * g(r)

        pts = None
        if r0 is not None and r0 < radius:
            pts = [r0 ** (1.0 / qf)]
        return _quad(f, 0.0, radius ** (1.0 / qf), pts)

    def J_split(delta):
        # returns (pole, regular) with J = pole/delta + regular
        q = max(1, min(60, math.ceil(2.5 / (delta + alpha))))
        qf = float(q)

        def f_inner(v):
            r = v**qf
            return qf * v ** (qf * delta - 1.0) * (g(r) - g0)

        pts_in = [r0 ** (1.0 / qf)] if (r0 is not None and r0 < 1.0) else None
        inner = _quad(f_inner, 0.0, 1.0, pts_in)

        def f_tail(r):
            return r ** (delta - 1.0) * g(r)

        pts_tail = [r0] if (r0 is not None and 1.0 < r0 < radius) else None
        tail = _quad(f_tail, 1.0, radius, pts_tail)
        return g0, inner + tail

    total = 0.0

    # piece with weight r^(2a-b), coefficient sin(pi b)
    sb = _sinpi(beta)
    if sb != 0.0:
        d2 = 1.0 + 2.0 * alpha - beta
        if d2 >= 0.35:
            total += sb * J_direct(2.0 * alpha - beta)
        else:
            pole, reg = J_split(d2)
            total += sb * (pole / d2 + reg)

    # piece with weight r^(a-b), coefficient x sin(pi(b-a)); near
    # b = a + 1 the 1/delta pole cancels against sin(pi delta)
    d1 = 1.0 + alpha - beta
    if d1 >= 0.35:
        sba = _sinpi(beta - alpha)
        if sba != 0.0:
            total += x * sba * J_direct(alpha - beta)
    else:
        pole, reg = J_split(d1)
        s1 = math.sin(math.pi * d1)
        ratio = math.pi if abs(d1) < 1e-8 else s1 / d1
        total += x * (ratio * pole + s1 * reg)

    return total / math.pi


def _integral(alpha, beta, x):
    """E_{alpha,beta}(-x) by the integral route, any beta > 0."""
    if beta <= alpha + 1.0 + 1e-12:
        return _integral_core(alpha, beta, x)
    m = math.ceil((beta - 1.0) / alpha - 1e-12)
    b = beta - m * alpha
    v = _integral_core(alpha, b, x)
    z = -x
    for _ in range(m):
        v = (v - reciprocal_gamma(b)) / z
        b += alpha
    return v


def _alpha_one(beta, z):
    """Exact exponential family E_{1,beta}."""
    if beta == 1.0:
        try:
            return math.exp(z), "closed-form"
        except OverflowError:
            return math.inf, "closed-form"
    if abs(z) <= C.ALPHA_ONE_SERIES_ABS_Z:
        v, okc, _ = _series(1.0, beta, z)
        return v, "series"
    if float(beta).is_integer() and beta <= 20.0:
        m = int(beta)
        # E_{1,m}(z) = z^(1-m) (e^z - sum_{j<=m-2} z^j/j!)
        partial = math.fsum(z**j / math.gamma(j + 1.0) for j in range(m - 1))
        try:
            ez = math.exp(z)
        except OverflowError:
            ez = math.inf
        return (ez - partial) * z ** (1 - m), "closed-form"
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

def _series_batch(alpha, beta, z):
    """Vector series for entries known to fit the cancellation budget.

    Returns (values, realised digits) arrays.
    """
    z = np.asarray(z, dtype=float)
    s = np.zeros_like(z)
    c = np.zeros_like(z)
    p = np.ones_like(z)
    maxt = np.zeros_like(z)
    alive = np.ones(z.shape, dtype=bool)
    for k in range(C.SERIES_MAX_TERMS):
        rg = reciprocal_gamma(alpha * k + beta)
        t = p * rg
        # Neumaier step, vectorised
        u = s + t
        big = np.abs(s) >= np.abs(t)
        c = np.where(big, c + ((s - u) + t), c + ((t - u) + s))
        s = u
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
        p = p * z
    total = s + c
    with np.errstate(divide="ignore", invalid="ignore"):
        digits = np.where(
            (maxt > 0.0) & (total != 0.0),
            np.log10(np.maximum(maxt / np.maximum(np.abs(total), 1e-300), 1.0)),
            np.where(maxt > 0.0, np.inf, 0.0),
        )
    return total, digits


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

    Same regime logic and accuracy target as eval_ml; points in the
    series band run as one vectorised sweep, large no-pinch batches of
    integral-band points share a fixed quadrature rule, everything else
    loops over the scalar evaluator.
    """
    MLQuery(alpha, beta, 0.0)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(np.isfinite(z)):
        raise ParameterOutOfRangeError("z values must be finite")
    out = np.empty_like(z)
    out[:] = np.nan

    if alpha == 1.0:
        for i, zi in enumerate(z):
            out[i] = _eval(alpha, beta, zi)[0]
        return out

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

    if np.any(leftover):
        idx = np.flatnonzero(leftover)
        remaining = []
        for i in idx:
            zi = z[i]
            if zi > 0.0:
                out[i] = _eval(alpha, beta, zi)[0]
                continue
            if -zi >= C.ASYM_MIN_ABS_Z:
                v, rel = _asymptotic(alpha, beta, zi)
                if rel <= C.ASYM_ACCEPT_REL:
                    out[i] = v
                    continue
            remaining.append(i)
        if len(remaining) >= C.BATCH_QUAD_MIN_POINTS:
            ridx = np.asarray(remaining)
            out[ridx] = _integral_cheb(alpha, beta, -z[ridx])
        else:
            for i in remaining:
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
