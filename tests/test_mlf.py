"""Mittag-Leffler evaluation against independent oracles.

The reference values come from three places that do not share code with
the implementation: the scaled complementary error function from scipy,
closed forms at integer first parameter, and a high precision mpmath
series summed where its convergence is certain.
"""

import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfcx

from nlfrac import (
    CMWeightedParams,
    EvaluationAtZeroUndefinedError,
    MLQuery,
    ParameterOutOfRangeError,
    eval_ml,
    eval_ml_asymptotic_leading,
    eval_ml_info,
    eval_ml_many,
    eval_weighted,
    eval_weighted_many,
    is_cm_params,
    reciprocal_gamma,
)
from nlfrac import mlconstants, mlf


def test_reciprocal_gamma_values_and_poles():
    assert reciprocal_gamma(1.0) == pytest.approx(1.0, rel=1e-15, abs=0.0)
    assert reciprocal_gamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14, abs=0.0)
    assert reciprocal_gamma(4.0) == pytest.approx(1.0 / 6.0, rel=1e-14, abs=0.0)
    # poles of Gamma are zeros here, no special casing needed upstream
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-1.0) == 0.0
    assert reciprocal_gamma(-2.0) == 0.0
    assert reciprocal_gamma(-0.5) == pytest.approx(1.0 / math.gamma(-0.5), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("x", [math.nan, -math.inf])
def test_reciprocal_gamma_rejects_nan_and_minus_infinity(x):
    with pytest.raises(ParameterOutOfRangeError):
        reciprocal_gamma(x)


def test_half_order_matches_erfcx():
    xs = np.linspace(0.0, 10.0, 200)
    worst = 0.0
    for x in xs:
        got = eval_ml(MLQuery(0.5, 1.0, -float(x)))
        want = float(erfcx(x))
        worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-10


def test_integer_order_closed_forms():
    zs = np.linspace(-30.0, 5.0, 71)
    for z in zs:
        z = float(z)
        assert eval_ml(MLQuery(1.0, 1.0, z)) == pytest.approx(math.exp(z), rel=1e-12, abs=0.0)
        e2 = math.expm1(z) / z if z != 0.0 else 1.0
        assert eval_ml(MLQuery(1.0, 2.0, z)) == pytest.approx(e2, rel=1e-12, abs=0.0)
        e3 = (math.expm1(z) - z) / z**2 if z != 0.0 else 0.5
        assert eval_ml(MLQuery(1.0, 3.0, z)) == pytest.approx(e3, rel=1e-12, abs=0.0)


def _series_oracle(a, b, z, terms=2000):
    with mp.workdps(80):
        return float(sum(mp.mpf(z) ** k / mp.gamma(mp.mpf(a) * k + mp.mpf(b))
                         for k in range(terms)))


# points kept where the plain series converges well inside 80 digits
ORACLE_POINTS = [
    (0.3, 0.9, 0.3), (0.3, 0.9, 1.5),
    (0.5, 0.5, 0.5), (0.5, 0.5, 2.0), (0.5, 0.5, 6.0),
    (0.7, 1.3, 1.0), (0.7, 1.3, 5.0), (0.7, 1.3, 15.0),
    (0.85, 1.0, 1.0), (0.85, 1.0, 5.0), (0.85, 1.0, 20.0),
]


@pytest.mark.parametrize("a,b,x", ORACLE_POINTS)
def test_against_high_precision_series(a, b, x):
    got = eval_ml(MLQuery(a, b, -x))
    want = _series_oracle(a, b, -x)
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_positive_argument_small():
    # growth direction, series regime only
    for z in (0.1, 0.5, 2.0):
        got = eval_ml(MLQuery(0.6, 1.0, z))
        want = _series_oracle(0.6, 1.0, z)
        assert got == pytest.approx(want, rel=1e-11, abs=0.0)


def test_value_at_zero_is_reciprocal_gamma_beta():
    for b in (0.4, 1.0, 2.3):
        assert eval_ml(MLQuery(0.5, b, 0.0)) == pytest.approx(
            reciprocal_gamma(b), rel=1e-14, abs=0.0
        )


def test_asymptotic_leading_bound():
    # remainder after the x^{-1} term decays at least like x^{-2}
    for a, b in ((0.7, 1.0), (0.6, 0.8), (0.5, 0.5)):
        for x in np.logspace(2, 5, 40):
            x = float(x)
            got = eval_ml(MLQuery(a, b, -x))
            lead = eval_ml_asymptotic_leading(MLQuery(a, b, -x))
            assert abs(got - lead) <= 1.0 * x**-2


def test_info_regimes_partition():
    # at alpha < 1 the series serves no z < 0, at any beta
    for b in (0.3, 1.0, 1.6, 2.5, 8.0, 40.0):
        seen = set()
        for x in np.logspace(-2, 6, 120):
            val, regime = eval_ml_info(MLQuery(0.6, b, -float(x)))
            assert math.isfinite(val)
            seen.add(regime)
        assert seen == {"integral", "asymptotic"}, b


def test_regime_boundaries_are_continuous():
    xs = np.logspace(-2, 6, 4000)
    vals = eval_ml_many(0.6, 1.0, -xs)
    rel_jump = np.abs(np.diff(vals)) / np.abs(vals[:-1])
    assert float(rel_jump.max()) < 2e-2


def _asymptotic_loop(alpha, beta, z):
    """Per-point asymptotic expansion, the reference for mlf._asymptotic_batch.

    The same stopping rules, two-term envelope cut, underflow bound,
    error floor and Neumaier sum, one point at a time.
    """
    nterms = mlconstants.ASYM_MAX_TERMS
    # the batch's coefficients -1/Gamma(beta - j alpha), j = 1 .. nterms,
    # with the rounding of beta - j alpha undone
    table = -mlf._reciprocal_gamma_rows(alpha, beta, -np.arange(1.0, nterms + 1.0))
    zi = 1.0 / z
    p = 1.0
    terms, coefs = [], []
    underflow = False
    for j in range(1, nterms + 1):
        p *= zi
        if p == 0.0:
            underflow = True
            break
        if not math.isfinite(p):
            break
        coef = float(table[j - 1])
        t = p * coef
        if not math.isfinite(t):
            break
        terms.append(t)
        coefs.append(coef)
    n = len(terms)
    if n == 0:
        return 0.0, math.inf
    mags = [abs(t) for t in terms] + [math.inf]
    env = [math.inf if coefs[i] == 0.0 else max(mags[i], mags[i + 1])
           for i in range(min(n, nterms - 1))]
    if underflow:
        # the first dropped term, z^-(n+1) / Gamma(beta - (n+1) alpha)
        env[n - 1] = abs(float(table[n])) * abs(z) ** -(n + 1.0)
    cut = min(range(len(env)), key=env.__getitem__)
    s = 0.0
    c = 0.0
    for t in terms[: cut + 1]:
        u = s + t
        if abs(s) >= abs(t):
            c += (s - u) + t
        else:
            c += (t - u) + s
        s = u
    total = s + c
    return total, env[cut] / max(abs(total), sys.float_info.min)


# (0.5, 1.5) and (0.25, 2.0) put beta - j alpha on Gamma poles
MANY_PAIRS = [(0.7, 1.1), (0.5, 1.5), (0.25, 2.0), (0.05, 0.7), (0.9, 0.4)]


@pytest.mark.parametrize("a,b", MANY_PAIRS)
def test_asymptotic_batch_matches_loop(rng, a, b):
    # past |z| ~ 1e6 the powers z^-j underflow and cut the term list short
    zs = -np.concatenate([
        np.exp(rng.uniform(math.log(10.0), math.log(1e6), 300)),
        10.0 ** rng.uniform(6.0, 300.0, 100),
        [10.0, 1e6, 1e200],
    ])
    vals, rel = mlf._asymptotic_batch(a, b, zs)
    for z, v, r in zip(zs, vals, rel):
        want_v, want_r = _asymptotic_loop(a, b, float(z))
        assert (v, r) == (want_v, want_r)


@pytest.mark.parametrize("a", [0.3, 0.7, 0.99])
@pytest.mark.parametrize("same", [False, True], ids=["beta1", "beta_alpha"])
def test_asymptotic_far_beyond_double_powers(a, same):
    # z^-2 and then z^-1 underflow; the expansion keeps the regime and
    # its leading non-zero term, or a value below the normal range
    b = a if same else 1.0
    zs = np.array([-1e100, -1e160, -1e200, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, codes = mlf._evaluate(a, b, zs)
    assert np.all(codes == mlf._ASYMPTOTIC)
    for z, v in zip(zs, vals):
        j = 2 if same else 1
        with mp.workdps(30):
            lead = float(-mp.mpf(float(z)) ** -j * mp.rgamma(mp.mpf(b) - j * mp.mpf(a)))
        if abs(lead) >= sys.float_info.min:
            assert v == pytest.approx(lead, rel=1e-14, abs=0.0)
        else:
            assert abs(v) <= 1e-300


def test_many_against_oracle(rng):
    for a, b in MANY_PAIRS:
        # the series and integral band, then the asymptotic band up to 1e6
        xs = np.concatenate([
            rng.uniform(0.01, 50.0, 48),
            np.exp(rng.uniform(math.log(10.0), math.log(1e6), 48)),
            [1e6],
        ])
        regimes = [eval_ml_info(MLQuery(a, b, -float(x)))[1] for x in xs]
        assert "asymptotic" in regimes
        vals = eval_ml_many(a, b, -xs)
        for x, v in zip(xs, vals):
            x = float(x)
            if 0.4343 * x ** (1.0 / a) <= 20.0:
                want = _series_oracle(a, b, -x)
            else:
                want = _transform_oracle(a, b, x)
            assert v == pytest.approx(want, rel=1e-12, abs=0.0), (a, b, x)


@pytest.mark.parametrize("b", [0.5, 1.0, 1.7, 2.0, 2.5, 3.0])
def test_many_at_alpha_one_against_hypergeometric(rng, b):
    zs = np.concatenate([
        -np.exp(rng.uniform(math.log(1e-3), math.log(1e6), 200)),
        np.exp(rng.uniform(math.log(1e-3), math.log(700.0), 60)),
        [0.0, -7.0, 7.0, -600.0, 600.0, 750.0],
    ])
    got = eval_ml_many(1.0, b, zs)
    with mp.workdps(40):
        want = [float(mp.hyp1f1(1, b, z) * mp.rgamma(b)) for z in zs]
    for z, g, w in zip(zs, got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=0.0), z


def test_info_labels():
    assert eval_ml_info(MLQuery(1.0, 0.6, -500.0))[1] == "closed-form"
    assert eval_ml_info(MLQuery(1.0, 0.6, -5.0))[1] == "closed-form"
    assert eval_ml_info(MLQuery(1.0, 0.6, 300.0))[1] == "series"
    assert eval_ml_info(MLQuery(1.0, 0.6, -5000.0))[1] == "asymptotic"
    assert eval_ml_info(MLQuery(1.0, 1.0, -5000.0))[1] == "closed-form"
    assert eval_ml_info(MLQuery(0.6, 1.3, 0.0))[1] == "closed-form"
    assert eval_ml_info(MLQuery(0.6, 1.3, 30.0))[1] == "asymptotic"


@pytest.mark.parametrize("a,b,z", [
    (0.6, 1.3, 30.0), (0.5, 1.0, 12.0), (0.05, 0.7, 1.3), (1.0, 1.5, 712.6),
])
def test_positive_growth_is_silent(a, b, z):
    # past the point where z^k overflows the series has not converged,
    # and the exponential form answers; nothing may leak a numpy warning.
    # At z = 712.6 its exponent is 709.3, inside exp's finite range
    with mp.workdps(40):
        want = float(mp.exp(mp.mpf(z) ** (1 / mp.mpf(a)))
                     * mp.mpf(z) ** ((1 - mp.mpf(b)) / a) / a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eval_ml_many(a, b, [z])[0]
        assert eval_ml(MLQuery(a, b, z)) == got
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_positive_growth_overflows_silently():
    # exp's finite range ends at 709.78; past it the value is inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_ml(MLQuery(1.0, 1.5, 800.0)) == math.inf


# on z > 0 from beta = 40 on, the series goes wrong with no error or
# warning (ROADMAP item 2(b)): 1/Gamma(alpha k + beta) underflows to 0
# near alpha k + beta = 178, and a zero term meets the series' stop rule
# before the terms peak.  References: mpmath series at 120 digits, summed
# to a relative 1e-60
SERIES_UNDERFLOWS = pytest.mark.xfail(
    strict=True, reason="1/Gamma underflows in the series before its terms peak"
)


@pytest.mark.parametrize("a,b,z,want", [
    pytest.param(0.95, 40.0, 118.9874, 1.8692206536101429e-19, marks=SERIES_UNDERFLOWS),
    pytest.param(0.5, 100.0, 25.0, 8.7691897616632981e-06, marks=SERIES_UNDERFLOWS),
    (0.5, 40.0, -3.0, 3.3196786593143849e-47),
])
def test_large_beta_against_series(a, b, z, want):
    assert eval_ml(MLQuery(a, b, z)) == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("a,b", [(0.6, 1.3), (1.0, 0.6)])
def test_many_keeps_the_shape_of_z(a, b):
    z = np.array([[-0.5, -1.0, 0.0], [-20.0, 30.0, -700.0]])
    got = eval_ml_many(a, b, z)
    assert got.shape == z.shape
    np.testing.assert_array_equal(got, eval_ml_many(a, b, z.ravel()).reshape(z.shape))


@pytest.mark.parametrize("b", [0.5, 1.7, 2.5])
@pytest.mark.parametrize("z", [120.0, 200.0, 400.0, 599.0])
def test_alpha_one_growth_against_hypergeometric(b, z):
    # E_{1,b}(z) = 1F1(1; b; z) / Gamma(b); the series there peaks near
    # k = z, past where z^k alone overflows
    with mp.workdps(40):
        want = float(mp.hyp1f1(1, b, z) / mp.gamma(b))
    assert eval_ml(MLQuery(1.0, b, z)) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert eval_ml_many(1.0, b, np.array([z]))[0] == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("b", [0.02, 0.3, 1.0 - 1e-7, 1.0 + 1e-7, 1.5])
@pytest.mark.parametrize("x", [5.0, 6.3, 6.9])
def test_alpha_one_small_negative_against_hypergeometric(b, x):
    # the Kummer sum's terms have one sign, while the plain series
    # cancels by about 3 digits near x = 7
    with mp.workdps(40):
        want = float(mp.hyp1f1(1, b, -x) * mp.rgamma(b))
    assert eval_ml(MLQuery(1.0, b, -x)) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("z", [-1e17, -1e20])
def test_alpha_one_integer_beta_far_out(z):
    # integer beta takes the same branches as any other beta; a closed
    # form z^(1-m) (e^z - partial sum) overflowed or lost digits here
    with mp.workdps(40):
        want = float(mp.hyp1f1(1, 20, z) / mp.gamma(20))
    # abs=0: the values are near 1e-33, far below approx's default abs
    assert eval_ml(MLQuery(1.0, 20.0, z)) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert eval_ml_many(1.0, 20.0, np.array([z]))[0] == pytest.approx(want, rel=1e-12, abs=0.0)


def _transform_oracle(a, b, x):
    """E_{a,b}(-x) by Talbot inversion of s^(a-b) / (s^a + x) at t = 1."""
    with mp.workdps(40):
        am, bm, xm = mp.mpf(a), mp.mpf(b), mp.mpf(x)
        return float(mp.invertlaplace(lambda s: s ** (am - bm) / (s**am + xm), 1,
                                      method="talbot"))


def _contour_at(a, b, x):
    return float(mlf._contour(a, b, np.array([x]))[0])


# just below alpha = 1 the plain contour terms cancel, and the rule
# subtracts the alpha = 1 transform; beta = alpha and beta = alpha + 1
# are the edges of the rule's range
@pytest.mark.parametrize("a", [0.9995, 0.99994, 0.9999999])
@pytest.mark.parametrize("db", [0.0, 1e-5, 0.3, 1.0])
@pytest.mark.parametrize("x", [1.5, 20.0, 300.0])
def test_integral_near_alpha_one_against_transform(a, db, x):
    b = a + db
    assert _contour_at(a, b, x) == pytest.approx(_transform_oracle(a, b, x), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a", [0.05, 0.3, 0.5, 0.7, 0.95, 0.99])
def test_integral_against_oracle(a):
    # beta = alpha and beta -> alpha + 1 are the edges of the contour
    # rule's range; the series oracle is used where its cancellation stays
    # well inside its 80 digits
    for b in (a, 1.0, a + 1.0 - 1e-6, a + 1.0):
        for x in (0.7, 4.0, 30.0):
            if 0.4343 * x ** (1.0 / a) <= 20.0:
                want = _series_oracle(a, b, -x)
            else:
                want = _transform_oracle(a, b, x)
            assert _contour_at(a, b, x) == pytest.approx(want, rel=1e-11, abs=0.0), (b, x)


# (alpha, beta, x) near zeros of E at small beta, where the plain series
# cancels; beta <= alpha + 1, so the integral regime serves them
SMALL_BETA_INTEGRAL_POINTS = [
    (0.885411969589, 0.022225343502999984, 0.024585849618556994),
    (0.673590346774, 0.08706885595299996, 0.13148986301726967),
    (0.919303626284, 0.03623070232400005, 0.03963890320997197),
    (0.972250577004, 0.17840243540199996, 0.21777406161445534),
    (0.779263952829, 0.106772500258, 0.14404768821780753),
]


@pytest.mark.parametrize("a,b,x", SMALL_BETA_INTEGRAL_POINTS)
def test_integral_small_beta_near_zeros_against_oracle(a, b, x):
    val, regime = eval_ml_info(MLQuery(a, b, -x))
    assert regime == "integral"
    assert val == pytest.approx(_series_oracle(a, b, -x), rel=2e-11, abs=0.0)


def test_many_near_alpha_one_is_accurate():
    a = 0.99994
    xs = -0.92 * np.geomspace(1e-3, 1e3, 2000) ** a
    vals = eval_ml_many(a, 1.0, xs)
    for i in range(0, xs.size, 167):
        assert vals[i] == pytest.approx(_transform_oracle(a, 1.0, -xs[i]), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a,b", [(0.9999, 1.9999), (0.9999999, 2.0)])
def test_asymptotic_near_alpha_one_counts_the_dropped_exponentials(a, b):
    # (2/alpha) X^(1-beta) e^(X cos(pi/alpha)), X = x^(1/alpha), is left
    # out of the algebraic expansion; near alpha = 1 it decays only like
    # e^-X, so its truncation estimate alone accepts too early
    for x in np.linspace(10.0, 40.0, 16):
        x = float(x)
        assert eval_ml(MLQuery(a, b, -x)) == pytest.approx(
            _series_oracle(a, b, -x), rel=1e-12, abs=0.0
        ), x


def _integral_band(a, b, lo=0.5, hi=40.0, n=400):
    """The x in a log grid over [lo, hi] that the integral regime serves."""
    xs = np.geomspace(lo, hi, n)
    return xs[mlf._evaluate(a, b, -xs)[1] == mlf._INTEGRAL]


@pytest.mark.parametrize("a,b", [(0.6, 0.8), (0.3, 0.5), (0.9, 1.0), (0.05, 0.7), (0.9999, 1.0)])
def test_many_integral_points_do_not_depend_on_the_batch(a, b):
    zs = -_integral_band(a, b)
    assert zs.size >= 80
    got = eval_ml_many(a, b, zs)
    np.testing.assert_array_equal(got, [eval_ml(MLQuery(a, b, float(z))) for z in zs])


@pytest.mark.parametrize("a", [0.3, 0.7, 0.95])
@pytest.mark.parametrize("b", [4.0, 8.0, 20.0])
def test_many_integral_large_beta_against_oracle(a, b):
    # past beta = alpha + 1 the contour rule serves beta itself, from the
    # smallest x up to the asymptotic regime
    band = _integral_band(a, b)
    xs = np.geomspace(band[0], band[-1], 40)
    assert np.all(mlf._evaluate(a, b, -xs)[1] == mlf._INTEGRAL)
    vals = eval_ml_many(a, b, -xs)
    for x, v in zip(xs, vals):
        x = float(x)
        if 0.4343 * x ** (1.0 / a) <= 20.0:
            want = _series_oracle(a, b, -x)
        else:
            want = _transform_oracle(a, b, x)
        assert v == pytest.approx(want, rel=1e-12, abs=0.0), x


@pytest.mark.parametrize("a", [0.05, 0.5, 0.9, 0.9995, 0.9999, 0.9999999])
@pytest.mark.parametrize("db", [-0.7, 0.0, 0.5, 1.0])
def test_contour_bound_dominates_its_error(a, db):
    # at beta in (0, alpha + 1] the rule serves every z < 0 that the
    # asymptotic expansion does not take, from tiny x out to |z| = 40
    b = max(a + db, 0.02)
    xs = np.geomspace(1e-8, 40.0, 12)
    for x, v in zip(xs, mlf._contour(a, b, xs)):
        assert v == pytest.approx(_transform_oracle(a, b, float(x)), rel=1e-12, abs=0.0), x


def _relative_series(a, b, z, digits=30):
    """sum z^k / Gamma(a k + b) in mpmath, stopped relative to the peak term.

    The working precision covers the cancellation 0.4343 |z|^(1/a) on
    top of digits, and the sum ends at the first term below 10^-dps of
    the largest so far, so values far below 1 keep their precision.
    """
    cancel = 0.4343 * abs(z) ** (1.0 / a) if abs(z) > 1.0 else 0.0
    dps = digits + int(cancel)
    with mp.workdps(dps):
        am, bm, zm = mp.mpf(a), mp.mpf(b), mp.mpf(z)
        s = peak = mp.mpf(0)
        p = mp.mpf(1)
        tol = mp.mpf(10) ** -dps
        k = 0
        while True:
            t = p * mp.rgamma(am * k + bm)
            s += t
            peak = max(peak, abs(t))
            if abs(t) < tol * peak:
                return float(s)
            p *= zm
            k += 1


@pytest.mark.parametrize("a", [0.05, 0.5, 0.9, 0.9995, 0.9999, 0.9999999])
@pytest.mark.parametrize("b", ["a+1.5", 8.0, 40.0, 70.0, 100.0, 171.0])
def test_contour_at_large_beta_against_series(a, b):
    # the rule crosses the real axis at the saddle s = beta - alpha, so it
    # serves beta itself up to 171, down to values near 1e-307, from tiny
    # x out to (-z)^(1/alpha) = 150
    b = a + 1.5 if b == "a+1.5" else b
    xs = np.geomspace(1e-8, 150.0**a, 12)
    for x, v in zip(xs, mlf._contour(a, b, xs)):
        assert v == pytest.approx(_relative_series(a, b, -float(x)), rel=1e-12, abs=0.0), x


@pytest.mark.parametrize("a,b", [
    (0.1, 1.0), (0.3, 0.9), (0.7, 1.4), (0.9999999, 0.9999999), (0.5, 1.5), (1.0, 0.02),
])
def test_reciprocal_gamma_rows_against_mpmath(a, b):
    # the asymptotic coefficients 1/Gamma(beta - j alpha): at (0.1, 1),
    # j = 10, beta - j alpha rounds onto the pole 0 of Gamma, and at
    # (0.3, 0.9) and (0.7, 1.4) to within an ulp of one, while the exact
    # values are no poles; (0.5, 1.5) meets exact poles, where 1/Gamma is 0
    j = np.arange(1.0, mlconstants.ASYM_MAX_TERMS + 1.0)
    got = mlf._reciprocal_gamma_rows(a, b, -j)
    with mp.workdps(60):
        want = [float(mp.rgamma(mp.mpf(b) - int(i) * mp.mpf(a))) for i in j]
    np.testing.assert_allclose(got, want, rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("x", [70.0, 100.0, 300.0, 1000.0])
def test_asymptotic_near_alpha_one_at_beta_alpha(x):
    # beta - j alpha = (1 - j) alpha lies within j 1e-7 of a Gamma pole,
    # where forming it in double moves 1/Gamma by about 2e-9 relative;
    # the coefficients undo that rounding
    a = 0.9999999
    val, regime = eval_ml_info(MLQuery(a, a, -x))
    assert regime == "asymptotic"
    assert val == pytest.approx(_relative_series(a, a, -x), rel=1e-13, abs=0.0)


def test_query_validation():
    with pytest.raises(ParameterOutOfRangeError):
        MLQuery(0.0, 1.0, 1.0)
    with pytest.raises(ParameterOutOfRangeError):
        MLQuery(1.5, 1.0, 1.0)
    with pytest.raises(ParameterOutOfRangeError):
        CMWeightedParams(0.0, 1.0, 1.0, 2.0)
    with pytest.raises(ParameterOutOfRangeError):
        CMWeightedParams(0.5, 0.0, 1.0, 2.0)
    # a negative rate is constructible, it just is not CM
    assert not is_cm_params(CMWeightedParams(0.5, 1.0, 1.0, -2.0))


def test_cm_params_predicate():
    assert is_cm_params(CMWeightedParams(0.5, 1.0, 1.0, 2.0))
    assert is_cm_params(CMWeightedParams(0.5, 0.8, 0.8, 2.0))
    assert is_cm_params(CMWeightedParams(0.5, 1.2, 1.0, 2.0))
    assert not is_cm_params(CMWeightedParams(0.5, 0.3, 0.8, 2.0))
    assert not is_cm_params(CMWeightedParams(0.9, 0.5, 0.5, 1.0))


def test_weighted_evaluation_consistency(rng):
    p = CMWeightedParams(0.6, 0.8, 0.8, 1.7)
    xs = rng.uniform(0.05, 20.0, 32)
    many = eval_weighted_many(p, xs)
    for x, v in zip(xs, many):
        x = float(x)
        direct = x ** (p.gamma_w - 1.0) * eval_ml(
            MLQuery(p.alpha, p.beta, -p.lam * x**p.alpha)
        )
        assert v == pytest.approx(direct, rel=1e-13, abs=0.0)
        # scalar and vector paths agree to rounding, not bitwise
        assert eval_weighted(p, x) == pytest.approx(v, rel=1e-15, abs=0.0)


def test_weighted_at_zero():
    assert eval_weighted(CMWeightedParams(0.5, 1.0, 1.0, 2.0), 0.0) == 1.0
    with pytest.raises(EvaluationAtZeroUndefinedError):
        eval_weighted(CMWeightedParams(0.5, 0.8, 0.8, 2.0), 0.0)


@pytest.mark.parametrize("params", [
    CMWeightedParams(0.5, 1.3, 1.0, 2.0),  # gamma_w = 1: 1/Gamma(beta)
    CMWeightedParams(0.5, 1.4, 1.4, 2.0),  # gamma_w > 1: 0
])
def test_weighted_many_at_zero_matches_scalar(params):
    xs = np.array([0.0, 0.5, 0.0, 2.0])
    got = eval_weighted_many(params, xs)
    for x, v in zip(xs, got):
        assert v == pytest.approx(eval_weighted(params, float(x)), rel=1e-15, abs=0.0)
    assert got[0] == eval_weighted(params, 0.0)
    np.testing.assert_array_equal(eval_weighted_many(params, np.zeros(3)),
                                  np.full(3, eval_weighted(params, 0.0)))


def test_weighted_many_at_zero_rejects_divergent_weight():
    with pytest.raises(EvaluationAtZeroUndefinedError):
        eval_weighted_many(CMWeightedParams(0.5, 0.8, 0.8, 2.0), np.array([0.0, 1.0]))
    with pytest.raises(ParameterOutOfRangeError):
        eval_weighted_many(CMWeightedParams(0.5, 1.0, 1.0, 2.0), np.array([-1.0, 1.0]))


def test_cm_weighted_is_decreasing_when_admissible():
    p = CMWeightedParams(0.6, 1.0, 1.0, 1.0)
    xs = np.linspace(1e-3, 50.0, 300)
    vals = eval_weighted_many(p, xs)
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(vals > 0.0)
