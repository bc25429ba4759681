"""Mittag-Leffler evaluation against independent oracles.

The reference values come from three places that do not share code with
the implementation: the scaled complementary error function from scipy,
closed forms at integer first parameter, and a high precision mpmath
series summed where its convergence is certain.
"""

import math

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
    assert reciprocal_gamma(1.0) == pytest.approx(1.0, rel=1e-15)
    assert reciprocal_gamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    assert reciprocal_gamma(4.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
    # poles of Gamma are zeros here, no special casing needed upstream
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-1.0) == 0.0
    assert reciprocal_gamma(-2.0) == 0.0
    assert reciprocal_gamma(-0.5) == pytest.approx(1.0 / math.gamma(-0.5), rel=1e-13)


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
        assert eval_ml(MLQuery(1.0, 1.0, z)) == pytest.approx(math.exp(z), rel=1e-12)
        e2 = math.expm1(z) / z if z != 0.0 else 1.0
        assert eval_ml(MLQuery(1.0, 2.0, z)) == pytest.approx(e2, rel=1e-12)
        e3 = (math.expm1(z) - z) / z**2 if z != 0.0 else 0.5
        assert eval_ml(MLQuery(1.0, 3.0, z)) == pytest.approx(e3, rel=1e-12)


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
    assert got == pytest.approx(want, rel=1e-10)


def test_positive_argument_small():
    # growth direction, series regime only
    for z in (0.1, 0.5, 2.0):
        got = eval_ml(MLQuery(0.6, 1.0, z))
        want = _series_oracle(0.6, 1.0, z)
        assert got == pytest.approx(want, rel=1e-11)


def test_value_at_zero_is_reciprocal_gamma_beta():
    for b in (0.4, 1.0, 2.3):
        assert eval_ml(MLQuery(0.5, b, 0.0)) == pytest.approx(
            reciprocal_gamma(b), rel=1e-14
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
    seen = set()
    for x in np.logspace(-2, 6, 120):
        val, regime = eval_ml_info(MLQuery(0.6, 1.0, -float(x)))
        assert regime in ("series", "integral", "asymptotic")
        assert math.isfinite(val)
        seen.add(regime)
    assert "series" in seen and "asymptotic" in seen


def test_regime_boundaries_are_continuous():
    xs = np.logspace(-2, 6, 4000)
    vals = eval_ml_many(0.6, 1.0, -xs)
    rel_jump = np.abs(np.diff(vals)) / np.abs(vals[:-1])
    assert float(rel_jump.max()) < 2e-2


def _asymptotic_loop(alpha, beta, z):
    """Per-point asymptotic expansion, the reference for mlf._asymptotic_batch.

    The same stopping rules, two-term envelope cut and Neumaier sum,
    one point at a time.
    """
    zi = 1.0 / z
    p = 1.0
    terms = []
    for j in range(1, mlconstants.ASYM_MAX_TERMS + 1):
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
        u = s + t
        if abs(s) >= abs(t):
            c += (s - u) + t
        else:
            c += (t - u) + s
        s = u
    total = s + c
    if total == 0.0:
        return 0.0, math.inf
    return total, env[cut] / abs(total)


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


def test_many_matches_scalar(rng):
    for a, b in MANY_PAIRS:
        # the series and integral band, then the asymptotic band up to 1e6
        xs = np.concatenate([
            rng.uniform(0.01, 50.0, 48),
            np.exp(rng.uniform(math.log(10.0), math.log(1e6), 48)),
            [1e6],
        ])
        regimes = [eval_ml_info(MLQuery(a, b, -float(x)))[1] for x in xs]
        # below this many integral points the batch takes the scalar quadrature
        assert regimes.count("integral") < mlconstants.BATCH_QUAD_MIN_POINTS
        assert "asymptotic" in regimes
        vals = eval_ml_many(a, b, -xs)
        for x, v in zip(xs, vals):
            assert v == eval_ml(MLQuery(a, b, -float(x))), (a, b, x)


@pytest.mark.parametrize("b", [0.5, 1.0, 1.7, 2.0, 2.5, 3.0])
def test_many_matches_scalar_at_alpha_one(rng, b):
    zs = np.concatenate([
        -np.exp(rng.uniform(math.log(1e-3), math.log(1e6), 200)),
        np.exp(rng.uniform(math.log(1e-3), math.log(700.0), 60)),
        [0.0, -7.0, 7.0, -600.0, 600.0, 750.0],
    ])
    got = eval_ml_many(1.0, b, zs)
    want = np.array([eval_ml(MLQuery(1.0, b, float(z))) for z in zs])
    # np.exp is not math.exp
    np.testing.assert_allclose(got, want, rtol=4e-15, atol=0.0)


@pytest.mark.parametrize("b", [0.5, 1.7, 2.5])
@pytest.mark.parametrize("z", [120.0, 200.0, 400.0, 599.0])
def test_alpha_one_growth_against_hypergeometric(b, z):
    # E_{1,b}(z) = 1F1(1; b; z) / Gamma(b); the series there peaks near
    # k = z, past where z^k alone overflows
    with mp.workdps(40):
        want = float(mp.hyp1f1(1, b, z) / mp.gamma(b))
    assert eval_ml(MLQuery(1.0, b, z)) == pytest.approx(want, rel=1e-12)
    assert eval_ml_many(1.0, b, np.array([z]))[0] == pytest.approx(want, rel=1e-12)


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


# just below alpha = 1 the spectral denominator pinches to a width of
# about pi (1 - alpha) x; beta = alpha and beta = alpha + 1 are the two
# cancellation edges of the representation
@pytest.mark.parametrize("a", [0.9995, 0.99994, 0.9999999])
@pytest.mark.parametrize("db", [0.0, 1e-5, 0.3, 1.0])
@pytest.mark.parametrize("x", [1.5, 20.0, 300.0])
def test_integral_near_alpha_one_against_transform(a, db, x):
    b = a + db
    assert mlf._integral(a, b, x) == pytest.approx(_transform_oracle(a, b, x), rel=1e-12)


@pytest.mark.parametrize("a", [0.05, 0.3, 0.5, 0.7, 0.95, 0.99])
def test_integral_against_oracle(a):
    # beta = alpha and beta -> alpha + 1 are the cancellation edges of the
    # spectral representation; the series oracle is used where its
    # cancellation stays well inside its 80 digits
    for b in (a, 1.0, a + 1.0 - 1e-6, a + 1.0):
        for x in (0.7, 4.0, 30.0):
            if 0.4343 * x ** (1.0 / a) <= 20.0:
                want = _series_oracle(a, b, -x)
            else:
                want = _transform_oracle(a, b, x)
            assert mlf._integral(a, b, x) == pytest.approx(want, rel=1e-11, abs=0.0), (b, x)


@pytest.mark.parametrize("a", [0.7, 0.8, 0.95, 0.99])
@pytest.mark.parametrize("b", [0.2, 1.0, 1.5])
def test_pinched_route_matches_plain_route(monkeypatch, a, b):
    # where the pinch is wide the plain quadrature resolves it too; below
    # alpha = 2/3 psi(w) grows with x and the pole subtraction does not apply
    b = min(b, a + 1.0)
    xs = (0.7, 4.0, 30.0)
    plain = [mlf._integral(a, b, x) for x in xs]
    monkeypatch.setattr(mlconstants, "INTEGRAL_PINCH_ALPHA", 0.5)
    for x, want in zip(xs, plain):
        assert mlf._integral(a, b, x) == pytest.approx(want, rel=1e-11, abs=0.0)


def test_many_near_alpha_one_is_accurate_and_uses_an_interpolant():
    a = 0.99994
    xs = -0.92 * np.geomspace(1e-3, 1e3, 2000) ** a
    calls = []
    integral = mlf._integral

    def counted(*args):
        calls.append(args)
        return integral(*args)

    mlf._integral = counted
    try:
        vals = eval_ml_many(a, 1.0, xs)
    finally:
        mlf._integral = integral
    # a Chebyshev build is a few hundred quadratures; the per-point
    # fallback after failed spot checks was about a thousand
    assert 0 < len(calls) < 200
    for i in range(0, xs.size, 167):
        assert vals[i] == pytest.approx(_transform_oracle(a, 1.0, -xs[i]), rel=1e-10)


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
        assert v == pytest.approx(direct, rel=1e-13)
        # scalar and vector paths agree to rounding, not bitwise
        assert eval_weighted(p, x) == pytest.approx(v, rel=1e-15)


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
        assert v == pytest.approx(eval_weighted(params, float(x)), rel=1e-15)
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
