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


def test_many_matches_scalar(rng):
    xs = rng.uniform(0.01, 50.0, 64)
    vals = eval_ml_many(0.7, 1.1, -xs)
    for x, v in zip(xs, vals):
        assert v == eval_ml(MLQuery(0.7, 1.1, -float(x)))


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
