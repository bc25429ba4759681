"""Exact operator algebra on finite power sums."""

import math

import numpy as np
import pytest

from nlfrac import (
    DerivativeLeavesAlgebraError,
    DerivativeSpec,
    EvaluationAtZeroUndefinedError,
    ParameterOutOfRangeError,
    PowerSum,
    kernel_basis,
    nth_level_derivative,
    projector_apply,
    rl_integral,
    weak_derivative,
)

from conftest import CAPUTO_1, HILFER_1, RL_1, TRULY_2L


def test_terms_sort_and_merge():
    ps = PowerSum(((1.0, 0.5), (2.0, -0.2), (3.0, 0.5)))
    assert ps.terms == ((2.0, -0.2), (4.0, 0.5))


def test_zero_detection():
    assert PowerSum(()).is_zero
    assert PowerSum(((1.0, 0.3), (-1.0, 0.3))).is_zero
    assert not PowerSum.monomial(1e-3, 0.3).is_zero


def test_exponent_must_be_integrable():
    with pytest.raises(ParameterOutOfRangeError):
        PowerSum.monomial(1.0, -1.0)


def test_evaluate_scalar_and_vector():
    ps = PowerSum(((1.0, 0.5), (2.0, -0.2)))
    x = 2.0
    want = math.sqrt(2.0) + 2.0 * x ** -0.2
    assert ps.evaluate(x) == pytest.approx(want, rel=1e-15, abs=0.0)
    np.testing.assert_allclose(
        ps.values(np.array([1.0, 2.0])), [3.0, want], rtol=1e-15
    )


def test_value_at_zero():
    assert PowerSum(((3.0, 0.0), (1.0, 1.2))).value_at_zero() == 3.0
    assert PowerSum.monomial(1.0, 0.7).value_at_zero() == 0.0
    with pytest.raises(EvaluationAtZeroUndefinedError):
        PowerSum.monomial(1.0, -0.2).value_at_zero()


def test_rl_integral_monomial_coefficient():
    # I^nu x^mu carries Gamma(mu+1)/Gamma(mu+1+nu)
    out = rl_integral(PowerSum.monomial(1.0, 0.5), 0.5)
    assert len(out.terms) == 1
    c, mu = out.terms[0]
    assert mu == pytest.approx(1.0)
    assert c == pytest.approx(math.gamma(1.5) / math.gamma(2.0), rel=1e-14, abs=0.0)


def test_rl_integral_semigroup(rng):
    for _ in range(30):
        mu = float(rng.uniform(-0.9, 3.0))
        a = float(rng.uniform(0.1, 1.0))
        b = float(rng.uniform(0.1, 1.0))
        f = PowerSum.monomial(1.3, mu)
        one = rl_integral(rl_integral(f, a), b)
        both = rl_integral(f, a + b)
        assert one.isclose(both)


def test_weak_derivative_drops_constants():
    f = PowerSum(((3.0, 0.0), (2.0, 1.5)))
    df = weak_derivative(f)
    assert df.terms == ((3.0, 0.5),)


def test_weak_derivative_leaves_algebra():
    with pytest.raises(DerivativeLeavesAlgebraError):
        weak_derivative(PowerSum.monomial(1.0, -0.5))


def test_derivative_of_monomial_coefficient():
    spec = TRULY_2L
    mu = 1.3
    out = nth_level_derivative(spec, PowerSum.monomial(1.0, mu))
    assert len(out.terms) == 1
    c, ex = out.terms[0]
    assert ex == pytest.approx(mu - spec.alpha, rel=1e-12, abs=0.0)
    want = math.gamma(mu + 1.0) / math.gamma(mu + 1.0 - spec.alpha)
    assert c == pytest.approx(want, rel=1e-12, abs=0.0)


def test_kernel_monomials_are_annihilated():
    for spec in (RL_1, CAPUTO_1, HILFER_1, TRULY_2L):
        for b in kernel_basis(spec):
            assert nth_level_derivative(spec, b).is_zero


def test_fundamental_theorem_roundtrip(rng):
    # D(I^alpha f) = f and I^alpha(D f) = f - projector part
    for _ in range(50):
        n = int(rng.integers(1, 5))
        alpha = float(rng.uniform(0.1, 0.95))
        gamma = []
        s = 0.0
        # any valid spec will do here; the roundtrip does not need the
        # truly-nth floor, and validity alone keeps every gamma
        # interval nonempty (alpha + s_{k-1} <= k - 1 gives headroom 1)
        for k in range(1, n + 1):
            hi = min(1.0 - 1e-3, k - alpha - s - 1e-3)
            g = float(rng.uniform(0.0, hi))
            gamma.append(g)
            s += g
        spec = DerivativeSpec(n, alpha, tuple(gamma))
        floor = max(spec.sigma) + 1e-6
        mu = float(rng.uniform(max(floor, -0.45), 2.8))
        c = float(rng.uniform(0.5, 2.0))
        f = PowerSum.monomial(c, mu)
        back = nth_level_derivative(spec, rl_integral(f, alpha))
        assert back.isclose(f, rtol=1e-11)


def test_projector_reconstruction(rng):
    for _ in range(40):
        alpha = float(rng.uniform(0.2, 0.9))
        g1 = float(rng.uniform(0.0, 1.0 - alpha))
        g2 = float(rng.uniform(max(0.0, 1.001 - alpha - g1), min(0.999, 2 - alpha - g1)))
        spec = DerivativeSpec(2, alpha, (g1, g2))
        floor = max(spec.sigma) + 1e-6
        mus = sorted(float(rng.uniform(max(floor, -0.45), 2.5)) for _ in range(3))
        f = PowerSum(tuple((1.0 + i, m) for i, m in enumerate(mus)))
        proj = projector_apply(spec, f)
        df = nth_level_derivative(spec, f)
        recon = rl_integral(df, spec.alpha)
        # f minus its kernel projection comes back after I^alpha D
        want_terms = list(f.terms)
        for p, sg in zip(proj.p, proj.sigma):
            want_terms.append((-p, sg))
        want = PowerSum(tuple(want_terms))
        assert recon.isclose(want, rtol=1e-10)


def test_projector_caputo_reads_value_at_zero():
    f = PowerSum(((1.5, 0.0), (1.0, 0.5)))
    pr = projector_apply(DerivativeSpec(1, 0.6, (0.4,)), f)
    assert pr.sigma == pytest.approx((0.0,))
    assert pr.p == pytest.approx((1.5,))


def test_projector_rl_reads_singular_coefficient():
    a = 0.6
    f = PowerSum(((2.0, a - 1.0), (1.0, 0.5)))
    pr = projector_apply(DerivativeSpec(1, a, (0.0,)), f)
    assert pr.sigma == pytest.approx((a - 1.0,))
    assert pr.p == pytest.approx((2.0,))
    # a regular function has no such direction
    reg = projector_apply(DerivativeSpec(1, a, (0.0,)), PowerSum.constant(1.0))
    assert reg.p == pytest.approx((0.0,))


def test_projector_hilfer_interpolates():
    a, g = 0.6, 0.2
    f = PowerSum(((0.7, a + g - 1.0), (1.0, 0.5)))
    pr = projector_apply(DerivativeSpec(1, a, (g,)), f)
    assert pr.sigma == pytest.approx((a + g - 1.0,))
    assert pr.p == pytest.approx((0.7,))


def test_projector_truly_2l_extracts_both_directions():
    f = PowerSum(((2.0, 0.0), (3.0, -0.4), (1.0, 1.3)))
    pr = projector_apply(TRULY_2L, f)
    got = dict(zip(np.round(pr.sigma, 9), pr.p))
    assert got[0.0] == pytest.approx(2.0)
    assert got[-0.4] == pytest.approx(3.0)


def test_derivative_blind_band_raises():
    # stage exponents falling in (-1, 0) leave the algebra
    spec = RL_1
    with pytest.raises(DerivativeLeavesAlgebraError):
        nth_level_derivative(spec, PowerSum.monomial(1.0, spec.sigma[0] - 0.2))
