"""Graded-grid quadrature and the discrete operator chain."""

import math
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from nlfrac import gridops
from nlfrac import (
    DerivativeSpec,
    GradedGrid,
    ParameterOutOfRangeError,
    SampledFunction,
    default_grading_exponent,
    derivative_grid,
    laplace_numeric,
    nth_level_derivative_grid,
    quadrature_matrix,
    read_xy,
    rl_integral_grid,
    write_csv,
)

from conftest import TRULY_2L


def _sample(grid, fn, sigma=None):
    return SampledFunction(grid, fn(grid.nodes), singular_exponent=sigma)


def test_grid_nodes_shape_and_monotonicity():
    g = GradedGrid(5.0, 256, 3.0)
    assert g.nodes.shape == (256,)
    assert g.nodes[-1] == pytest.approx(5.0)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.nodes > 0)


def test_uniform_grid_when_r_is_one():
    g = GradedGrid(1.0, 100, 1.0)
    assert np.allclose(np.diff(g.nodes), g.nodes[0])


def test_grid_validation():
    with pytest.raises(ParameterOutOfRangeError):
        GradedGrid(-1.0, 100)
    with pytest.raises(ParameterOutOfRangeError):
        GradedGrid(1.0, 0)
    with pytest.raises(ParameterOutOfRangeError):
        GradedGrid(1.0, 100, r=0.5)


def test_default_grading_clamps():
    assert default_grading_exponent(TRULY_2L) == pytest.approx(2.0 / 0.6)
    # strongly singular solution: 2 / 0.2 = 10 hits the cap
    assert default_grading_exponent(DerivativeSpec(1, 0.2, (0.0,))) == 6.0
    caputo = DerivativeSpec(1, 0.5, (0.5,))
    assert default_grading_exponent(caputo) == 2.0


def test_integral_of_smooth_power():
    # relative error at the first few graded nodes is dominated by
    # interpolating sqrt(x) linearly across [0, x_1]; judge the interior
    g = GradedGrid(2.0, 4096, 2.0)
    out = rl_integral_grid(0.5, _sample(g, lambda x: np.sqrt(x)))
    want = math.gamma(1.5) / math.gamma(2.0) * g.nodes
    err = np.max((np.abs(out.values - want) / np.abs(want))[256:])
    assert err < 5e-6


def test_integral_converges_at_second_order():
    # the rule is exact on piecewise-linear data, so the probe needs
    # curvature for the error to be visible at all
    errs = []
    for m in (512, 1024, 2048):
        g = GradedGrid(1.0, m, 2.0)
        out = rl_integral_grid(0.7, _sample(g, lambda x: x**2))
        want = math.gamma(3.0) / math.gamma(3.7) * g.nodes**2.7
        errs.append(np.max(np.abs(out.values - want)))
    assert errs[0] / errs[1] > 2.5
    assert errs[1] / errs[2] > 2.5


def test_quadrature_matrix_matches_operator():
    g = GradedGrid(3.0, 512, 2.0)
    f = _sample(g, lambda x: np.cos(x))
    W = quadrature_matrix(0.6, g)
    np.testing.assert_allclose(W @ f.values, rl_integral_grid(0.6, f).values,
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3, 17, 513])
@pytest.mark.parametrize("order", [0.3, 1.0, 1.7])
@pytest.mark.parametrize("sigma", [None, -0.3])
def test_quadrature_matrix_assembly(m, order, sigma):
    g = GradedGrid(2.0, m, 2.0)
    f = _sample(g, lambda x: np.cos(x) + (0.0 if sigma is None else x**sigma), sigma)
    W = quadrature_matrix(order, g, singular_exponent=sigma)
    np.testing.assert_allclose(W @ f.values, rl_integral_grid(order, f).values,
                               rtol=1e-12, atol=0)
    # only the lower triangle is assembled; W[0, 1] is the second
    # sample's weight in the first cell's linear extrapolation
    upper = np.triu(W, 1)
    if m > 1:
        assert upper[0, 1] != 0.0
        upper[0, 1] = 0.0
    assert not upper.any()


def test_quadrature_matrix_is_kept_and_read_only():
    g = GradedGrid(2.0, 64, 2.0)
    W = quadrature_matrix(0.6, g, singular_exponent=-0.2)
    assert quadrature_matrix(0.6, GradedGrid(2.0, 64, 2.0), singular_exponent=-0.2) is W
    with pytest.raises(ValueError):
        W[1, 0] = 1.0
    assert not W.flags.writeable


@pytest.mark.parametrize("other", [
    (0.7, GradedGrid(2.0, 64, 2.0), -0.2),
    (0.6, GradedGrid(2.0, 64, 3.0), -0.2),
    (0.6, GradedGrid(3.0, 64, 2.0), -0.2),
    (0.6, GradedGrid(2.0, 64, 2.0), None),
    (0.6, GradedGrid(2.0, 64, 2.0), -0.3),
])
def test_quadrature_matrix_key_change_rebuilds(other):
    W = quadrature_matrix(0.6, GradedGrid(2.0, 64, 2.0), singular_exponent=-0.2)
    order, grid, sigma = other
    V = quadrature_matrix(order, grid, singular_exponent=sigma)
    assert V is not W
    assert not np.array_equal(V, W)


def test_quadrature_matrix_alternating_keys_stay_exact():
    ga, gb = GradedGrid(2.0, 200, 2.0), GradedGrid(5.0, 300, 3.0)
    fa = _sample(ga, lambda x: np.exp(-x) + x**-0.4, -0.4)
    fb = _sample(gb, np.cos)
    want_a = rl_integral_grid(0.5, fa).values
    want_b = rl_integral_grid(1.3, fb).values
    for _ in range(2):
        np.testing.assert_allclose(quadrature_matrix(0.5, ga, -0.4) @ fa.values,
                                   want_a, rtol=1e-12, atol=0)
        np.testing.assert_allclose(quadrature_matrix(1.3, gb) @ fb.values,
                                   want_b, rtol=1e-12, atol=0)


def test_quadrature_matrix_shared_across_threads():
    # every thread must get the matrix of its own key while the slot
    # keeps changing under it; more threads than cores, short switches
    keys = [(0.4 + 0.1 * k, GradedGrid(1.0 + k, 24, 2.0)) for k in range(3)]
    probes = [_sample(g, np.cos) for _, g in keys]
    wants = [rl_integral_grid(o, f).values for (o, _), f in zip(keys, probes)]
    errors = []

    def work(start):
        for i in range(150):
            k = (start + i) % len(keys)
            got = quadrature_matrix(*keys[k]) @ probes[k].values
            if not np.allclose(got, wants[k], rtol=1e-12, atol=0):
                errors.append(k)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def _reference_matrix(nu, x):
    """The product-trapezoid rule from the exact kernel moments, in mpmath.

    Cell [t_l, t_r] with A = x_i - t_l, B = x_i - t_r has moments
    M0 = (A^nu - B^nu)/nu and M1 = A M0 - (A^(nu+1) - B^(nu+1))/(nu+1),
    so its right end gets M1/h and its left end M0 - M1/h.  The first
    cell [0, x_1] continues the data linearly through x_1 and x_2.
    """
    with mp.workdps(40):
        nu = mp.mpf(nu)
        xs = [mp.mpf(float(v)) for v in x]
        m = len(xs)
        s = xs[0] / (xs[1] - xs[0])
        rg = 1 / mp.gamma(nu)
        R = np.zeros((m, m))
        for i, xi in enumerate(xs):
            row = [mp.mpf(0)] * m
            ends = [mp.mpf(0)] + xs[: i + 1]
            for c in range(i + 1):
                A, B = xi - ends[c], xi - ends[c + 1]
                h = ends[c + 1] - ends[c]
                m0 = (A**nu - B**nu) / nu
                m1 = A * m0 - (A ** (nu + 1) - B ** (nu + 1)) / (nu + 1)
                left, right = m0 - m1 / h, m1 / h
                row[c] += right
                if c == 0:
                    row[0] += (1 + s) * left
                    row[1] -= s * left
                else:
                    row[c - 1] += left
            R[i] = [float(v * rg) for v in row]
    return R


@pytest.mark.parametrize("m", [12, 40])
@pytest.mark.parametrize("order", [0.3, 0.6, 1.0, 1.7])
@pytest.mark.parametrize("r", [1.0, 2.5, 6.0])
def test_quadrature_matrix_against_exact_moments(m, order, r):
    g = GradedGrid(2.0, m, r)
    R = _reference_matrix(order, g.nodes)
    W = quadrature_matrix(order, g)
    assert np.max(np.abs(W - R)) <= 1e-12 * np.max(np.abs(R))


@pytest.mark.parametrize("m", [2, 3, 31, 32, 33, 65, 2048])
@pytest.mark.parametrize("order", [0.3, 0.6, 1.0, 1.7])
def test_quadrature_matrix_is_exact_on_affine_data(m, order):
    # the rule interpolates linearly, and continues the first cell so
    g = GradedGrid(2.0, m, 2.5)
    x = g.nodes
    a, b = 1.3, -0.7
    terms = (a * x**order / math.gamma(order + 1.0),
             b * x ** (order + 1.0) / math.gamma(order + 2.0))
    got = quadrature_matrix(order, g) @ (a + b * x)
    assert np.all(np.abs(got - (terms[0] + terms[1]))
                  <= 1e-13 * (np.abs(terms[0]) + np.abs(terms[1])))


@pytest.mark.parametrize("m", [2, 3, 31, 32, 33, 65, 2048])
@pytest.mark.parametrize("order", [0.3, 0.6, 1.0, 1.7])
@pytest.mark.parametrize("sigma", [-0.3, -0.8])
def test_quadrature_matrix_is_exact_on_declared_power(m, order, sigma):
    g = GradedGrid(2.0, m, 2.5)
    x = g.nodes
    want = math.gamma(sigma + 1.0) / math.gamma(sigma + 1.0 + order) * x ** (sigma + order)
    got = quadrature_matrix(order, g, singular_exponent=sigma) @ x**sigma
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_quadrature_matrix_assembly_memory(monkeypatch):
    # the assembly works in row blocks through a few reused scratch
    # arrays; whole-row temporaries would add tens of MB at this size
    monkeypatch.setattr(gridops, "_last_matrix", None)
    g = GradedGrid(5.0, 2048, 2.5)
    tracemalloc.start()
    try:
        W = quadrature_matrix(0.6, g, singular_exponent=-0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - W.nbytes <= 8e6


def test_declared_singularity_is_integrated_accurately():
    # x^sigma integrands with sigma < 0 need the declared-exponent path
    sigma = -0.4
    g = GradedGrid(1.0, 2048, 4.0)
    f = SampledFunction(g, g.nodes**sigma, singular_exponent=sigma)
    out = rl_integral_grid(0.5, f)
    want = math.gamma(sigma + 1.0) / math.gamma(sigma + 1.5) * g.nodes ** (sigma + 0.5)
    err = np.max(np.abs(out.values - want) / np.abs(want))
    assert err < 1e-6


def test_derivative_grid_on_smooth():
    g = GradedGrid(2.0, 4096, 2.0)
    out = derivative_grid(_sample(g, lambda x: x**2))
    inner = slice(10, -10)
    err = np.max(np.abs(out.values[inner] - 2.0 * g.nodes[inner]))
    assert err < 1e-4


def test_discrete_derivative_annihilates_kernel():
    spec = TRULY_2L
    g = GradedGrid(2.0, 2048, default_grading_exponent(spec))
    sg = spec.sigma[1]
    f = SampledFunction(g, g.nodes**sg, singular_exponent=sg)
    out = nth_level_derivative_grid(spec, f)
    # scale against the input magnitude away from the endpoints
    inner = slice(64, -8)
    scale = np.max(np.abs(f.values[inner]))
    assert np.max(np.abs(out.values[inner])) / scale < 5e-3


def test_discrete_derivative_of_monomial():
    spec = DerivativeSpec(1, 0.5, (0.5,))
    g = GradedGrid(2.0, 4096, 3.0)
    mu = 1.5
    out = nth_level_derivative_grid(spec, _sample(g, lambda x: x**mu))
    want = math.gamma(mu + 1.0) / math.gamma(mu + 1.0 - 0.5) * g.nodes ** (mu - 0.5)
    inner = slice(64, -8)
    err = np.max(np.abs(out.values[inner] - want[inner]) / np.abs(want[inner]))
    assert err < 1e-3


def test_laplace_numeric_exponential():
    g = GradedGrid(40.0, 4096, 2.0)
    f = _sample(g, lambda x: np.exp(-2.0 * x))
    # truncation past x_max costs about exp(-80), far below tolerance
    for s in (1.0, 2.0, 5.0):
        got = laplace_numeric(f, None, s)
        assert got == pytest.approx(1.0 / (s + 2.0), rel=1e-5, abs=0.0)


def test_laplace_numeric_power_tail():
    # declared singular part plus matching tail reproduce the transform
    # of x^-0.5 to special-function accuracy: the sampled remainder is
    # identically zero, so only the two analytic pieces contribute
    g = GradedGrid(5.0, 512, 2.0)
    f = SampledFunction(g, g.nodes**-0.5, singular_exponent=-0.5)
    for s in (1.0, 2.0, 5.0):
        got = laplace_numeric(f, ((1.0, -0.5),), s)
        assert got == pytest.approx(math.sqrt(math.pi / s), rel=1e-10, abs=0.0)


def test_csv_roundtrip(tmp_path):
    g = GradedGrid(1.0, 64, 2.0)
    f = SampledFunction(g, g.nodes**-0.3, singular_exponent=-0.3)
    path = str(tmp_path / "f.csv")
    write_csv(f, path)
    x, y, sigma = read_xy(path)
    np.testing.assert_allclose(x, g.nodes, rtol=0, atol=0)
    np.testing.assert_allclose(y, f.values, rtol=0, atol=0)
    assert sigma == pytest.approx(-0.3)


def test_csv_roundtrip_without_sigma(tmp_path):
    g = GradedGrid(1.0, 32, 1.0)
    f = SampledFunction(g, np.sin(g.nodes))
    path = str(tmp_path / "g.csv")
    write_csv(f, path)
    x, y, sigma = read_xy(path)
    assert sigma is None
    np.testing.assert_allclose(y, np.sin(x), rtol=0, atol=0)
