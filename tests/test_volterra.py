"""Successive-approximation solver against the closed forms."""

import numpy as np
import pytest

from nlfrac import (
    DerivativeSpec,
    GradedGrid,
    NonConvergenceError,
    ParameterOutOfRangeError,
    RelaxationProblem,
    VolterraProblem,
    default_grading_exponent,
    evaluate_solution_many,
    make_rhs,
    picard_solve,
    quadrature_matrix,
    reduce_spec,
    residual,
    solve_homogeneous,
    solve_relaxation,
)

from conftest import CAPUTO_1, RL_1, TAXONOMY, TRULY_2L


def _grid_for(spec, x_max=5.0, m=2048):
    return GradedGrid(x_max, m, default_grading_exponent(reduce_spec(spec)))


def test_problem_validation():
    g = _grid_for(CAPUTO_1)
    rhs = make_rhs("linear", {"c": -1.0})
    with pytest.raises(ParameterOutOfRangeError):
        VolterraProblem(CAPUTO_1, rhs, (1.0, 1.0), g)
    with pytest.raises(ParameterOutOfRangeError):
        VolterraProblem(CAPUTO_1, rhs, (1.0,), g, tol=0.0)
    with pytest.raises(ParameterOutOfRangeError):
        VolterraProblem(CAPUTO_1, rhs, (1.0,), g, max_iter=0)


def test_zero_forcing_returns_homogeneous():
    g = _grid_for(TRULY_2L)
    p = VolterraProblem(TRULY_2L, lambda x, y: 0.0 * y, (1.0, 2.0), g)
    res = picard_solve(p)
    assert res.converged
    assert res.iterations <= 2
    hom = solve_homogeneous(TRULY_2L, (1.0, 2.0))
    np.testing.assert_allclose(res.solution.values, hom.values(g.nodes), rtol=1e-12)


@pytest.mark.parametrize("spec", TAXONOMY, ids=lambda s: f"n{s.n}a{s.alpha}g{s.gamma}")
def test_linear_relaxation_matches_closed_form(spec):
    lam = 1.3
    n_eff = reduce_spec(spec).n
    y = (1.0,) * n_eff
    g = _grid_for(spec)
    p = VolterraProblem(spec, make_rhs("linear", {"c": -lam}), y, g,
                        tol=1e-9, max_iter=400)
    res = picard_solve(p)
    assert res.converged
    ref = evaluate_solution_many(solve_relaxation(RelaxationProblem(spec, lam, y)),
                                 g.nodes)
    mask = g.nodes >= 0.1
    dev = np.max(np.abs(res.solution.values[mask] - ref[mask]))
    dev /= np.max(np.abs(ref[mask]))
    assert dev <= 1e-5


def test_two_level_pointwise_accuracy():
    spec = DerivativeSpec(2, 0.5, (0.5, 0.4))
    g = GradedGrid(5.0, 4096, default_grading_exponent(spec))
    p = VolterraProblem(spec, make_rhs("linear", {"c": -1.0}), (1.0, 1.0), g,
                        tol=1e-10, max_iter=400)
    res = picard_solve(p)
    ref = evaluate_solution_many(
        solve_relaxation(RelaxationProblem(spec, 1.0, (1.0, 1.0))), g.nodes)
    mask = g.nodes >= 0.1
    rel = np.abs(res.solution.values[mask] - ref[mask]) / np.abs(ref[mask])
    assert float(np.max(rel)) < 1e-6


def test_residual_of_exact_solution_is_small():
    spec = CAPUTO_1
    lam = 1.0
    g = _grid_for(spec, x_max=2.0, m=2048)
    p = VolterraProblem(spec, make_rhs("linear", {"c": -lam}), (1.0,), g)
    sol = solve_relaxation(RelaxationProblem(spec, lam, (1.0,)))
    r = residual(p, evaluate_solution_many(sol, g.nodes))
    assert r < 1e-5


def test_residual_detects_perturbation():
    # pushing the candidate off by eps moves the defect into [eps(1-q), eps]
    spec = CAPUTO_1
    g = _grid_for(spec, x_max=1.0, m=2048)
    p = VolterraProblem(spec, lambda x, y: 0.5 * y, (1.0,), g)
    res = picard_solve(p)
    assert res.converged
    eps = 1e-3
    r = residual(p, res.solution.values + eps)
    q = 1.0 * 1.0**0.6 * 0.5 / 0.893515  # lam x^a / Gamma(1+a), rough
    assert eps * (1.0 - q) * 0.9 <= r <= eps * 1.001


def test_residual_after_solve_reuses_the_matrix(monkeypatch):
    import nlfrac.volterra as volterra
    built = []

    def recording(*args, **kwargs):
        W = quadrature_matrix(*args, **kwargs)
        built.append(W)
        return W

    monkeypatch.setattr(volterra, "quadrature_matrix", recording)
    g = _grid_for(CAPUTO_1, x_max=1.0, m=512)
    p = VolterraProblem(CAPUTO_1, make_rhs("linear", {"c": -0.8}), (1.0,), g)
    res = picard_solve(p)
    r = residual(p, res.solution)
    assert len(built) == 2
    assert built[1] is built[0]
    assert r == pytest.approx(res.residual, rel=1e-12, abs=1e-15)


def test_march_residual_matches_the_full_map():
    # the residual is read off the march block by block; residual()
    # applies the whole matrix, here across all sixteen blocks
    g = _grid_for(TRULY_2L, x_max=5.0, m=2048)
    p = VolterraProblem(TRULY_2L, make_rhs("logistic", {"a": 0.8, "b": 0.6}),
                        (1.0, 0.5), g)
    res = picard_solve(p)
    assert res.converged
    assert residual(p, res.solution) == pytest.approx(res.residual, rel=1e-12, abs=1e-15)


def test_iteration_contracts_monotonically():
    spec = CAPUTO_1
    g = _grid_for(spec, x_max=1.0, m=1024)
    p = VolterraProblem(spec, make_rhs("linear", {"c": -0.8}), (1.0,), g,
                        tol=1e-12, max_iter=100)
    res = picard_solve(p)
    assert res.converged
    assert res.residual < 1e-10


def test_logistic_forcing_stays_bounded():
    spec = CAPUTO_1
    g = _grid_for(spec, x_max=5.0, m=1024)
    rhs = make_rhs("logistic", {"a": 1.0, "b": 0.5})
    p = VolterraProblem(spec, rhs, (0.1,), g, tol=1e-10, max_iter=200)
    res = picard_solve(p)
    assert res.converged
    assert np.all(res.solution.values > 0.0)
    assert np.max(res.solution.values) < 2.0
    # growth toward the carrying capacity a/b
    assert res.solution.values[-1] > res.solution.values[0]


def test_max_iter_exhaustion_reports_not_converged():
    spec = CAPUTO_1
    g = _grid_for(spec, x_max=5.0, m=512)
    p = VolterraProblem(spec, make_rhs("linear", {"c": -1.3}), (1.0,), g,
                        tol=1e-14, max_iter=3)
    res = picard_solve(p)
    assert not res.converged
    assert res.iterations == 3


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_blowup_raises():
    spec = CAPUTO_1
    g = _grid_for(spec, x_max=5.0, m=512)
    p = VolterraProblem(spec, lambda x, y: y**3 + 50.0, (1.0,), g,
                        tol=1e-10, max_iter=200)
    with pytest.raises(NonConvergenceError):
        picard_solve(p)


def test_scalar_only_rhs_is_accepted():
    # callables that cannot take arrays fall back to a scalar loop
    spec = CAPUTO_1
    g = _grid_for(spec, x_max=2.0, m=256)
    def rhs(x, y):
        if hasattr(x, "__len__"):
            raise TypeError("scalar only")
        return -float(y)
    p = VolterraProblem(spec, rhs, (1.0,), g, tol=1e-8, max_iter=200)
    res = picard_solve(p)
    assert res.converged


def test_rhs_registry():
    lin = make_rhs("linear", {"c": -2.0})
    assert lin(0.5, 3.0) == pytest.approx(-6.0)
    logi = make_rhs("logistic", {"a": 1.0, "b": 0.5})
    assert logi(0.0, 2.0) == pytest.approx(2.0 - 0.5 * 4.0)
    with pytest.raises(Exception):
        make_rhs("unknown", {})
    with pytest.raises(ParameterOutOfRangeError):
        make_rhs("linear", {"wrong": 1.0})


# the picard benchmark pool's n = 1 spec
POOL_SPEC = DerivativeSpec(1, 0.491507526320609, (0.33132878455898657,))
POOL_Y = (0.8439610023310555,)


def _pool_deviation(lam):
    g = _grid_for(POOL_SPEC, x_max=2.0, m=2048)
    p = VolterraProblem(POOL_SPEC, make_rhs("linear", {"c": -lam}), POOL_Y, g)
    res = picard_solve(p)
    ref = evaluate_solution_many(
        solve_relaxation(RelaxationProblem(POOL_SPEC, lam, POOL_Y)), g.nodes)
    mask = g.nodes >= 0.1
    dev = np.max(np.abs(res.solution.values[mask] - ref[mask]))
    return res, dev / np.max(np.abs(ref[mask]))


@pytest.mark.parametrize("lam", [3.0, 5.0])
def test_high_rates_converge_to_closed_form(lam):
    # sweeps of the whole map stop unconverged here, and diverge at rate 5
    res, dev = _pool_deviation(lam)
    assert res.converged
    assert dev <= 1e-5


def test_very_high_rate_is_reported_honestly():
    res, dev = _pool_deviation(10.0)
    assert not res.converged or dev <= 1e-5


@pytest.mark.parametrize("m", [2, 129, 300, 1000])
@pytest.mark.parametrize("declared", [True, False], ids=["declared", "undeclared"])
def test_march_matches_dense_solve(m, declared):
    # forcing c y + b: the discrete solution solves (I - c W) y = hom + b W 1.
    # Non-zero initial data give the homogeneous part a declared x^-0.4;
    # zero data with a constant source leave the exponent undeclared.
    c = -0.8
    y, b = ((1.0,), 0.0) if declared else ((0.0,), 1.0)
    g = _grid_for(RL_1, x_max=1.0, m=m)
    p = VolterraProblem(RL_1, lambda x, v: c * v + b, y, g, tol=1e-12)
    res = picard_solve(p)
    assert res.converged
    lead = res.solution.singular_exponent
    assert (lead is not None) == declared
    W = quadrature_matrix(RL_1.alpha, g, singular_exponent=lead)
    hom = solve_homogeneous(RL_1, y)
    hom_vals = np.zeros(m) if hom.is_zero else hom.values(g.nodes)
    ref = np.linalg.solve(np.eye(m) - c * W, hom_vals + b * W.sum(axis=1))
    dev = np.max(np.abs(res.solution.values - ref)) / np.max(np.abs(ref))
    assert dev <= 1e-10
