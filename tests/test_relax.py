"""Closed-form relaxation solutions, asymptotics, and monotonicity checks."""

import math

import numpy as np
import pytest

from nlfrac import (
    DerivativeSpec,
    EvaluationAtZeroUndefinedError,
    ParameterOutOfRangeError,
    RelaxationProblem,
    asymptotic_form,
    closed_form_laplace,
    cm_numeric_check,
    cm_verdict,
    evaluate_solution,
    evaluate_solution_many,
    laplace_verify,
    reciprocal_gamma,
    solve_homogeneous,
    solve_relaxation,
)

from conftest import CAPUTO_1, HILFER_1, RL_1, TAXONOMY, TRULY_2L


def test_problem_validation():
    with pytest.raises(ParameterOutOfRangeError):
        RelaxationProblem(CAPUTO_1, -1.0, (1.0,))
    with pytest.raises(ParameterOutOfRangeError):
        RelaxationProblem(CAPUTO_1, 0.0, (1.0,))
    with pytest.raises(ParameterOutOfRangeError):
        RelaxationProblem(TRULY_2L, 1.0, (1.0,))
    with pytest.raises(ParameterOutOfRangeError):
        RelaxationProblem(CAPUTO_1, 1.0, (float("nan"),))


def test_initial_values_follow_the_reduced_level():
    # a spec that collapses to level one takes one initial value
    spec = DerivativeSpec(2, 0.6, (0.1, 1.0))
    p = RelaxationProblem(spec, 1.0, (1.0,))
    assert p.terminal.n == 1
    with pytest.raises(ParameterOutOfRangeError):
        RelaxationProblem(spec, 1.0, (1.0, 1.0))


def test_solution_term_structure():
    p = RelaxationProblem(TRULY_2L, 1.3, (1.0, 2.0))
    sol = solve_relaxation(p)
    assert sol.alpha == pytest.approx(0.6)
    assert len(sol.terms) == 2
    assert sol.sigmas == pytest.approx(TRULY_2L.sigma)
    assert sol.weights == pytest.approx((1.0, 2.0))
    for w, params in sol.terms:
        assert params.alpha == pytest.approx(0.6)
        assert params.lam == pytest.approx(1.3)
    # each term carries beta = gamma_w = sigma_k + 1
    betas = sorted(t[1].beta for t in sol.terms)
    assert betas == pytest.approx(sorted(s + 1.0 for s in TRULY_2L.sigma))


def test_classical_exponential_limit():
    # alpha = 1 collapses every type onto plain exponential decay
    spec = DerivativeSpec(1, 1.0, (0.0,))
    sol = solve_relaxation(RelaxationProblem(spec, 2.0, (1.0,)))
    xs = np.linspace(0.025, 5.0, 200)
    got = evaluate_solution_many(sol, xs)
    np.testing.assert_allclose(got, np.exp(-2.0 * xs), rtol=1e-13, atol=1e-15)
    # both paths take the x = 0 limit term by term
    assert evaluate_solution(sol, 0.0) == pytest.approx(1.0, rel=1e-14, abs=0.0)
    assert evaluate_solution_many(sol, np.array([0.0]))[0] == pytest.approx(1.0, rel=1e-14, abs=0.0)


def test_batch_evaluation_includes_the_origin():
    sol = solve_relaxation(RelaxationProblem(DerivativeSpec(1, 0.6, (0.4,)), 1.0, (1.0,)))
    got = sol(np.array([0.0, 1.0]))
    assert got[0] == pytest.approx(evaluate_solution(sol, 0.0), rel=1e-15, abs=0.0)
    assert got[1] == pytest.approx(evaluate_solution(sol, 1.0), rel=1e-14, abs=0.0)
    # a term whose weight diverges at 0 has no value there on either path
    rl = solve_relaxation(RelaxationProblem(RL_1, 1.0, (1.0,)))
    with pytest.raises(EvaluationAtZeroUndefinedError):
        evaluate_solution(rl, 0.0)
    with pytest.raises(EvaluationAtZeroUndefinedError):
        rl(np.array([0.0, 1.0]))


def test_batch_evaluation_keeps_the_shape():
    sol = solve_relaxation(RelaxationProblem(DerivativeSpec(1, 0.6, (0.4,)), 1.0, (1.0,)))
    x = np.array([[0.5, 1.0], [2.0, 30.0]])
    got = sol(x)
    assert got.shape == x.shape
    np.testing.assert_array_equal(got, sol(x.ravel()).reshape(x.shape))


def test_half_order_matches_erfcx_composition():
    from scipy.special import erfcx
    spec = DerivativeSpec(1, 0.5, (0.5,))
    p = RelaxationProblem(spec, 1.0, (1.0,))
    xs = np.linspace(0.01, 5.0, 100)
    got = evaluate_solution_many(solve_relaxation(p), xs)
    want = erfcx(np.sqrt(xs))
    np.testing.assert_allclose(got, want, rtol=1e-11)


def test_homogeneous_part():
    hom = solve_homogeneous(TRULY_2L, (1.0, 2.0))
    got = {round(mu, 9): c for c, mu in hom.terms}
    for yk, sg in zip((1.0, 2.0), TRULY_2L.sigma):
        assert got[round(sg, 9)] == pytest.approx(yk * reciprocal_gamma(sg + 1.0))


def test_zero_weight_drops_term():
    hom = solve_homogeneous(TRULY_2L, (0.0, 2.0))
    assert len(hom.terms) == 1


def test_small_x_recovers_homogeneous_data():
    p = RelaxationProblem(TRULY_2L, 1.3, (0.7, 1.8))
    sol = solve_relaxation(p)
    hom = solve_homogeneous(TRULY_2L, (0.7, 1.8))
    x = 1e-8
    assert evaluate_solution(sol, x) == pytest.approx(hom.evaluate(x), rel=1e-3, abs=0.0)


def test_evaluate_rejects_negative_x():
    p = RelaxationProblem(CAPUTO_1, 1.0, (1.0,))
    sol = solve_relaxation(p)
    with pytest.raises(ParameterOutOfRangeError):
        evaluate_solution(sol, -0.5)


def test_evaluate_at_zero_singular_solution():
    p = RelaxationProblem(RL_1, 1.0, (1.0,))
    sol = solve_relaxation(p)
    with pytest.raises(EvaluationAtZeroUndefinedError):
        evaluate_solution(sol, 0.0)


def test_solution_to_dict_shape():
    p = RelaxationProblem(TRULY_2L, 1.3, (1.0, 2.0))
    d = solve_relaxation(p).to_dict()
    assert d["alpha"] == pytest.approx(0.6)
    assert d["lambda"] == pytest.approx(1.3)
    assert len(d["terms"]) == 2
    assert set(d["terms"][0]) == {"y", "sigma", "beta"}


def test_taxonomy_solutions_evaluate_finite():
    from nlfrac import reduce_spec
    xs = np.linspace(0.05, 8.0, 300)
    for spec in TAXONOMY:
        n_eff = reduce_spec(spec).n
        p = RelaxationProblem(spec, 1.0, (1.0,) * n_eff)
        vals = evaluate_solution_many(solve_relaxation(p), xs)
        assert np.all(np.isfinite(vals))
        # unit data with admissible types stays positive
        if cm_verdict(p).admissible_by_theorem:
            assert np.all(vals > 0.0)


def test_asymptotic_coefficients():
    lam = 1.3
    y = (0.7, 1.8)
    p = RelaxationProblem(TRULY_2L, lam, y)
    tail = asymptotic_form(p)
    got = dict()
    for d, ex in tail.terms:
        got[round(ex, 9)] = d
    for yk, sk, k in zip(y, TRULY_2L.s, (1, 2)):
        want = yk * reciprocal_gamma(sk - k + 1.0) / lam
        assert got[round(sk - k, 9)] == pytest.approx(want, rel=1e-13, abs=0.0)


def test_asymptotic_form_improves_with_x():
    # the remainder after the leading tail term shrinks like x^{-alpha}
    p = RelaxationProblem(CAPUTO_1, 1.0, (1.0,))
    tail = asymptotic_form(p)
    sol = solve_relaxation(p)
    devs = []
    for x in (1e4, 1e6):
        lead = sum(d * x**ex for d, ex in tail.terms)
        devs.append(abs(evaluate_solution(sol, x) - lead) / abs(lead))
    assert devs[1] < devs[0]
    assert devs[1] < 1e-3


def test_rl_leading_term_drops_out():
    # type (0) kills the slowest power through the Gamma pole
    p = RelaxationProblem(RL_1, 1.0, (1.0,))
    tail = asymptotic_form(p)
    ds = dict((round(ex, 9), d) for d, ex in tail.terms)
    assert ds[round(RL_1.s[0] - 1, 9)] == 0.0
    assert tail.leading is None


def test_measured_decay_slopes():
    # log-log slope between 1e3 and 1e5 against the surviving tail power
    cases = [
        (CAPUTO_1, 0.4 - 1.0),
        (TRULY_2L, 0.4 - 1.0),
        (HILFER_1, 0.2 - 1.0),
    ]
    for spec, want in cases:
        p = RelaxationProblem(spec, 1.0, (1.0,) * spec.n)
        sol = solve_relaxation(p)
        lo, hi = 1e3, 1e5
        slope = (math.log(abs(evaluate_solution(sol, hi)))
                 - math.log(abs(evaluate_solution(sol, lo)))) / math.log(hi / lo)
        assert slope == pytest.approx(want, abs=0.02)


def test_rl_decay_is_strictly_faster():
    p = RelaxationProblem(RL_1, 1.0, (1.0,))
    sol = solve_relaxation(p)
    lo, hi = 1e3, 1e5
    slope = (math.log(abs(evaluate_solution(sol, hi)))
             - math.log(abs(evaluate_solution(sol, lo)))) / math.log(hi / lo)
    # with the s_1 - 1 power gone the decay beats that exponent clearly
    assert slope < (RL_1.s[0] - 1.0) - 0.3
    assert slope == pytest.approx(RL_1.alpha - 1.0 - 2.0 * RL_1.alpha, abs=0.02)


def test_cm_verdict_admissible():
    spec = DerivativeSpec(2, 0.5, (0.5, 0.5))
    rep = cm_verdict(RelaxationProblem(spec, 1.0, (1.0, 1.0)))
    assert rep.admissible_by_theorem is True


def test_cm_verdict_negative_weight():
    spec = DerivativeSpec(2, 0.5, (0.5, 0.5))
    rep = cm_verdict(RelaxationProblem(spec, 1.0, (1.0, -1.0)))
    assert rep.admissible_by_theorem is False
    assert any("y_2" in note for note in rep.notes)


def test_cm_verdict_partial_sum_shortfall():
    spec = DerivativeSpec(2, 0.9, (0.05, 0.1))
    rep = cm_verdict(RelaxationProblem(spec, 1.0, (1.0, 1.0)))
    assert rep.admissible_by_theorem is False
    assert any("s_2" in note for note in rep.notes)


def test_numeric_cm_scan_clean_on_exponential():
    rep = cm_numeric_check(lambda x: np.exp(-x), 1e-2, 1e3, max_order=8)
    assert rep.violations == ()
    assert rep.numeric_orders_checked == 8


def test_numeric_cm_scan_flags_oscillation():
    rep = cm_numeric_check(lambda x: np.sin(x) + 2.0, 1e-2, 50.0, max_order=4)
    orders = sorted(set(m for m, _, _ in rep.violations))
    assert orders
    assert min(orders) <= 2


def test_numeric_cm_scan_admissible_solution():
    spec = DerivativeSpec(2, 0.5, (0.5, 0.5))
    p = RelaxationProblem(spec, 1.0, (1.0, 1.0))
    sol = solve_relaxation(p)
    rep = cm_numeric_check(sol, 1e-2, 1e3, max_order=6)
    assert rep.violations == ()


def test_numeric_cm_scan_inadmissible_solution():
    # shortfall case: the solution itself crosses zero
    spec = DerivativeSpec(2, 0.9, (0.05, 0.1))
    p = RelaxationProblem(spec, 1.0, (0.0, 1.0))
    sol = solve_relaxation(p)
    rep = cm_numeric_check(sol, 1e-2, 1e3, max_order=6)
    assert rep.violations
    assert min(m for m, _, _ in rep.violations) <= 3


def test_laplace_closed_form_value():
    lam = 1.3
    p = RelaxationProblem(TRULY_2L, lam, (1.0, 2.0))
    s = 2.0
    num = sum(yk * s ** (k - sk - 1.0)
              for yk, sk, k in zip((1.0, 2.0), TRULY_2L.s, (1, 2)))
    want = num / (s**TRULY_2L.alpha + lam)
    assert closed_form_laplace(p, s) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("spec", [RL_1, CAPUTO_1, TRULY_2L])
def test_laplace_transform_consistency(spec):
    p = RelaxationProblem(spec, 1.0, (1.0,) * spec.n)
    chk = laplace_verify(p, (1.0, 2.0, 5.0))
    assert chk.max_rel_dev <= 1e-5
    assert len(chk.entries) == 3
