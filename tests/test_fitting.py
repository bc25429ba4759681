"""Parameter recovery from sampled relaxation curves."""

import numpy as np
import pytest

from nlfrac import (
    DerivativeSpec,
    FitProblem,
    ParameterOutOfRangeError,
    RelaxationProblem,
    evaluate_solution_many,
    fit_relaxation,
    fit_report_tail,
    model_values,
    parameter_names,
    solve_relaxation,
)


TRUTH_SPEC = DerivativeSpec(2, 0.5, (0.5, 0.4))
TRUTH = {"alpha": 0.5, "gamma_1": 0.5, "gamma_2": 0.4,
         "lambda": 1.3, "y_1": 1.0, "y_2": 0.7}


def _curve(n_pts=60, x_max=4.0):
    xs = np.linspace(0.05, x_max, n_pts)
    p = RelaxationProblem(TRUTH_SPEC, TRUTH["lambda"], (TRUTH["y_1"], TRUTH["y_2"]))
    return xs, evaluate_solution_many(solve_relaxation(p), xs)


def _names(n):
    return parameter_names(n)


def test_parameter_names_layout():
    assert _names(2) == ("alpha", "gamma_1", "gamma_2", "lambda", "y_1", "y_2")
    assert _names(1) == ("alpha", "gamma_1", "lambda", "y_1")


def _problem(free, jitter=None, **kw):
    xs, ys = _curve()
    names = _names(2)
    mask = tuple(nm in free for nm in names)
    guess = tuple(TRUTH[nm] * (1.0 if jitter is None else jitter)
                  if mask[i] else TRUTH[nm]
                  for i, nm in enumerate(names))
    bounds = ((0.01, 1.0), (0.0, 0.999), (0.0, 0.999),
              (1e-3, 1e2), (-1e2, 1e2), (-1e2, 1e2))
    return FitProblem(xs, ys, 2, mask, bounds, guess, **kw)


def test_recovery_of_rate_and_first_weight():
    p = _problem({"lambda", "y_1"}, jitter=1.6)
    for seed in (0, 1):
        r = fit_relaxation(p, seed=seed)
        assert r.converged
        assert r.parameters["lambda"] == pytest.approx(TRUTH["lambda"], rel=1e-2, abs=0.0)
        assert r.parameters["y_1"] == pytest.approx(TRUTH["y_1"], rel=1e-2, abs=0.0)
        # fixed entries pass through untouched
        assert r.parameters["alpha"] == TRUTH["alpha"]


def test_rss_at_truth_is_negligible():
    p = _problem({"lambda", "y_1"}, jitter=1.02)
    r = fit_relaxation(p, seed=0)
    assert r.rss < 1e-18


def test_row_order_does_not_matter():
    xs, ys = _curve()
    perm = np.random.default_rng(5).permutation(len(xs))
    names = _names(2)
    mask = tuple(nm in {"lambda", "y_1"} for nm in names)
    guess = tuple(TRUTH[nm] * (1.3 if mask[i] else 1.0) for i, nm in enumerate(names))
    bounds = ((0.01, 1.0), (0.0, 0.999), (0.0, 0.999),
              (1e-3, 1e2), (-1e2, 1e2), (-1e2, 1e2))
    a = fit_relaxation(FitProblem(xs, ys, 2, mask, bounds, guess), seed=3)
    b = fit_relaxation(FitProblem(xs[perm], ys[perm], 2, mask, bounds, guess), seed=3)
    assert a.parameters == b.parameters
    assert a.rss == b.rss


def test_downweighting_the_origin_still_recovers():
    p = _problem({"lambda"}, jitter=1.4, downweight_origin=True)
    r = fit_relaxation(p, seed=0)
    assert r.parameters["lambda"] == pytest.approx(TRUTH["lambda"], rel=1e-2, abs=0.0)


def test_infeasible_guess_raises():
    # an out-of-box guess on a free coordinate gets pulled back inside
    # the box, so infeasibility has to come from the fixed ones: here
    # the pinned spec violates the partial-sum cap (0.9 + 1.499 > 2)
    xs, ys = _curve()
    mask = (False, False, False, True, False, False)
    guess = (0.9, 0.5, 0.999, 1.0, 1.0, 0.7)
    bounds = ((0.01, 1.0), (0.0, 0.999), (0.0, 0.999),
              (1e-3, 1e2), (-1e2, 1e2), (-1e2, 1e2))
    with pytest.raises(ParameterOutOfRangeError):
        fit_relaxation(FitProblem(xs, ys, 2, mask, bounds, guess), seed=0)


def test_x_must_be_positive_and_distinct():
    names = _names(1)
    mask = (False, False, True, False)
    bounds = ((0.01, 1.0), (0.0, 0.999), (1e-3, 1e2), (-1e2, 1e2))
    guess = (0.6, 0.4, 1.0, 1.0)
    with pytest.raises(ParameterOutOfRangeError):
        FitProblem(np.array([0.0, 1.0]), np.array([1.0, 0.5]), 1,
                   mask, bounds, guess)
    with pytest.raises(ParameterOutOfRangeError):
        FitProblem(np.array([1.0, 1.0]), np.array([1.0, 0.5]), 1,
                   mask, bounds, guess)


def test_at_least_one_parameter_must_be_free():
    xs, ys = _curve()
    bounds = ((0.01, 1.0), (0.0, 0.999), (0.0, 0.999),
              (1e-3, 1e2), (-1e2, 1e2), (-1e2, 1e2))
    with pytest.raises(ParameterOutOfRangeError):
        FitProblem(xs, ys, 2, (False,) * 6, bounds,
                   tuple(TRUTH[nm] for nm in _names(2)))


def test_model_values_roundtrip():
    xs, ys = _curve()
    vec = np.array([TRUTH[nm] for nm in _names(2)])
    np.testing.assert_allclose(model_values(vec, 2, xs), ys, rtol=1e-13)


def test_result_report_shape():
    p = _problem({"lambda"}, jitter=1.2)
    r = fit_relaxation(p, seed=0)
    d = r.to_dict()
    assert set(d) >= {"parameters", "rss", "iterations", "converged"}
    assert r.cm is not None


def test_tail_report_leading_coefficient():
    import math
    p = _problem({"lambda"}, jitter=1.1)
    r = fit_relaxation(p, seed=0)
    tail = fit_report_tail(r, 2)
    lead = tail.leading
    assert lead is not None
    d, ex = lead
    # slowest power s_1 - 1 with weight y_1 / (lam Gamma(s_1))
    assert ex == pytest.approx(TRUTH_SPEC.s[0] - 1.0)
    want = TRUTH["y_1"] / (r.parameters["lambda"] * math.gamma(TRUTH_SPEC.s[0]))
    assert d == pytest.approx(want, rel=1e-6, abs=0.0)


def test_only_initial_values_free_is_a_linear_solve():
    p = _problem({"y_1", "y_2"}, jitter=3.0)
    r = fit_relaxation(p, seed=0)
    assert r.iterations == 0
    assert r.converged
    for nm in ("y_1", "y_2"):
        assert r.parameters[nm] == pytest.approx(TRUTH[nm], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("y2_box", [(-1e2, 0.5), (0.5, 0.5)])
def test_initial_value_at_its_bound(y2_box):
    # y_2 capped below its true 0.7: the bounded solve pins it at the cap
    # and y_1 takes the one-column least-squares value against the rest
    xs, ys = _curve()
    names = _names(2)
    mask = tuple(nm in {"y_1", "y_2"} for nm in names)
    guess = tuple(TRUTH[nm] for nm in names)
    bounds = ((0.01, 1.0), (0.0, 0.999), (0.0, 0.999),
              (1e-3, 1e2), (-1e2, 1e2), y2_box)
    r = fit_relaxation(FitProblem(xs, ys, 2, mask, bounds, guess), seed=0)
    phi1, phi2 = (evaluate_solution_many(solve_relaxation(
        RelaxationProblem(TRUTH_SPEC, TRUTH["lambda"], y)), xs) for y in ((1.0, 0.0), (0.0, 1.0)))
    y1 = phi1 @ (ys - 0.5 * phi2) / (phi1 @ phi1)
    assert r.iterations == 0
    assert r.parameters["y_2"] == pytest.approx(0.5, rel=1e-12, abs=0.0)
    assert r.parameters["y_1"] == pytest.approx(y1, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("free, start", [
    ({"alpha", "lambda", "y_1", "y_2"}, 0.9),
    ({"alpha", "gamma_1", "lambda", "y_1", "y_2"}, 0.95),
])
def test_several_nonlinear_entries_free(free, start):
    r = fit_relaxation(_problem(free, jitter=start), seed=0)
    assert r.converged
    for nm in free:
        assert r.parameters[nm] == pytest.approx(TRUTH[nm], rel=1e-8, abs=0.0)


def test_fit_leaves_scipy_optimize_unimported():
    # the bounded linear solve imports scipy.optimize only where a y box
    # binds (test_initial_value_at_its_bound); importing the package and
    # a fit whose boxes do not bind must not load it
    import os
    import subprocess
    import sys

    import nlfrac

    script = (
        "import sys\n"
        "import numpy as np\n"
        "import nlfrac as nf\n"
        "spec = nf.DerivativeSpec(2, 0.5, (0.5, 0.4))\n"
        "xs = np.linspace(0.05, 4.0, 40)\n"
        "ys = nf.evaluate_solution_many(nf.solve_relaxation(\n"
        "    nf.RelaxationProblem(spec, 1.3, (1.0, 0.7))), xs)\n"
        "bounds = ((0.01, 1.0), (0.0, 0.999), (0.0, 0.999),\n"
        "          (1e-3, 1e2), (-1e2, 1e2), (-1e2, 1e2))\n"
        "prob = nf.FitProblem(xs, ys, 2, (False, False, False, True, True, True),\n"
        "                     bounds, (0.5, 0.5, 0.4, 1.6, 1.0, 0.7))\n"
        "assert nf.fit_relaxation(prob).converged\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(nlfrac.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_rate_fit_takes_few_basis_evaluations(monkeypatch):
    # the simplex took 51 basis evaluations on this problem
    import nlfrac.fitting as fitting

    calls = []
    basis = fitting._basis
    monkeypatch.setattr(fitting, "_basis", lambda *a: calls.append(1) or basis(*a))
    r = fit_relaxation(_problem({"lambda", "y_1"}, jitter=1.3), seed=0)
    assert r.converged
    assert r.parameters["lambda"] == pytest.approx(TRUTH["lambda"], rel=1e-8, abs=0.0)
    assert len(calls) <= 16
    assert r.iterations <= 8
