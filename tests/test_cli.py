"""Command line behaviour: formats, exit codes, file hygiene."""

import json
import os

import numpy as np
import pytest

from nlfrac.cli import _draw_truly_spec, run
from nlfrac.specparams import validate


def test_mlf_text_output(capsys):
    rc = run(["mlf", "--alpha", "0.5", "--beta", "1.0", "--z", "-2.0"])
    out = capsys.readouterr().out
    assert rc == 0
    value, regime = out.split()
    assert float(value) == pytest.approx(0.25539567631050186, rel=1e-13, abs=0.0)
    assert regime == "regime=integral"


def test_mlf_json_output(capsys):
    rc = run(["mlf", "--alpha", "0.5", "--beta", "1.0", "--z", "-2.0",
              "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(0.25539567631050186, rel=1e-13, abs=0.0)


def test_classify_inline(capsys):
    rc = run(["classify", "--alpha", "0.6", "--gamma", "0.1,1.0"])
    assert rc == 0
    assert "Hilfer(0.1" in capsys.readouterr().out


def test_classify_json_carries_validation(capsys):
    rc = run(["classify", "--alpha", "0.6", "--gamma", "0.4,0.6",
              "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "TrulyNthLevel(n=2)"
    assert doc["validation"]["valid"] is True


def test_classify_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 1, "alpha": 0.6, "gamma": [0.4]}))
    rc = run(["classify", "--spec", str(spec)])
    assert rc == 0
    assert "Caputo" in capsys.readouterr().out


def test_classify_requires_exactly_one_source(capsys):
    rc = run(["classify"])
    assert rc == 1


def test_solve_writes_curve_and_sidecar(tmp_path):
    out = tmp_path / "sol.csv"
    rc = run(["solve", "--alpha", "0.6", "--gamma", "0.4,0.6",
              "--lambda", "1.3", "--init", "1.0,2.0",
              "--xmax", "4.0", "--points", "512", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# sigma=")
    assert lines[1] == "x,y"
    meta = json.loads((tmp_path / "sol.json").read_text())
    assert meta["lambda"] == pytest.approx(1.3)
    assert meta["cm_admissible"] in (True, False)
    assert len(meta["asymptotic_terms"]) == 2


def test_solve_rejects_bad_rate_without_partial_file(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    rc = run(["solve", "--alpha", "0.6", "--gamma", "0.4,0.6",
              "--lambda", "-1.0", "--init", "1.0,2.0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "must be > 0" in err
    assert not out.exists()
    assert not any(p.name.startswith(".nlfrac-") for p in tmp_path.iterdir())


def test_solve_wrong_init_arity(tmp_path, capsys):
    rc = run(["solve", "--alpha", "0.6", "--gamma", "0.4,0.6",
              "--lambda", "1.0", "--init", "1.0"])
    assert rc == 1


def test_picard_agrees_with_solve(tmp_path):
    a = tmp_path / "closed.csv"
    b = tmp_path / "iter.csv"
    common = ["--alpha", "0.6", "--gamma", "0.4,0.6", "--init", "1.0,1.0",
              "--xmax", "3.0", "--points", "1024"]
    assert run(["solve", *common, "--lambda", "1.0", "--out", str(a)]) == 0
    assert run(["picard", *common, "--rhs", "linear:-1.0", "--out", str(b)]) == 0
    xa, ya, _ = _read_curve(a)
    xb, yb, _ = _read_curve(b)
    np.testing.assert_allclose(xa, xb, rtol=0, atol=0)
    mask = xa >= 0.1
    dev = np.max(np.abs(ya[mask] - yb[mask]) / np.abs(ya[mask]))
    assert dev < 1e-4
    log = json.loads((tmp_path / "iter.json").read_text())
    assert log["converged"] is True
    assert log["iterations"] >= 1


def _read_curve(path):
    from nlfrac import read_xy
    return read_xy(str(path))


def test_picard_exhaustion_exits_two_but_writes(tmp_path):
    out = tmp_path / "p.csv"
    rc = run(["picard", "--alpha", "0.6", "--gamma", "0.4,0.6",
              "--rhs", "linear:-1.0", "--init", "1.0,1.0",
              "--max-iter", "1", "--out", str(out)])
    assert rc == 2
    assert out.exists()
    log = json.loads((tmp_path / "p.json").read_text())
    assert log["converged"] is False


def test_seed_and_tol_only_where_used(tmp_path, capsys):
    solve = ["solve", "--alpha", "0.6", "--gamma", "0.4,0.6",
             "--lambda", "1.0", "--init", "1.0,1.0"]
    assert run([*solve, "--tol", "1e-3"]) == 1
    assert run([*solve, "--seed", "3"]) == 1
    assert run(["mlf", "--alpha", "0.5", "--beta", "1.0", "--z", "-2.0", "--tol", "1e-3"]) == 1
    out = tmp_path / "p.csv"
    picard = ["picard", "--alpha", "0.6", "--gamma", "0.4,0.6", "--rhs", "linear:-1.0",
              "--init", "1.0,1.0", "--max-iter", "1", "--out", str(out)]
    assert run([*picard, "--seed", "3"]) == 1
    assert not out.exists()
    # without --tol, picard records its default stopping tolerance
    assert run(picard) == 2
    assert json.loads((tmp_path / "p.json").read_text())["tol"] == 1e-8


def test_picard_unknown_rhs(capsys):
    rc = run(["picard", "--alpha", "0.6", "--gamma", "0.4,0.6",
              "--rhs", "cubic:1.0", "--init", "1.0,1.0"])
    assert rc == 1


def test_fit_recovers_rate(tmp_path):
    from nlfrac import (DerivativeSpec, RelaxationProblem, evaluate_solution_many,
                        solve_relaxation)
    spec = DerivativeSpec(2, 0.5, (0.5, 0.4))
    xs = np.linspace(0.05, 4.0, 80)
    ys = evaluate_solution_many(
        solve_relaxation(RelaxationProblem(spec, 1.3, (1.0, 0.7))), xs)
    data = tmp_path / "data.csv"
    data.write_text("x,y\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(xs, ys)))
    out = tmp_path / "fit.json"
    rc = run(["fit", "--data", str(data), "--n", "2",
              "--free", "lambda,y_1",
              "--guess", "0.5,0.5,0.4,2.0,1.5,0.7",
              "--out", str(out), "--format", "json"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["parameters"]["lambda"] == pytest.approx(1.3, rel=1e-2, abs=0.0)
    assert doc["parameters"]["y_1"] == pytest.approx(1.0, rel=1e-2, abs=0.0)
    assert (tmp_path / "fit_curve.csv").exists()


def test_unconverged_fit_exits_two_but_writes(tmp_path, monkeypatch):
    import nlfrac.cli
    from nlfrac import (DerivativeSpec, RelaxationProblem, evaluate_solution_many,
                        fit_relaxation, solve_relaxation)
    monkeypatch.setattr(nlfrac.cli, "fit_relaxation",
                        lambda prob, seed: fit_relaxation(prob, seed=seed, max_iter=1))
    spec = DerivativeSpec(2, 0.5, (0.5, 0.4))
    xs = np.linspace(0.05, 4.0, 40)
    ys = evaluate_solution_many(
        solve_relaxation(RelaxationProblem(spec, 1.3, (1.0, 0.7))), xs)
    data = tmp_path / "data.csv"
    data.write_text("x,y\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(xs, ys)))
    out = tmp_path / "fit.json"
    rc = run(["fit", "--data", str(data), "--n", "2", "--free", "lambda,y_1",
              "--guess", "0.5,0.5,0.4,2.0,1.5,0.7", "--out", str(out)])
    assert rc == 2
    assert json.loads(out.read_text())["converged"] is False
    assert (tmp_path / "fit_curve.csv").exists()


def test_fit_accepts_bare_aliases(tmp_path):
    from nlfrac import (DerivativeSpec, RelaxationProblem, evaluate_solution_many,
                        solve_relaxation)
    spec = DerivativeSpec(1, 0.6, (0.4,))
    xs = np.linspace(0.05, 4.0, 50)
    ys = evaluate_solution_many(
        solve_relaxation(RelaxationProblem(spec, 1.0, (1.0,))), xs)
    data = tmp_path / "d.csv"
    data.write_text("x,y\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(xs, ys)))
    rc = run(["fit", "--data", str(data), "--n", "1", "--free", "lam,y1",
              "--guess", "0.6,0.4,1.4,1.2", "--out", str(data.parent / "o.json"),
              "--format", "json"])
    assert rc == 0


def test_verify_clean_suite(capsys):
    rc = run(["verify", "kernel", "--trials", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["failures"] == []
    assert doc["trials"] == 10


def test_verify_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["verify", "ftfc", "--trials", "8", "--out", str(a)]) == 0
    assert run(["verify", "ftfc", "--trials", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_verify_seed_changes_draws(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["verify", "ftfc", "--trials", "8", "--seed", "1", "--out", str(a)]) == 0
    assert run(["verify", "ftfc", "--trials", "8", "--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_truly_spec_draws_never_fail():
    # alpha + s_{k-1} may land next to k - 2, the lower end of its range,
    # and gamma_k must still have a non-empty range to come from
    rng = np.random.default_rng(0)
    for _ in range(20000):
        spec = _draw_truly_spec(rng, int(rng.integers(1, 5)))
        assert validate(spec).truly_nth_level, spec


@pytest.mark.parametrize("suite,seed", [("kernel", 3), ("projector", 2)])
def test_verify_survives_former_crash_seeds(capsys, suite, seed):
    assert run(["verify", suite, "--seed", str(seed)]) == 0


def test_verify_unknown_suite(capsys):
    assert run(["verify", "nonsense"]) == 1


def test_usage_errors_exit_one(capsys):
    assert run(["mlf"]) == 1
    assert run(["nope"]) == 1
    assert run([]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["solve", "--help"]) == 0


def test_outputs_end_with_newline(tmp_path):
    out = tmp_path / "v.json"
    run(["verify", "kernel", "--trials", "2", "--out", str(out)])
    text = out.read_text()
    assert text.endswith("\n")
    assert not text.endswith("\n\n")
