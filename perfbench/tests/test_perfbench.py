"""The benchmark's own tests: short runs complete, checks catch bad output.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import nlfrac  # noqa: E402
import nlfrac.fitting  # noqa: E402,F401
import nlfrac.gridops  # noqa: E402,F401
import nlfrac.relax  # noqa: E402,F401
import nlfrac.specparams  # noqa: E402,F401
import nlfrac.volterra  # noqa: E402,F401

from checks import checker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["curves", "fit", "picard"])
def test_short_run_completes(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0.0


def test_traced_run_reports_every_layer_metric():
    proc = _run("picard", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["gridops.quadrature_matrix.calls"]["value"] == 1.0
    assert result["metrics"]["volterra.iterations"]["value"] > 0.0
    assert "tracing overhead" in proc.stderr


@pytest.mark.parametrize("workload", ["curves", "fit", "picard"])
def test_inputs_depend_only_on_the_seed(workload):
    w = WORKLOADS[workload]()
    first = [next(w.rounds(seed)) for seed in (1, 1, 2)]
    assert first[0] == first[1]
    assert first[0] != first[2]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    proc = _run("curves", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _one_record(workload, req):
    out = workload.execute(nlfrac, workload.prepare(nlfrac, req))
    rec = workload.record(req, out)
    rec["req"] = json.loads(json.dumps(req))
    return rec


def test_curves_check_rejects_perturbed_values():
    w = WORKLOADS["curves"]()
    check = checker(w)
    rec = _one_record(w, next(w.rounds(0))[0])
    assert check(rec)
    bad = copy.deepcopy(rec)
    bad["values"][5] *= 1.0 + 1e-6
    assert not check(bad)


def test_fit_check_rejects_perturbed_parameters():
    w = WORKLOADS["fit"]()
    check = checker(w)
    rec = _one_record(w, w.warmup_request())
    assert check(rec)
    bad = copy.deepcopy(rec)
    bad["params"]["lambda"] *= 1.02
    assert not check(bad)
    unconverged = dict(rec, converged=False)
    assert not check(unconverged)


@pytest.mark.parametrize("kind", [0, 2])
def test_picard_check_rejects_perturbed_solution(kind):
    w = WORKLOADS["picard"]()
    check = checker(w)
    rec = _one_record(w, next(w.rounds(0))[kind])
    assert rec["req"]["rhs"] == ("linear" if kind == 0 else "logistic")
    assert check(rec)
    bad = copy.deepcopy(rec)
    bad["values"][len(bad["values"]) // 2] *= 1.0 + 1e-2
    assert not check(bad)
