"""nlfrac benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {curves,fit,picard} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Every process it starts is a
fresh ``worker.py`` run one at a time, with BLAS held to one thread:

1. set-up: two probe workers are timed from spawn until they have
   imported nlfrac and finished one fixed warm-up request; the timed
   worker's own set-up is the third sample, and ``setup_s`` is their
   median;
2. the timed worker runs the workload's closed loop for S seconds
   (whole rounds) and returns latencies, checked outputs and peak RSS;
3. the outputs are checked here, apart from the timed process.

With ``--trace 1`` an untraced and a traced worker run back to back on
the same seed; the per-layer metrics come from the traced one, the
overhead is the drop in requests per second between them, and spans
plus metrics go to ``perfbench/results/trace-<workload>-<seed>.json``.

The last stdout line is the JSON result; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SETUP_PROBES = 2
WORKER_TIMEOUT_S = 170.0
THREAD_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def spawn_worker(args, trace: bool, probe: bool):
    """Start a worker; returns (setup seconds, parsed final line or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.seconds), "1" if trace else "0"]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"{args.workload} worker failed during set-up")
        rest = proc.stdout.read()
        proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} worker exited with {proc.returncode}")
    if probe:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def count_failures(records, check) -> tuple[int, int]:
    """(requests that raised, requests whose output failed its check)."""
    raised = sum(1 for rec in records if rec.get("error"))
    wrong = sum(1 for rec in records if not rec.get("error") and not check(rec))
    return raised, wrong


def end_to_end(run: dict, failed: int, setups: list[float]) -> dict:
    lat = run["latencies"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "request_ms_p50": (1e3 * statistics.median(lat), "ms"),
        "request_ms_p90": (1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8], "ms"),
        "requests_per_s": ((len(lat) - failed) / run["elapsed"], "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("curves", "fit", "picard"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "nlfrac", "__init__.py")):
        print("run.py: no src/nlfrac here; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    from checks import checker
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    check = checker(workload)
    try:
        setups = []
        if not args.trace:
            setups = [spawn_worker(args, False, True)[0] for _ in range(SETUP_PROBES)]
        setup, run = spawn_worker(args, False, False)
        setups.append(setup)
        raised, wrong = count_failures(run["records"], check)
        attempted = len(run["records"])
        metrics = end_to_end(run, raised + wrong, setups)
        if args.trace:
            _, traced = spawn_worker(args, True, False)
            t_raised, t_wrong = count_failures(traced["records"], check)
            attempted += len(traced["records"])
            raised += t_raised
            wrong += t_wrong
            traced_rps = (len(traced["latencies"]) - t_raised - t_wrong) / traced["elapsed"]
            drop = metrics["requests_per_s"][0] - traced_rps
            metrics = {k: tuple(v) for k, v in traced["layers"].items()}
            metrics["trace.requests_per_s_drop"] = (drop, "1/s")
            print(f"tracing overhead: {drop:.4g} requests/s "
                  f"({100.0 * drop / max(traced_rps + drop, 1e-12):.2f} % of untraced)",
                  file=sys.stderr)
            os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
            path = os.path.join(HERE, "results", f"trace-{args.workload}-{args.seed}.json")
            with open(path, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "nproc": os.cpu_count(), "blas": traced["blas"],
                           "span_fields": ["id", "name", "start_s", "end_s", "parent", "request"],
                           "spans": traced["spans"], "metrics": metrics}, fh)
            print(f"spans and per-layer metrics written to {path}", file=sys.stderr)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print(f"{args.workload} seed {args.seed}: {attempted} requests, {raised} raised, "
          f"{wrong} failed their check; nproc {os.cpu_count()}, BLAS {run['blas']['name']} "
          f"on {run['blas']['threads']} thread(s)", file=sys.stderr)
    # a request that fails its check counts as failed, and makes the run incorrect
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": raised + wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
