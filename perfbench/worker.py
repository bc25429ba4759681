"""One workload process: set up, then a timed single-client closed loop.

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace 0|1> [--probe]

Run from the root of a source checkout; nlfrac is imported from
``src/``.  Set-up is the import plus one fixed warm-up request, after
which the worker prints ``READY`` (``--probe`` exits there: the parent
times several set-ups that way).  It then issues requests round by
round, each only after the previous one returned, and stops at the
first round boundary once ``seconds`` have passed.  Request inputs are
prepared outside the timed interval.  The last stdout line is a JSON
object with the latencies, the per-request records the parent checks,
peak RSS, the BLAS library with its thread count and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))


def blas_info() -> dict:
    """BLAS library of the loaded numpy and the thread count it runs with."""
    import numpy as np

    cfg = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"name": f"{cfg.get('name')} {cfg.get('version')}", "threads": threads}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    probe = "--probe" in argv[4:]

    import nlfrac as nf
    import nlfrac.fitting  # noqa: F401  (submodules reached as nf.<module>)
    import nlfrac.gridops  # noqa: F401
    import nlfrac.relax  # noqa: F401
    import nlfrac.specparams  # noqa: F401
    import nlfrac.volterra  # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.execute(nf, workload.prepare(nf, workload.warmup_request()))
    print("READY", flush=True)
    if probe:
        return 0

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer().install(nf)

    latencies: list[float] = []
    records: list[dict] = []
    rounds = workload.rounds(seed)
    start = time.perf_counter()
    while True:
        for req in next(rounds):
            prepared = workload.prepare(nf, req)
            rid = len(records)
            if tracer:
                tracer.begin_request(rid)
            t0 = time.perf_counter()
            try:
                out = workload.execute(nf, prepared)
                error = None
            except Exception as exc:  # a failed request is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer:
                tracer.end_request()
            latencies.append(t1 - t0)
            rec = {"error": error} if error else workload.record(req, out)
            rec["req"] = req
            records.append(rec)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break

    result = {
        "latencies": latencies,
        "elapsed": elapsed,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas": blas_info(),
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
