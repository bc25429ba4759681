"""Regenerate the stored input pools and their reference values.

    python3 perfbench/refs.py curves   # mpmath oracle, about two minutes
    python3 perfbench/refs.py picard   # 4096-node reference solves, a few minutes

``curves``: 18 strata (level n in {1, 2, 3} times five alpha bands in
(0.05, 1) plus alpha = 1), 32 truly level-n specs each, lambda
log-uniform in [0.1, 10], initial values uniform in [0.1, 2].  For each
entry the mpmath oracle (``oracle.py``) gives every solution term at the
12 checked abscissae of the request grid; the file keeps the weighted
sum and the sum of term magnitudes, which scales the tolerance.

``picard``: 8 specs (levels 1 to 3, alpha in [0.4, 0.95], smallest
kernel exponent >= -0.35, so y^2 stays integrable and well inside the
range where the iteration converges), 8 logistic forcings each with
a in [-0.5, 1] and b in [0.1, 0.5].  The reference for a logistic
forcing is the same problem solved on a 4096-node grid with the same
grading, whose every other node coincides with a 2048-node one; it is
kept at every 16th workload node with x >= 0.1, together with the
2048-node solution's largest deviation from it (``refine_dev``, relative
to the reference's largest magnitude), from which the check derives its
tolerance.  A draw whose reference solve does not converge is dropped
and reported.

Both pools come from fixed generator seeds, so regeneration reproduces
the committed files up to the last digits of the oracle.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import CURVES_CHECK_IDX, CURVES_GRID, DATA, PICARD_CHECK_X_MIN, draw_truly_gamma, sigmas  # noqa: E402

CURVES_POOL_SEED = 20200723
CURVES_PER_STRATUM = 32
CURVES_ALPHA_BANDS = ((0.05, 0.25), (0.25, 0.45), (0.45, 0.65), (0.65, 0.85), (0.85, 1.0), (1.0, 1.0))

PICARD_POOL_SEED = 11992
PICARD_SPECS = 8
PICARD_LOGISTIC_PER_SPEC = 8
PICARD_X_MAX = 2.0
PICARD_M = 2048
PICARD_M_FINE = 4096
PICARD_CHECK_STRIDE = 16


def _sig(v: float, digits: int) -> float:
    """v rounded to significant digits, to keep the stored files small."""
    return float(f"{float(v):.{digits}g}")


def _write(name: str, payload: dict) -> None:
    os.makedirs(DATA, exist_ok=True)
    path = os.path.join(DATA, f"{name}_pool.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}")


def regen_curves() -> None:
    from oracle import solution_terms

    rng = np.random.default_rng(CURVES_POOL_SEED)
    xs = [float(CURVES_GRID[i]) for i in CURVES_CHECK_IDX]
    entries = []
    t0 = time.time()
    for n in (1, 2, 3):
        for b, (lo, hi) in enumerate(CURVES_ALPHA_BANDS):
            for _ in range(CURVES_PER_STRATUM):
                alpha = 1.0 if lo == hi else _sig(rng.uniform(lo, hi), 12)
                # rounding gamma down keeps alpha + s_k inside its interval
                gamma = tuple(math.floor(g * 1e12) / 1e12 for g in draw_truly_gamma(rng, n, alpha))
                lam = _sig(math.exp(rng.uniform(math.log(0.1), math.log(10.0))), 12)
                y = [_sig(v, 12) for v in rng.uniform(0.1, 2.0, n)]
                ref, scale = [], []
                for x in xs:
                    terms = solution_terms(alpha, sigmas(n, alpha, gamma), lam, y, x)
                    ref.append(_sig(sum(terms), 16))
                    scale.append(_sig(sum(abs(t) for t in terms), 3))
                entries.append({
                    "stratum": f"n{n}-a{b}", "n": n, "alpha": alpha, "gamma": list(gamma),
                    "lam": lam, "y": y, "ref": ref, "scale": scale,
                })
            print(f"  n={n} band {b}: {len(entries)} entries, {time.time() - t0:.0f}s", flush=True)
    _write("curves", {"check_idx": list(CURVES_CHECK_IDX), "entries": entries})


def regen_picard() -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import nlfrac as nf

    rng = np.random.default_rng(PICARD_POOL_SEED)
    specs = []
    dropped = 0
    levels = (1, 2, 3, 1, 2, 3, 1, 2)
    for n in levels[:PICARD_SPECS]:
        while True:
            alpha = float(rng.uniform(0.4, 0.95))
            gamma = draw_truly_gamma(rng, n, alpha)
            if min(sigmas(n, alpha, gamma)) >= -0.35:
                break
        spec = nf.DerivativeSpec(n, alpha, gamma)
        r = nf.default_grading_exponent(nf.reduce_spec(spec))
        coarse = nf.GradedGrid(PICARD_X_MAX, PICARD_M, r)
        fine = nf.GradedGrid(PICARD_X_MAX, PICARD_M_FINE, r)
        check_idx = np.flatnonzero(coarse.nodes >= PICARD_CHECK_X_MIN)[::PICARD_CHECK_STRIDE]
        y = [float(v) for v in rng.uniform(0.3, 1.0, n)]
        logistic = []
        while len(logistic) < PICARD_LOGISTIC_PER_SPEC:
            a = float(rng.uniform(-0.5, 1.0))
            b = float(rng.uniform(0.1, 0.5))
            rhs = nf.make_rhs("logistic", {"a": a, "b": b})
            try:
                ref = nf.picard_solve(nf.VolterraProblem(spec, rhs, tuple(y), fine))
            except nf.NonConvergenceError:
                ref = None
            if ref is None or not ref.converged:
                dropped += 1
                print(f"  dropped n={n} alpha={alpha:.3f} gamma={gamma} a={a:.3f} b={b:.3f}")
                continue
            # coarse node i (0-based) sits at fine node 2i + 1
            fine_vals = ref.solution.values[2 * check_idx + 1]
            got = nf.picard_solve(nf.VolterraProblem(spec, rhs, tuple(y), coarse)).solution.values
            dev = float(np.max(np.abs(got[check_idx] - fine_vals)) / np.max(np.abs(fine_vals)))
            logistic.append({"a": a, "b": b, "refine_dev": _sig(dev, 3),
                             "ref": [float(v) for v in fine_vals]})
        specs.append({"n": n, "alpha": alpha, "gamma": list(gamma), "y": y,
                      "check_idx": [int(i) for i in check_idx], "logistic": logistic})
        print(f"  spec {len(specs)}: n={n} alpha={alpha:.3f} sigma={sigmas(n, alpha, gamma)}", flush=True)
    _write("picard", {"x_max": PICARD_X_MAX, "m": PICARD_M, "m_fine": PICARD_M_FINE,
                      "dropped_draws": dropped, "specs": specs})


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in ("curves", "picard"):
        sys.exit("usage: python3 perfbench/refs.py {curves|picard}")
    {"curves": regen_curves, "picard": regen_picard}[sys.argv[1]]()
