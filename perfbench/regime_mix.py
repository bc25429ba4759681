"""Share of Mittag-Leffler regimes each workload's inputs fall into.

    python3 perfbench/regime_mix.py [seed]

Classifies a subsample of the (alpha, beta, z) arguments of the first
round of ``curves`` and ``fit`` (a round holds each workload's whole
input mix) with ``eval_ml_info``, the scalar evaluator's regime label
(the batched path serves large integral-band groups by Chebyshev
interpolation instead of per-point quadrature).
``fit`` is sampled at the truth, where the simplex spends its time.
``picard`` calls no Mittag-Leffler code in its timed loop.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import CURVES_GRID, FIT_U, WORKLOADS, sigmas  # noqa: E402


def main(seed: int) -> None:
    from nlfrac import MLQuery, eval_ml_info

    def mix(args):
        counts = Counter(eval_ml_info(MLQuery(a, b, z))[1] for a, b, z in args)
        total = sum(counts.values())
        return ", ".join(f"{k} {100.0 * v / total:.1f} %" for k, v in counts.most_common())

    curves = WORKLOADS["curves"]()
    rounds = curves.rounds(seed)
    args = []
    for req in next(rounds):
        e = curves.entries[req["pool"]]
        for s in sigmas(e["n"], e["alpha"], e["gamma"]):
            args += [(e["alpha"], s + 1.0, -e["lam"] * x ** e["alpha"]) for x in CURVES_GRID[::50]]
    print(f"curves ({len(args)} points): {mix(args)}")

    fit = WORKLOADS["fit"]()
    rounds = fit.rounds(seed)
    args = []
    for req in next(rounds):
        a, lam = req["alpha"], req["lam"]
        xs = FIT_U * lam ** (-1.0 / a)
        for s in sigmas(2, a, req["gamma"]):
            args += [(a, s + 1.0, -lam * x**a) for x in xs]
    print(f"fit ({len(args)} points): {mix(args)}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
