"""Calibration sweep for the Mittag-Leffler regime boundaries.

Not collected by pytest.  Run directly to reproduce the numbers quoted
in nlfrac/mlconstants.py:

    python3 tests/calibrate_mlf.py

Exits with status 1 when any regime's worst relative error exceeds the
2e-11 budget that mlconstants documents.

Reference values come from mpmath: the defining series at adaptive
precision wherever the needed precision is modest, otherwise numerical
inversion (Talbot) of the transform s^(alpha-beta)/(s^alpha + x), which
shares no code path with the evaluator under test.  alpha = 1/2 values
are additionally cross-checked against scipy.special.erfcx upstream in
the test suite.
"""

import math
import sys
import time

import mpmath as mp

from nlfrac.mlf import MLQuery, eval_ml_info

# per-regime budget for the worst relative error
WORST_REL_BUDGET = 2e-11


def oracle(alpha, beta, z):
    """E_{alpha,beta}(z) to ~30 safe digits, z <= 0."""
    if z == 0.0:
        with mp.workdps(40):
            return mp.rgamma(beta)
    if alpha == 1.0:
        # E_{1,b}(z) = M(1, b, z)/Gamma(b), exact in mpmath
        with mp.workdps(60):
            return mp.hyp1f1(1, mp.mpf(beta), mp.mpf(z)) * mp.rgamma(beta)
    ax = -z
    cancel = 0.4343 * ax ** (1.0 / alpha) if ax > 1.0 else 0.0
    if cancel < 150:
        dps = 40 + int(cancel)
        with mp.workdps(dps):
            # arguments must be formed in mpf arithmetic: double rounding of
            # alpha*k + beta alone perturbs peak terms by ~1e-14 relative,
            # which is fatal when the peak towers 13 digits over the sum
            am = mp.mpf(alpha)
            bm = mp.mpf(beta)
            za = mp.mpf(z)
            s = mp.mpf(0)
            # the stop is relative to the largest term so far, so a value
            # far below 1 (1e-47 at alpha = 0.5, beta = 40, z = -3) is
            # summed to the same relative precision as any other
            peak = mp.mpf(0)
            k = 0
            p = mp.mpf(1)
            while True:
                t = p * mp.rgamma(am * k + bm)
                s += t
                peak = max(peak, abs(t))
                if abs(t) < mp.mpf(10) ** (-dps - 5) * peak:
                    break
                p *= za
                k += 1
                if k > 200000:
                    raise RuntimeError("series oracle failed to terminate")
            return +s
    # Talbot inversion of s^(a-b)/(s^a + x) at t = 1
    with mp.workdps(60):
        x = mp.mpf(ax)
        a = mp.mpf(alpha)
        b = mp.mpf(beta)

        def F(s):
            return s ** (a - b) / (s**a + x)

        return mp.invertlaplace(F, 1.0, method="talbot", degree=80)


def main():
    alphas = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999, 0.9999999, 1.0]
    zmags = [0.1, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 8.0, 12.0, 18.0, 30.0, 60.0, 200.0, 1e3, 1e4, 1e5]
    t0 = time.time()
    worst = {}
    nchecked = 0
    for alpha in alphas:
        # where the series cancels by 3 digits, |z|^(1/alpha) = 6.9: small
        # |z| for small alpha, which the contour rule serves at every beta
        edge = (3.0 / 0.4343) ** alpha
        mags = sorted(set(zmags) | {round(edge * f, 6) for f in (0.8, 0.99, 1.02)})
        # beta = alpha itself: rounding 0.9999999 to 6 places would give 1
        betas = sorted({0.02, 0.3, 0.7, 1.0, alpha, round(alpha + 1.0, 6), 1.7, 2.5, 8.0, 40.0})
        for beta in betas:
            for ax in mags:
                z = -ax
                val, regime = eval_ml_info(MLQuery(alpha, beta, z))
                ref = oracle(alpha, beta, z)
                ref_f = float(ref)
                denom = max(abs(ref_f), 1e-290)
                rel = abs(val - ref_f) / denom
                nchecked += 1
                key = regime
                if key not in worst or rel > worst[key][0]:
                    worst[key] = (rel, alpha, beta, z)
    print(f"{nchecked} points in {time.time() - t0:.1f}s")
    over = []
    for regime, (rel, alpha, beta, z) in sorted(worst.items()):
        print(f"  {regime:<11s} worst rel {rel:.3e} at alpha={alpha} beta={beta} z={z}")
        if not rel <= WORST_REL_BUDGET:
            over.append(regime)
    if over:
        print(f"over the {WORST_REL_BUDGET:g} budget: {', '.join(over)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
