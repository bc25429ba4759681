"""Mittag-Leffler reference values that share no code with nlfrac.

The relaxation solution is

    y(x) = sum_k y_k x^sigma_k E_{alpha, sigma_k+1}(-lam x^alpha).

``ml_oracle`` evaluates E_{alpha,beta} in mpmath at 30+ digits.  The
defining series runs at a working precision raised by the predicted
cancellation; where that would need too many digits the transform
s^(alpha-beta) / (s^alpha + x) of t^(beta-1) E_{alpha,beta}(-x t^alpha)
is inverted by Talbot's method at t = 1.  alpha = 1 uses
E_{1,b}(z) = 1F1(1; b; z) / Gamma(b).  ``refs.py`` uses it offline to
build the stored reference values.
"""

from __future__ import annotations

import math

# digits lost to cancellation by the series at |z|: 0.4343 |z|^(1/alpha)
_SERIES_MAX_CANCEL = 30.0


def ml_oracle(alpha: float, beta: float, z: float):
    """E_{alpha,beta}(z) for real z <= 0 as an mpmath number."""
    import mpmath as mp

    if z > 0.0:
        raise ValueError("oracle covers z <= 0 only")
    if z == 0.0:
        with mp.workdps(40):
            return mp.rgamma(mp.mpf(beta))
    if alpha == 1.0:
        with mp.workdps(40):
            b = mp.mpf(beta)
            return mp.hyp1f1(1, b, mp.mpf(z)) * mp.rgamma(b)
    ax = -z
    cancel = 0.4343 * ax ** (1.0 / alpha)
    if cancel < _SERIES_MAX_CANCEL:
        dps = 30 + int(math.ceil(cancel))
        with mp.workdps(dps):
            a = mp.mpf(alpha)
            b = mp.mpf(beta)
            zz = mp.mpf(z)
            eps = mp.mpf(10) ** (-dps)
            s = mp.mpf(0)
            p = mp.mpf(1)
            peak = mp.mpf(0)
            k = 0
            while True:
                t = p * mp.rgamma(a * k + b)
                s += t
                at = abs(t)
                if at > peak:
                    peak = at
                # past the peak the terms fall monotonically
                if k > 2 and at < eps * peak and abs(zz) ** (1 / a) < k * a:
                    return s
                p *= zz
                k += 1
    with mp.workdps(40):
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        x = mp.mpf(ax)
        return mp.invertlaplace(lambda s: s ** (a - b) / (s**a + x), 1, method="talbot")


def solution_terms(alpha: float, sigmas, lam: float, ys, x: float):
    """Per-term values y_k x^sigma_k E_{alpha,sigma_k+1}(-lam x^alpha), as mpf."""
    import mpmath as mp

    with mp.workdps(40):
        xm = mp.mpf(x)
        z = -lam * float(xm ** mp.mpf(alpha))
        return [
            mp.mpf(y) * xm ** mp.mpf(s) * ml_oracle(alpha, s + 1.0, z)
            for s, y in zip(sigmas, ys)
        ]
