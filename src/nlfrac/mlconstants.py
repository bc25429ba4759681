"""Frozen regime boundaries for the Mittag-Leffler evaluator.

The evaluator picks between two strategies on the negative real axis:
the algebraic asymptotic expansion and a contour rule for the inverse
Laplace transform, which serves every beta and near alpha = 1
integrates the difference from the alpha = 1 transform.  The defining
power series (compensated summation) serves the positive axis only.
The switch points below were frozen after a calibration sweep against a
40+ digit reference (mpmath series at adaptive precision, stopped
relative to its largest term, Talbot transform inversion where the
series needs infeasible precision, cross-checked on alpha = 1/2 against
scipy.special.erfcx); the sweep script is tests/calibrate_mlf.py.  On
its 2584-point grid (alpha in [0.05, 1] including 0.9999 and
0.9999999, -1e5 <= z <= -0.1, 0.02 <= beta <= 40) the worst relative
errors with these settings are 8.9e-14 (integral), 9.7e-14
(asymptotic) and 1.4e-15 (alpha = 1 closed forms).  The script exits
nonzero when any regime exceeds the budget of 2e-11.

Do not tune these per call site.  They encode a global accuracy budget:

* the asymptotic sum is accepted only when its smallest retained term,
  and for alpha > 2/3 the exponentials it drops, are small enough
  relative to the partial sum;
* everything between falls to the contour rule;
* on the positive axis the series serves z while its terms stay within
  the double range, the exponential asymptotic form beyond.
"""

# a term below this fraction of the running peak ends the series
SERIES_TAIL_REL = 1e-21

# hard iteration cap; the decay argument bounds the worst admissible
# case (alpha = 0.05) near 3600 terms
SERIES_MAX_TERMS = 6000

# the asymptotic expansion may be used only for |z| >= this
ASYM_MIN_ABS_Z = 10.0

# and is accepted only when (smallest term)/(partial sum), plus for
# alpha > 2/3 the exponentials the expansion drops, is <= this
ASYM_ACCEPT_REL = 1e-13

ASYM_MAX_TERMS = 50

# alpha = 1: the series serves 0 < z <= this and the Kummer transform
# -this <= z < 0; beyond, z goes to the asymptotic forms
ALPHA_ONE_ASYM_ABS_Z = 600.0

# positive z: series while 0.4343 * z**(1/alpha) stays below this
# (value magnitude cap ~ 1e280), exponential asymptotics beyond
POSITIVE_SERIES_DIGITS_CAP = 280.0

# above this alpha the contour rule integrates the difference from the
# alpha = 1 transform and adds E_{1,beta} back: closer to alpha = 1 its
# plain terms cancel (1.7e-12 at alpha = 0.999, 1.2e-8 at 0.9999999),
# while far below it the added value can dwarf the result it cancels
# into (2.5e-11 at alpha = 0.15 with subtraction at every alpha)
CONTOUR_SUBTRACT_ALPHA = 0.99
