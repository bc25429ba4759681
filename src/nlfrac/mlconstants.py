"""Frozen regime boundaries for the Mittag-Leffler evaluator.

The evaluator picks between three strategies on the negative real axis:
the algebraic asymptotic expansion, a contour rule for the inverse
Laplace transform, which near alpha = 1 integrates the difference from
the alpha = 1 transform, and, for beta > alpha + 1 only, the defining
power series (compensated summation) at small |z|.  The switch points
below were frozen after a calibration sweep against a 40+ digit
reference (mpmath series at adaptive precision, Talbot transform
inversion where the series needs infeasible precision, cross-checked on
alpha = 1/2 against scipy.special.erfcx); the sweep script is
tests/calibrate_mlf.py.  On its 1900-point grid (alpha in [0.05, 1]
including 0.9999, |z| <= 1e5, 0.02 <= beta <= 2.5) the worst relative
errors with these settings are 8.9e-14 (integral), 7.1e-14
(asymptotic), 7.0e-14 (series, beta > alpha + 1) and 1.4e-15
(alpha = 1 closed forms).  The script exits nonzero when any regime
exceeds the budget of 2e-11.

Do not tune these per call site.  They encode a global accuracy budget:

* for beta > alpha + 1 the series loses about 0.4343 * |z|**(1/alpha)
  decimal digits to cancellation for z < 0, and past its band the
  upward recurrence from the contour rule takes over; for
  beta <= alpha + 1 the contour rule serves every z < 0 that the
  asymptotic expansion does not, and the two digit caps play no part;
* the asymptotic sum is accepted only when its smallest retained term,
  and for alpha > 2/3 the exponentials it drops, are small enough
  relative to the partial sum;
* everything between falls to the contour rule.
"""

# for beta > alpha + 1 only: the series is attempted on z < 0 when the
# predicted cancellation (decimal digits, 0.4343 * |z|**(1/alpha)) stays
# below this budget.  The limiting error is not the accumulator but the
# terms: forming the argument alpha*k + beta in double rounds the peak
# terms by ~2e-15 relative (digamma times one ulp), which the series
# corrects to first order, and Gamma itself is rounded, so usable
# budgets stop near 3 digits even with exact summation
SERIES_PREDICTED_DIGITS_CAP = 3.0

# for beta > alpha + 1 only: after summing on z < 0, the realised
# cancellation log10(max |term| / |sum|) must stay below this or the
# result is discarded and recomputed by the integral route
SERIES_REALISED_DIGITS_CAP = 3.5

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
