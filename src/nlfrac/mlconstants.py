"""Frozen regime boundaries for the Mittag-Leffler evaluator.

The evaluator picks between three strategies on the negative real axis:
the defining power series (compensated summation), the algebraic
asymptotic expansion, and a real spectral integral representation.  The
switch points below were frozen after a calibration sweep against a
40+ digit reference (mpmath series at adaptive precision, Talbot
transform inversion where the series needs infeasible precision,
cross-checked on alpha = 1/2 against scipy.special.erfcx); the sweep
script is tests/calibrate_mlf.py.  On its 1520-point grid (alpha in
[0.05, 1], |z| <= 1e5, beta <= 2.5) the worst relative errors with these
settings are 1.0e-11 (asymptotic), 9.6e-12 (series), 3.8e-12 (integral)
and 1.3e-15 (alpha = 1 closed forms).  The script exits nonzero when any
regime exceeds the budget of 2e-11.

Do not tune these per call site.  They encode a global accuracy budget:

* the series loses about 0.4343 * |z|**(1/alpha) decimal digits to
  cancellation for z < 0; with compensated accumulation the floor is set
  by the 1-ulp error of each Gamma reciprocal, so the usable budget is
  a little over 5 digits regardless of accumulator width;
* the asymptotic sum is accepted only when its smallest retained term
  is small enough relative to the partial sum;
* everything between falls to the integral representation.
"""

# series is attempted when the predicted cancellation (decimal digits,
# 0.4343 * |z|**(1/alpha)) stays below this budget.  The limiting error
# is not the accumulator: forming the argument alpha*k + beta in double
# rounds the peak terms by ~2e-15 relative (digamma times one ulp), so
# usable budgets stop near 3 digits even with exact summation
SERIES_PREDICTED_DIGITS_CAP = 3.0

# after summing, the realised cancellation log10(max |term| / |sum|)
# must stay below this or the result is discarded and recomputed by
# the integral route
SERIES_REALISED_DIGITS_CAP = 3.5

# a term below this fraction of the running peak ends the series
SERIES_TAIL_REL = 1e-21

# hard iteration cap; the decay argument bounds the worst admissible
# case (alpha = 0.05) near 3600 terms
SERIES_MAX_TERMS = 6000

# the asymptotic expansion may be used only for |z| >= this
ASYM_MIN_ABS_Z = 10.0

# and is accepted only when (smallest term)/(partial sum) <= this
ASYM_ACCEPT_REL = 1e-13

ASYM_MAX_TERMS = 50

# alpha = 1 closed forms: plain series below this |z| (3-digit
# cancellation budget), transformed series or exact bracket above
ALPHA_ONE_SERIES_ABS_Z = 7.0

# alpha = 1, |z| beyond this goes to the exponential asymptotic form
ALPHA_ONE_ASYM_ABS_Z = 600.0

# positive z: series while 0.4343 * z**(1/alpha) stays below this
# (value magnitude cap ~ 1e280), exponential asymptotics beyond
POSITIVE_SERIES_DIGITS_CAP = 280.0

# exp() overflow threshold for the exponential asymptotic form
EXP_ARG_MAX = 709.0

# integral route: quadrature targets
INTEGRAL_EPSREL = 1e-12
INTEGRAL_LIMIT = 400

# above this alpha the integral route subtracts the complex pole of the
# spectral denominator on a window around u0 = x cos(pi (1 - alpha)):
# the Lorentzian there, of width about pi (1 - alpha) x, is then
# narrower than adaptive quadrature resolves to INTEGRAL_EPSREL
INTEGRAL_PINCH_ALPHA = 0.999

# batched evaluation: minimum number of integral-regime points worth
# serving from a Chebyshev interpolant in log|z| (built from scalar
# quadratures and spot-checked against them), plus its controls
BATCH_QUAD_MIN_POINTS = 40
CHEB_MAX_NODES = 257
CHEB_ACCEPT_REL = 2e-11
