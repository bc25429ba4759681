"""Exact calculus on finite sums of power functions.

A PowerSum is sum_i c_i x^(mu_i) with every mu_i > -1, the natural
domain for Riemann-Liouville integrals on (0, x].  On this algebra the
fractional integral acts term by term through the Gamma-ratio rule

    I^nu x^mu = Gamma(mu+1)/Gamma(nu+mu+1) * x^(mu+nu),

the first-order derivative acts as the classical weak derivative, and
the composed nth-level derivative together with its kernel projector
can be evaluated exactly (up to floating-point coefficient rounding,
with no discretisation anywhere).  The reciprocal-Gamma convention
1/Gamma(pole) = 0 makes the projector formulas total.

Differentiating a term with exponent in (-1, 0) would leave the algebra
(exponent <= -1); that raises DerivativeLeavesAlgebraError rather than
silently producing a non-integrable symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DerivativeLeavesAlgebraError,
    EvaluationAtZeroUndefinedError,
    ParameterOutOfRangeError,
)
from .mlf import reciprocal_gamma
from .specparams import TOL, DerivativeSpec, ProjectorCoeffs, require_valid

__all__ = [
    "PowerSum",
    "rl_integral",
    "weak_derivative",
    "nth_level_derivative",
    "projector_apply",
]

# coefficients smaller than this are treated as exact zeros when
# normalising (they are far below any Gamma-ratio rounding scale)
COEFF_FLOOR = 1e-300


@dataclass(frozen=True)
class PowerSum:
    """Finite sum of power terms c * x^mu, all mu > -1.

    Terms are normalised on construction: exponents within 1e-12 of one
    another merge (coefficients combined by exact summation), negligible
    coefficients drop, and terms sort by ascending exponent.  The empty
    sum is the zero function.
    """

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        cleaned = []
        for c, mu in self.terms:
            c = float(c)
            mu = float(mu)
            if not (math.isfinite(c) and math.isfinite(mu)):
                raise ParameterOutOfRangeError("power term with non-finite data")
            if mu <= -1.0 + TOL:
                raise ParameterOutOfRangeError(
                    f"exponent {mu:g} outside the algebra (needs mu > -1)"
                )
            if abs(c) < COEFF_FLOOR:
                continue
            cleaned.append((c, mu))
        cleaned.sort(key=lambda t: t[1])
        merged: list[tuple[float, float]] = []
        i = 0
        while i < len(cleaned):
            j = i + 1
            # one merge group: exponents chained within tolerance
            while j < len(cleaned) and cleaned[j][1] - cleaned[j - 1][1] <= TOL:
                j += 1
            group = cleaned[i:j]
            c = math.fsum(g[0] for g in group)
            mu = group[0][1] if len(group) == 1 else math.fsum(
                g[1] for g in group
            ) / len(group)
            if abs(c) >= COEFF_FLOOR:
                merged.append((c, mu))
            i = j
        object.__setattr__(self, "terms", tuple(merged))

    # -- construction helpers

    @classmethod
    def zero(cls) -> "PowerSum":
        return cls(())

    @classmethod
    def monomial(cls, c: float, mu: float) -> "PowerSum":
        return cls(((c, mu),))

    @classmethod
    def constant(cls, c: float) -> "PowerSum":
        return cls(((c, 0.0),))

    @classmethod
    def from_pairs(cls, pairs) -> "PowerSum":
        """Build from [{"c": ..., "mu": ...}, ...] (JSON shape)."""
        return cls(tuple((float(p["c"]), float(p["mu"])) for p in pairs))

    def to_pairs(self) -> list[dict]:
        return [{"c": c, "mu": mu} for c, mu in self.terms]

    # -- vector-space structure

    def __add__(self, other: "PowerSum") -> "PowerSum":
        return PowerSum(self.terms + other.terms)

    def __sub__(self, other: "PowerSum") -> "PowerSum":
        return self + (-other)

    def __neg__(self) -> "PowerSum":
        return PowerSum(tuple((-c, mu) for c, mu in self.terms))

    def __mul__(self, scalar) -> "PowerSum":
        s = float(scalar)
        return PowerSum(tuple((c * s, mu) for c, mu in self.terms))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- evaluation

    def value_at_zero(self) -> float:
        """Limit at x -> 0+; raises if a negative exponent makes it diverge."""
        out = 0.0
        for c, mu in self.terms:
            if mu < -TOL:
                raise EvaluationAtZeroUndefinedError(
                    f"term with exponent {mu:g} diverges at x = 0"
                )
            if abs(mu) <= TOL:
                out += c
        return out

    def evaluate(self, x: float) -> float:
        x = float(x)
        if x < 0.0:
            raise ParameterOutOfRangeError(f"power sums live on x >= 0, got {x:g}")
        if x == 0.0:
            return self.value_at_zero()
        return math.fsum(c * x**mu for c, mu in self.terms)

    def values(self, x) -> np.ndarray:
        """Vectorised evaluation on positive abscissae."""
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ParameterOutOfRangeError("vectorised evaluation needs x > 0")
        out = np.zeros_like(x)
        for c, mu in self.terms:
            out += c * x**mu
        return out

    def isclose(self, other: "PowerSum", rtol: float = 1e-12, atol: float = 1e-300) -> bool:
        """Term-by-term comparison after shared normalisation."""
        diff = self - other
        scale = max(
            [abs(c) for c, _ in self.terms + other.terms], default=0.0
        )
        return all(abs(c) <= atol + rtol * scale for c, _ in diff.terms)


def _gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for positive a, b."""
    if a <= 0.0 or b <= 0.0:
        raise ParameterOutOfRangeError("gamma ratio needs positive arguments")
    if a < 170.0 and b < 170.0:
        return math.gamma(a) / math.gamma(b)
    return math.exp(math.lgamma(a) - math.lgamma(b))


def rl_integral(f: PowerSum, nu: float) -> PowerSum:
    """Riemann-Liouville integral of order nu >= 0, exactly, term by term."""
    nu = float(nu)
    if nu < 0.0:
        raise ParameterOutOfRangeError(f"integral order must be >= 0, got {nu:g}")
    if nu == 0.0:
        return f
    return PowerSum(
        tuple(
            (c * _gamma_ratio(mu + 1.0, mu + nu + 1.0), mu + nu)
            for c, mu in f.terms
        )
    )


def weak_derivative(f: PowerSum) -> PowerSum:
    """d/dx on the algebra; constants die, exponents in (-1, 0) leave it."""
    out = []
    for c, mu in f.terms:
        if abs(mu) <= TOL:
            continue
        if mu < -TOL:
            raise DerivativeLeavesAlgebraError(
                f"derivative of x^{mu:g} has exponent {mu - 1.0:g} <= -1"
            )
        out.append((c * mu, mu - 1.0))
    return PowerSum(tuple(out))


def nth_level_derivative(spec: DerivativeSpec, f: PowerSum) -> PowerSum:
    """Apply the composed operator of a valid spec to f, exactly.

    Evaluation runs right to left: first the trailing integral of order
    n - alpha - s_n, then for k = n down to 1 a derivative followed by
    the integral of order gamma_k.  A DerivativeLeavesAlgebraError from
    stage k is re-raised with that stage index attached.
    """
    require_valid(spec)
    u = rl_integral(f, spec.trailing_order) if spec.trailing_order > TOL else f
    for k in range(spec.n, 0, -1):
        try:
            u = weak_derivative(u)
        except DerivativeLeavesAlgebraError as exc:
            raise DerivativeLeavesAlgebraError(str(exc), stage=k) from None
        g = spec.gamma[k - 1]
        if g > TOL:
            u = rl_integral(u, g)
    return u


def projector_apply(spec: DerivativeSpec, f: PowerSum) -> ProjectorCoeffs:
    """Kernel projection coefficients of f under the spec's operator.

    Walking the same composition as nth_level_derivative, a_k is the
    value at 0+ of the partial composition that still has k derivative
    factors to apply; the projector coefficient on x^sigma_k is
    p_k = a_k / Gamma(sigma_k + 1).  Directions annihilated by spec
    reduction come out exactly zero without special-casing: their a_k
    is the value at 0 of an integral of order >= 1 of something
    bounded, or the constant-free result of I^1 d/dx.
    """
    require_valid(spec)
    sigma = spec.sigma
    a = [0.0] * spec.n
    w = rl_integral(f, spec.trailing_order) if spec.trailing_order > TOL else f
    a[spec.n - 1] = w.value_at_zero()
    for k in range(spec.n, 1, -1):
        try:
            w = weak_derivative(w)
        except DerivativeLeavesAlgebraError as exc:
            raise DerivativeLeavesAlgebraError(str(exc), stage=k) from None
        g = spec.gamma[k - 1]
        if g > TOL:
            w = rl_integral(w, g)
        a[k - 2] = w.value_at_zero()
    p = tuple(a[k] * reciprocal_gamma(sigma[k] + 1.0) for k in range(spec.n))
    return ProjectorCoeffs(p=p, sigma=sigma)
