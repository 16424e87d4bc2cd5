"""Population models for individualized treatment benefit.

The common setting: a covariate X, a binary response under control and
under treatment (1 = favorable), and the resulting ternary benefit

    B = Y(1) - Y(0)  in  {-1, 0, +1}

(+1 means the favorable response happens only if treated, -1 means it
happens only if untreated, 0 means treatment changes nothing for that
subject).
A population couples a distribution for X with, at each covariate
level, a distribution for B.  Two concrete families are provided.
The predictor every route scores is the oracle h*(x) = E[B | X=x],
which for a discrete population is ProbTriple.mean_benefit of each
covariate level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ProbTriple",
    "BetaXPopulation",
    "LinearGaussianPopulation",
]

# Validation tolerances.  Inputs outside these bands are rejected, never
# clamped: a triple that fails to sum to one is a caller bug we want to
# hear about, not something to silently renormalize.
_COMPONENT_TOL = 1e-12
_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ProbTriple:
    """Distribution of the ternary benefit B in {-1, 0, +1}.

    Components must be in [0, 1] and sum to 1, both up to 1e-12.
    """

    p_minus: float
    p_zero: float
    p_plus: float

    def __post_init__(self):
        for name in ("p_minus", "p_zero", "p_plus"):
            v = float(getattr(self, name))
            if not (-_COMPONENT_TOL <= v <= 1.0 + _COMPONENT_TOL):
                raise ValueError(f"{name}={v!r} outside [0, 1]")
            object.__setattr__(self, name, v)
        total = self.p_minus + self.p_zero + self.p_plus
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"triple sums to {total!r}, not 1")

    def as_tuple(self) -> tuple:
        return (self.p_minus, self.p_zero, self.p_plus)

    @property
    def mean_benefit(self) -> float:
        """E[B] = Pr(B=+1) - Pr(B=-1)."""
        return self.p_plus - self.p_minus


# ---------------------------------------------------------------------------
# population families
# ---------------------------------------------------------------------------


def _require_finite(pop, *names):
    """ValueError unless each named field of pop is a finite number."""
    for name in names:
        v = getattr(pop, name)
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class BetaXPopulation:
    """Continuous covariate X ~ Beta(alpha, beta) on [0, 1].

    The benefit triple at X=x interpolates linearly between triple0 (at
    x=0) and triple1 (at x=1), componentwise, so it stays a valid triple
    and E[B | X=x] is affine in x.
    """

    alpha: float
    beta: float
    triple0: ProbTriple
    triple1: ProbTriple

    def __post_init__(self):
        _require_finite(self, "alpha", "beta")
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError("Beta shape parameters must be positive")


@dataclass(frozen=True)
class LinearGaussianPopulation:
    """Gaussian covariate with linear treatment effect and correlated noise.

    X ~ N(0, 1).  Potential outcomes on a continuous scale:

        Y(0) = beta0 + betax * X + eps0
        Y(1) = beta0 + (betax + betaxt) * X + betat + eps1

    with eps0, eps1 jointly normal, each N(0, sigma^2), correlation rho.
    The benefit here is the continuous gain B = Y(1) - Y(0) and the best
    covariate-based predictor of it is E[B | X] = betat + betaxt * X.
    """

    beta0: float
    betax: float
    betat: float
    betaxt: float
    sigma: float
    rho: float

    def __post_init__(self):
        _require_finite(self, "beta0", "betax", "betat", "betaxt", "sigma", "rho")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho!r}")
