"""Population models for individualized treatment benefit.

The common setting: a covariate X, a binary response under control and
under treatment (1 = favorable), and the resulting ternary benefit

    B = Y(1) - Y(0)  in  {-1, 0, +1}

(+1 means the favorable response happens only if treated, -1 means it
happens only if untreated, 0 means treatment changes nothing for that
subject).
A population couples a distribution for X with, at each covariate
level, a distribution for B.  Several concrete families are provided,
plus the derived quantities the rest of the package needs: the oracle
benefit predictor, logistic outcome probabilities, and the benefit
triple implied by independent potential outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import ParameterUnbounded

__all__ = [
    "ProbTriple",
    "BinaryXPopulation",
    "BetaXPopulation",
    "LogisticRctPopulation",
    "LinearGaussianPopulation",
    "BenefitPredictor",
    "best_predictor",
    "outcome_prob",
    "benefit_triple_from_outcome_probs",
    "logit",
    "expit",
]

# Validation tolerances.  Inputs outside these bands are rejected, never
# clamped: a triple that fails to sum to one is a caller bug we want to
# hear about, not something to silently renormalize.
_COMPONENT_TOL = 1e-12
_SUM_TOL = 1e-12


def expit(z: float) -> float:
    """Numerically stable logistic function 1 / (1 + exp(-z))."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def logit(y: float) -> float:
    """Inverse of expit on the open interval (0, 1).

    Raises ParameterUnbounded at 0 or 1 (the preimage is infinite) and
    ValueError outside [0, 1].
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"logit argument must lie in [0, 1], got {y!r}")
    if y == 0.0 or y == 1.0:
        raise ParameterUnbounded(f"logit({y}) is infinite")
    return math.log(y) - math.log1p(-y)


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
class BinaryXPopulation:
    """Two covariate levels: X=0 with probability 1-c, X=1 with probability c.

    triple0 and triple1 are the benefit distributions at the two levels.
    """

    c: float
    triple0: ProbTriple
    triple1: ProbTriple

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"c must lie strictly inside (0, 1), got {self.c!r}")


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
class LogisticRctPopulation:
    """Three-level covariate with logistic response model under both arms.

    X takes values 0, 1, 2 with masses a, b, 1-a-b.  The probability of
    the favorable response for arm t at level x is

        expit(beta0 + betax*x + betat*t + betaxt*t*x)

    and the two potential responses are independent given X, which pins
    down the benefit triple at each level (benefit_triple_from_outcome_probs).
    Every response probability must be strictly inside (0, 1).
    """

    a: float
    b: float
    beta0: float
    betax: float
    betat: float
    betaxt: float

    def __post_init__(self):
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("covariate masses must be nonnegative")
        if self.a + self.b > 1.0 + _SUM_TOL:
            raise ValueError("covariate masses exceed 1")
        for t in (0, 1):
            for x in (0, 1, 2):
                y = outcome_prob(self, t, x)
                if not 0.0 < y < 1.0:
                    raise ValueError(
                        f"outcome probability at t={t}, x={x} is {y}, "
                        "must be strictly inside (0, 1)"
                    )

    def covariate_masses(self) -> tuple:
        """Masses of levels 0, 1, 2 in that order."""
        return (self.a, self.b, (1.0 - self.a) - self.b)


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


@dataclass(frozen=True)
class BenefitPredictor:
    """Deterministic score h(x) over a discrete set of covariate levels.

    Only the ordering of scores matters to the concordance statistic;
    the table maps each covariate level to its score.
    """

    table: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))
        if not self.table:
            raise ValueError("predictor table is empty")
        # a nan score compares unequal to itself, so pairwise scoring, sorting
        # and grouping by score would each read it differently
        for x, score in self.table.items():
            try:
                finite = math.isfinite(score)
            except TypeError:
                raise ValueError(f"score for covariate level {x!r} is not a number: {score!r}") from None
            if not finite:
                raise ValueError(f"score for covariate level {x!r} is not finite: {score!r}")

    def __call__(self, x: int) -> float:
        try:
            return self.table[x]
        except KeyError:
            raise ValueError(f"predictor has no score for covariate level {x!r}") from None

    def levels(self) -> tuple:
        return tuple(sorted(self.table))


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------


def best_predictor(pop: BinaryXPopulation) -> BenefitPredictor:
    """Oracle predictor h*(x) = E[B | X=x] for a two-level population."""
    return BenefitPredictor(
        {0: pop.triple0.mean_benefit, 1: pop.triple1.mean_benefit}
    )


def outcome_prob(pop: LogisticRctPopulation, t: int, x: int) -> float:
    """Pr(favorable response | arm t, covariate level x) under the logistic model."""
    if t not in (0, 1):
        raise ValueError(f"arm must be 0 or 1, got {t!r}")
    if x not in (0, 1, 2):
        raise ValueError(f"covariate level must be 0, 1 or 2, got {x!r}")
    z = pop.beta0 + pop.betax * x + pop.betat * t + pop.betaxt * t * x
    return expit(z)


def benefit_triple_from_outcome_probs(y0: float, y1: float) -> ProbTriple:
    """Benefit triple when the two potential responses are independent.

    y0 and y1 are the favorable-response probabilities under control and
    treatment.  With Y(0) ~ Bernoulli(y0) independent of Y(1) ~ Bernoulli(y1),

        Pr(B=+1) = y1 * (1 - y0)      response only if treated
        Pr(B=-1) = y0 * (1 - y1)      response only if untreated
        Pr(B= 0) = y0*y1 + (1-y0)*(1-y1)

    so that E[B] = y1 - y0, the usual risk difference.
    """
    for name, y in (("y0", y0), ("y1", y1)):
        if not -_COMPONENT_TOL <= y <= 1.0 + _COMPONENT_TOL:
            raise ValueError(f"{name}={y!r} outside [0, 1]")
    return ProbTriple(
        y0 * (1.0 - y1),
        y0 * y1 + (1.0 - y0) * (1.0 - y1),
        y1 * (1.0 - y0),
    )
