"""Matched-pair populations and the factor-comparison experiment.

Pairs are formed by matching one treated and one control subject on a
chosen factor: either the covariate itself or the predicted benefit.
Matching on the covariate makes the pair difference at X=x exactly the
benefit triple at x; matching on the predicted benefit only forces the
two subjects into the same predictor level, so their covariates vary
independently inside that level and the pair difference picks up extra
spread.  benefit_given_h builds the per-level difference distribution
for either factor; matching_experiment sweeps a dense grid of
three-level populations with random logistic coefficients and compares
the concordance statistic under the two factors cell by cell.  Each
cell's statistic is the two-level closed form of cfb_two_group, on the
same masses (cfb_engine._two_group_masses) evaluated over whole arrays.

The experiment needs to be bit-reproducible across platforms and numpy
versions, so its coefficient draws come from a self-contained counter
based generator (the splitmix64 finalizer) rather than numpy's stateful
generators: cell k consumes draws 4k..4k+3 no matter how the sweep is
chunked.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .cfb_engine import MatchedBenefitDistribution, _two_group_masses
from .errors import ZeroMassH
from .population_model import (
    BenefitPredictor,
    LogisticRctPopulation,
    ProbTriple,
    benefit_triple_from_outcome_probs,
    outcome_prob,
)

__all__ = [
    "MatchingFactor",
    "MatchingExperimentResult",
    "benefit_given_h",
    "predictor_h_quadratic",
    "matching_experiment",
    "DIFF_HIST_RANGE",
    "DIFF_HIST_BINS",
]

DIFF_HIST_RANGE = (0.0, 0.25)
DIFF_HIST_BINS = 50


class MatchingFactor(enum.Enum):
    """What the two members of a matched pair agree on."""

    COVARIATE = "covariate"
    PREDICTED_BENEFIT = "predicted_benefit"


def benefit_given_h(pop, predictor, factor):
    """Distribution of the matched-pair benefit at each predictor level.

    pop is a LogisticRctPopulation, predictor assigns a score to each of
    its covariate levels, factor picks what the pair was matched on.
    Returns a MatchedBenefitDistribution whose row weights are the
    predictor-level masses.  Written as the literal definition (mixture
    over levels, double mixture for benefit matching); the vectorized
    experiment uses an algebraically collapsed form and the two are
    checked against each other in the test suite.

    Raises ZeroMassH when some predictor level has no covariate mass.
    """
    if not isinstance(pop, LogisticRctPopulation):
        raise TypeError("pop must be a LogisticRctPopulation")
    if not isinstance(predictor, BenefitPredictor):
        raise TypeError("predictor must be a BenefitPredictor")
    if not isinstance(factor, MatchingFactor):
        raise TypeError("factor must be a MatchingFactor")

    masses = dict(zip((0, 1, 2), pop.covariate_masses()))
    groups = {}
    for x in (0, 1, 2):
        groups.setdefault(predictor(x), []).append(x)

    rows = []
    for h in sorted(groups):
        xs = groups[h]
        w = math.fsum(masses[x] for x in xs)
        if w <= 0.0:
            raise ZeroMassH(f"predictor level h={h} has zero covariate mass")
        share = {x: masses[x] / w for x in xs}
        tm = tz = tp = 0.0
        if factor is MatchingFactor.COVARIATE:
            for x in xs:
                t = benefit_triple_from_outcome_probs(
                    outcome_prob(pop, 0, x), outcome_prob(pop, 1, x)
                )
                tm += share[x] * t.p_minus
                tz += share[x] * t.p_zero
                tp += share[x] * t.p_plus
        else:
            for x_treated in xs:
                y1 = outcome_prob(pop, 1, x_treated)
                for x_control in xs:
                    y0 = outcome_prob(pop, 0, x_control)
                    t = benefit_triple_from_outcome_probs(y0, y1)
                    w2 = share[x_treated] * share[x_control]
                    tm += w2 * t.p_minus
                    tz += w2 * t.p_zero
                    tp += w2 * t.p_plus
        rows.append((h, w, ProbTriple(tm, tz, tp)))
    return MatchedBenefitDistribution(tuple(rows))


def predictor_h_quadratic() -> BenefitPredictor:
    """The score x**2 - x - 1 on levels {0, 1, 2}.

    Collapses levels 0 and 1 to the same score (-1) and separates level
    2 (+1), the fixed grouping the matching experiment runs with.
    """
    return BenefitPredictor({0: -1.0, 1: -1.0, 2: 1.0})


# ---------------------------------------------------------------------------
# counter-based uniforms for the experiment sweep
# ---------------------------------------------------------------------------

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _uniform_open01(seed: int, draw_index):
    """Uniform draws on the open interval (0, 1), one per counter value.

    splitmix64 finalizer over seed + (index+1) * golden, top 53 bits
    shifted into the mantissa with a half-ulp offset so 0 and 1 are both
    excluded.
    """
    idx = np.asarray(draw_index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed % (1 << 64)) + (idx + np.uint64(1)) * _GOLD
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


@dataclass(frozen=True)
class MatchingExperimentResult:
    """Columnar output of the factor-comparison sweep.

    One entry per grid cell: covariate masses a, b (level 2 gets the
    rest), the four logistic coefficients, the statistic under each
    matching factor, their absolute difference, and an undefined flag
    for cells where some statistic does not exist (nan in the value
    columns).  hist_* describe the fixed histogram of abs_diff over
    defined cells.
    """

    a: np.ndarray
    b: np.ndarray
    beta0: np.ndarray
    betax: np.ndarray
    betat: np.ndarray
    betaxt: np.ndarray
    cfb_covariate: np.ndarray
    cfb_prediction: np.ndarray
    abs_diff: np.ndarray
    undefined: np.ndarray
    hist_edges: tuple
    hist_counts: tuple
    grid_step: float
    seed: int
    coeff_range: tuple

    def __len__(self):
        return len(self.a)


def _two_group_cfb_arrays(c, *triples):
    """Two-level closed form over arrays (cfb_engine._two_group_masses); nan where undefined."""
    cross_conc, cross_disc, a_mass = _two_group_masses(c, *triples)
    defined = a_mass > 0.0
    dev = np.full(a_mass.shape, np.nan)
    np.divide(c * (1.0 - c) * (cross_conc - cross_disc), 2.0 * a_mass, out=dev, where=defined)
    return np.where(defined, 0.5 + dev, np.nan), ~defined


def matching_experiment(grid_step: float = 0.001, coeff_range=(-5.0, 5.0), seed: int = 20230516):
    """Sweep covariate-mass cells with random logistic coefficients.

    The mass grid is a = i*grid_step, b = j*grid_step over all integer
    i, j >= 1 with i + j <= 1/grid_step - 1, so every level keeps
    positive mass.  Each cell draws beta0, betax, betat, betaxt
    uniformly from coeff_range using the counter scheme described in
    the module docstring, builds the three-level population, groups
    levels with predictor_h_quadratic, and evaluates the statistic
    matched on the covariate and matched on the predicted benefit.
    """
    # scipy's expit, not a numpy formula: the two differ in the last bit
    # often enough to move 10-digit rows of the reported CSV
    from scipy.special import expit

    if not (math.isfinite(grid_step) and grid_step > 0.0):
        raise ValueError(f"grid_step must be finite and positive, got {grid_step!r}")
    inv = round(1.0 / grid_step)
    if abs(grid_step * inv - 1.0) > 1e-9 or inv < 3:
        raise ValueError("grid_step must divide 1 with at least 3 subdivisions")
    lo, hi = float(coeff_range[0]), float(coeff_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"coeff_range must be finite, got {coeff_range!r}")
    if not lo < hi:
        raise ValueError("coeff_range must be an increasing pair")

    i_vals = np.arange(1, inv - 1, dtype=np.int64)
    row_lens = inv - 1 - i_vals
    i_arr = np.repeat(i_vals, row_lens)
    j_arr = np.concatenate([np.arange(1, inv - i, dtype=np.int64) for i in i_vals])
    n = i_arr.size

    a = i_arr.astype(np.float64) * grid_step
    b = j_arr.astype(np.float64) * grid_step
    c_high = (1.0 - a) - b

    base = np.arange(n, dtype=np.uint64) * np.uint64(4)
    coeffs = [lo + (hi - lo) * _uniform_open01(seed, base + np.uint64(m)) for m in range(4)]
    beta0, betax, betat, betaxt = coeffs
    # each whole-grid intermediate is released once consumed: at 0.001
    # steps one array is 4 MB and the kernel's peak is the sum of the live ones
    del i_arr, j_arr, base

    # response probabilities per arm and level
    y = {
        (t, x): expit(beta0 + betax * x + betat * t + betaxt * (t * x))
        for t in (0, 1) for x in (0, 1, 2)
    }

    w_low = a + b
    s0 = a / w_low
    s1 = b / w_low
    del w_low

    # matched on the covariate: mixture of the per-level triples
    lm_x = s0 * (y[0, 0] * (1.0 - y[1, 0])) + s1 * (y[0, 1] * (1.0 - y[1, 1]))
    lz_x = (
        s0 * (y[0, 0] * y[1, 0] + (1.0 - y[0, 0]) * (1.0 - y[1, 0]))
        + s1 * (y[0, 1] * y[1, 1] + (1.0 - y[0, 1]) * (1.0 - y[1, 1]))
    )
    lp_x = s0 * (y[1, 0] * (1.0 - y[0, 0])) + s1 * (y[1, 1] * (1.0 - y[0, 1]))

    # matched on predicted benefit: members mix independently, so the
    # double mixture collapses to the mixed response probabilities
    ybar0 = s0 * y[0, 0] + s1 * y[0, 1]
    ybar1 = s0 * y[1, 0] + s1 * y[1, 1]
    lm_h = ybar0 * (1.0 - ybar1)
    lz_h = ybar0 * ybar1 + (1.0 - ybar0) * (1.0 - ybar1)
    lp_h = ybar1 * (1.0 - ybar0)
    del s0, s1, ybar0, ybar1

    hm = y[0, 2] * (1.0 - y[1, 2])
    hz = y[0, 2] * y[1, 2] + (1.0 - y[0, 2]) * (1.0 - y[1, 2])
    hp = y[1, 2] * (1.0 - y[0, 2])
    del y

    cfb_x, undef_x = _two_group_cfb_arrays(c_high, lm_x, lz_x, lp_x, hm, hz, hp)
    del lm_x, lz_x, lp_x
    cfb_h, undef_h = _two_group_cfb_arrays(c_high, lm_h, lz_h, lp_h, hm, hz, hp)
    del c_high, lm_h, lz_h, lp_h, hm, hz, hp
    undefined = undef_x | undef_h
    abs_diff = np.abs(cfb_x - cfb_h)

    counts, edges = np.histogram(
        abs_diff[~undefined], bins=DIFF_HIST_BINS, range=DIFF_HIST_RANGE
    )
    return MatchingExperimentResult(
        a=a, b=b, beta0=beta0, betax=betax, betat=betat, betaxt=betaxt,
        cfb_covariate=cfb_x, cfb_prediction=cfb_h,
        abs_diff=abs_diff, undefined=undefined,
        hist_edges=tuple(float(e) for e in edges),
        hist_counts=tuple(int(v) for v in counts),
        grid_step=float(grid_step), seed=int(seed),
        coeff_range=(lo, hi),
    )
