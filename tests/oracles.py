"""Reference implementations the tests check the library against.

None of them is part of the package: each recomputes a value the
library gets another way, by a route that shares no algebra with it.

- bivariate_normal_cdf integrates the bivariate normal by SciPy's
  quadrature; 2 * bivariate_normal_cdf(0, 0, r) is the check on the
  arcsine in cfb_linear_gaussian (Sheppard's orthant formula).
- sampled_linear_gaussian_cfb draws pairs of units from the
  linear-Gaussian model's potential outcomes, the check on the pair
  correlation that the arcsine of cfb_linear_gaussian is evaluated at.
- empirical_cfb_oracle scores every ordered pair of weighted atoms one
  comparison at a time, the check on the closed forms.
- whole_column_score_chunk scores a Monte Carlo chunk from its two
  columns, the Beta covariates and the benefit uniforms, each drawn
  whole (whole_columns) and then sliced block by block.  It is the check
  on _score_chunk, which must give the same counts: there the covariate
  column is drawn by one worker or split among several, and each half's
  benefit uniforms are drawn block by block by a generator of its own
  as the calling thread scores.  The tests score all pairs of
  whole_columns too, the check on all-pairs mode.
- beta_mixture_cfb is the exact statistic of the oracle predictor of a
  Beta-mixed population (ROADMAP item 7): the binary two-group closed
  form shrunk toward 0.5 by the covariate's relative Gini mean
  difference, from math.lgamma alone.  It is the truth that the Monte
  Carlo route's estimates are checked against.
- full_grid_survivors runs the census's frozen float filter on every
  ordered pair of grid triples, the check on grid_search's candidate
  intervals.
- benefit_given_h builds a three-level logistic population's benefit
  triples per predictor level as the literal mixture over covariate
  levels (a double mixture when the pair is matched on the predicted
  benefit), the check on matching_experiment's collapsed mixture.  It
  comes with what it is written in: LogisticRctPopulation, its
  outcome_prob, benefit_triple_from_outcome_probs for independent
  potential responses, the scalar expit, MatchingFactor,
  predictor_h_quadratic and ZeroMassH.

The module name has no test_ prefix, so pytest does not collect it;
the test modules import it as `oracles`, from the tests directory that
pytest puts on sys.path.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from cfb import (
    CfbError,
    CfbResult,
    DegenerateCfb,
    MatchedBenefitDistribution,
    ProbTriple,
    UndefinedCfb,
    cfb_two_group,
)
from cfb.cfb_engine import _BLOCK, _beta_draws, _Scratch, _two_group_masses, _units
from cfb.population_model import _COMPONENT_TOL, _SUM_TOL

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) * _INV_SQRT_2PI


def _Phi(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def bivariate_normal_cdf(h: float, k: float, r: float) -> float:
    """Pr(Z1 <= h, Z2 <= k) for standard normals with correlation r.

    Computed by one-dimensional quadrature of

        phi(z) * Phi((k - r z) / sqrt(1 - r^2))   over z in (-inf, h),

    split where the inner argument changes sign so the integrand stays
    smooth on each piece.  |r| within 1e-13 of 1 falls back to the exact
    degenerate limits (Z2 = Z1 resp. Z2 = -Z1).  Infinite h or k are
    allowed and reduce to univariate values.
    """
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {r!r}")
    if math.isnan(h) or math.isnan(k):
        raise ValueError("h and k must not be NaN")

    if r >= 1.0 - 1e-13:
        return _Phi(min(h, k))
    if r <= -1.0 + 1e-13:
        return max(0.0, _Phi(h) - _Phi(-k))
    if h == -math.inf or k == -math.inf:
        return 0.0
    if k == math.inf:
        return _Phi(h)
    if h == math.inf:
        return _Phi(k)
    if r == 0.0:
        return _Phi(h) * _Phi(k)

    s = math.sqrt((1.0 - r) * (1.0 + r))

    def integrand(z):
        return _phi(z) * _Phi((k - r * z) / s)

    z_flip = k / r
    if -math.inf < z_flip < h:
        left, _ = quad(integrand, -math.inf, z_flip, epsabs=1e-11, epsrel=1e-11, limit=200)
        right, _ = quad(integrand, z_flip, h, epsabs=1e-11, epsrel=1e-11, limit=200)
        total = left + right
    else:
        total, _ = quad(integrand, -math.inf, h, epsabs=1e-11, epsrel=1e-11, limit=200)
    return min(1.0, max(0.0, total))


def sampled_linear_gaussian_cfb(pop, pairs, seed, block=100_000):
    """(estimate, standard_error) of the statistic over `pairs` independent
    pairs of units drawn from the linear-Gaussian model's definition.

    Each unit draws X ~ N(0, 1) and noise (eps0, eps1) with correlation
    rho, forms both potential outcomes Y(0), Y(1), and takes the benefit
    B = Y(1) - Y(0) and the predictor E[B | X] = betat + betaxt * X.  It
    is the check on the pair correlation behind cfb_linear_gaussian's
    arcsine, which the quadrature of bivariate_normal_cdf takes as given.
    """
    rng = np.random.default_rng(seed)
    conc = tied = valid = 0
    for lo in range(0, pairs, block):
        x, z0, z1 = rng.standard_normal((3, 2, min(block, pairs - lo)))
        eps0 = pop.sigma * z0
        eps1 = pop.sigma * (pop.rho * z0 + math.sqrt(1.0 - pop.rho * pop.rho) * z1)
        y0 = pop.beta0 + pop.betax * x + eps0
        y1 = pop.beta0 + (pop.betax + pop.betaxt) * x + pop.betat + eps1
        db = np.diff(y1 - y0, axis=0)[0]
        dh = np.diff(pop.betat + pop.betaxt * x, axis=0)[0]
        conc += int(np.count_nonzero(db * dh > 0.0))
        tied += int(np.count_nonzero((dh == 0.0) & (db != 0.0)))
        valid += int(np.count_nonzero(db != 0.0))
    est = (conc + 0.5 * tied) / valid
    return est, math.sqrt(est * (1.0 - est) / valid)


def empirical_cfb_oracle(atoms) -> CfbResult:
    """Score every ordered pair of atoms directly.

    atoms is an iterable of (b, h, weight) with nonnegative weights; the
    weights need not be normalized because scale cancels in the ratio.
    Written as the definition, one comparison at a time, precisely so it
    shares no algebra with the closed-form routes it is used to check.
    """
    items = [(float(b), float(h), float(w)) for b, h, w in atoms]
    if any(w < 0.0 for _, _, w in items):
        raise ValueError("atom weights must be nonnegative")
    conc = disc = tied = 0.0
    for bi, hi, wi in items:
        for bj, hj, wj in items:
            if bi > bj:
                w = wi * wj
                if hi > hj:
                    conc += w
                elif hi < hj:
                    disc += w
                else:
                    tied += w
            elif bi < bj:
                w = wi * wj
                if hi < hj:
                    conc += w
                elif hi > hj:
                    disc += w
                else:
                    tied += w
    den = (conc + disc) + tied
    if den == 0.0:
        raise UndefinedCfb("no pair of atoms disagrees in realized benefit")
    num = conc + 0.5 * tied
    return CfbResult(num / den, num, den)


def whole_columns(pop, rng, count):
    """The covariates and benefit uniforms of `count` units of a BetaXPopulation,
    each column drawn whole, in stream order."""
    return _beta_draws(rng, pop.alpha, pop.beta, count), rng.random(count)


def whole_column_score_chunk(pop, child_seed, m):
    """Exact (concordant, predictor-tied, benefit-differing) counts over the
    pairs (i, i + m) of 2m units drawn from child_seed.

    The random columns are drawn whole, in stream order; units are built
    and pairs scored one cache-sized block at a time.
    """
    rng = np.random.default_rng(child_seed)
    columns = whole_columns(pop, rng, 2 * m)
    scratch = _Scratch(min(m, _BLOCK))
    conc = tied = valid = 0
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        b1, h1 = _units(pop, [c[lo:hi] for c in columns], scratch, 0)
        b2, h2 = _units(pop, [c[m + lo:m + hi] for c in columns], scratch, 1)
        differ = b1 != b2
        conc += (int(np.count_nonzero((b1 > b2) & (h1 > h2)))
                 + int(np.count_nonzero((b1 < b2) & (h1 < h2))))
        tied += int(np.count_nonzero(differ & (h1 == h2)))
        valid += int(np.count_nonzero(differ))
    return conc, tied, valid


def _log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def beta_mixture_cfb(pop):
    """Exact statistic of the oracle predictor E[B | X] of a BetaXPopulation.

    The triples are linear in x, so for a fixed mean mu = alpha/(alpha + beta)
    the statistic is affine in E|X1 - X2|: a point mass gives 0.5 and
    Bernoulli(mu) the two-group closed form at c = mu.  Hence

        0.5 + (cfb_two_group(mu, lower, higher) - 0.5) * E|X1 - X2| / (2 mu (1 - mu))

    with lower and higher the x = 0 and x = 1 triples in order of mean
    benefit (when x = 1 has the lower mean, its mass mu is the low level's,
    so c = 1 - mu), and for X ~ Beta(alpha, beta)

        E|X1 - X2| = 4 B(alpha + beta, alpha + beta) / ((alpha + beta) B(alpha, alpha) B(beta, beta)).

    Raises DegenerateCfb when both triples have the same mean benefit: the
    predictor is then one value for every unit.
    """
    a, b = pop.alpha, pop.beta
    mu = a / (a + b)
    t0, t1 = pop.triple0, pop.triple1
    if t0.mean_benefit == t1.mean_benefit:
        raise DegenerateCfb("both triples have the same mean benefit, the predictor is constant")
    if t1.mean_benefit > t0.mean_benefit:
        binary = cfb_two_group(mu, t0, t1).value
    else:
        binary = cfb_two_group(1.0 - mu, t1, t0).value
    gini = 4.0 * math.exp(_log_beta(a + b, a + b) - math.log(a + b) - _log_beta(a, a) - _log_beta(b, b))
    return 0.5 + (binary - 0.5) * gini / (2.0 * mu * (1.0 - mu))


def _scan_block(i0, i1, vm, v0, vp, c):
    """Filter one block of low-level triples against every high-level one.

    Returns (low_idx, high_idx, deviation) arrays for the survivors,
    with the frozen expressions of the census filter.
    """
    pm = vm[i0:i1, None]
    p0 = v0[i0:i1, None]
    pp = vp[i0:i1, None]
    qm = vm[None, :]
    q0 = v0[None, :]
    qp = vp[None, :]

    chain = qp - qm + pm - pp + qm * pp - qp * pm
    keep = ((qp - qm) > (pp - pm)) & (chain < 0)
    bi, qi = np.nonzero(keep)
    if bi.size == 0:
        return bi, qi, np.empty(0)
    pi = bi + i0

    _, _, a = _two_group_masses(c, vm[pi], v0[pi], vp[pi], vm[qi], v0[qi], vp[qi])
    dev = c * (1.0 - c) * chain[keep] / (2.0 * a)
    return pi, qi, dev


def full_grid_survivors(hund, c):
    """The census of every ordered pair of triples with granularity hund
    (in hundredths), 32 low triples at a time, as the six survivor columns
    (p_minus, p_plus, q_minus, q_plus, cfb_star, deviation)."""
    ints = [(m, p) for m in range(0, 101, hund) for p in range(0, 101 - m, hund)]
    m_arr = np.array([t[0] for t in ints], dtype=np.int64)
    p_arr = np.array([t[1] for t in ints], dtype=np.int64)
    vm = m_arr * 0.01
    vp = p_arr * 0.01
    v0 = (1.0 - vm) - vp
    n = len(ints)
    parts = [_scan_block(i0, min(i0 + 32, n), vm, v0, vp, c) for i0 in range(0, n, 32)]
    low_idx, high_idx, dev = map(np.concatenate, zip(*parts))
    return (m_arr[low_idx], p_arr[low_idx], m_arr[high_idx], p_arr[high_idx], 0.5 + dev, dev)


# ---------------------------------------------------------------------------
# the matched-pair reference
# ---------------------------------------------------------------------------


class ZeroMassH(CfbError):
    """A predictor level has zero covariate mass, so conditioning the
    benefit distribution on that level is impossible."""


def expit(z: float) -> float:
    """Numerically stable logistic function 1 / (1 + exp(-z))."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


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


class MatchingFactor(enum.Enum):
    """What the two members of a matched pair agree on."""

    COVARIATE = "covariate"
    PREDICTED_BENEFIT = "predicted_benefit"


def benefit_given_h(pop, predictor, factor):
    """Distribution of the matched-pair benefit at each predictor level.

    pop is a LogisticRctPopulation, predictor is a function from each of
    its covariate levels to a score, factor picks what the pair was
    matched on.
    Returns a MatchedBenefitDistribution whose row weights are the
    predictor-level masses.  Written as the literal definition (mixture
    over levels, double mixture for benefit matching); the vectorized
    experiment uses an algebraically collapsed form and the two are
    checked against each other in the test suite.

    Raises ZeroMassH when some predictor level has no covariate mass.
    """
    if not isinstance(pop, LogisticRctPopulation):
        raise TypeError("pop must be a LogisticRctPopulation")
    if not callable(predictor):
        raise TypeError("predictor must be a function of the covariate level")
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


def predictor_h_quadratic():
    """The score x**2 - x - 1 on levels {0, 1, 2}.

    Collapses levels 0 and 1 to the same score (-1) and separates level
    2 (+1), the fixed grouping the matching experiment runs with.
    """
    return lambda x: float(x * x - x - 1)
