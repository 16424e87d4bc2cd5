"""Concordance between predicted and realized treatment benefit.

For two independent draws (B1, H1), (B2, H2) from a population, where B
is the realized benefit and H the predicted one, the statistic is

    Pr(H1 > H2 | B1 > B2) + 0.5 * Pr(H1 = H2 | B1 > B2)

equivalently the probability that a pair disagreeing in realized
benefit is ordered the same way by the predictor, with predictor ties
scored one half.  Pairs tied in realized benefit are excluded by the
conditioning; when that leaves nothing (Pr(B1 != B2) = 0) the statistic
does not exist and UndefinedCfb is raised.

Exact routes (closed form for two groups, the nine-cell pair table for
any finite mixture), a Monte Carlo route for continuous populations,
and the bivariate normal machinery for the linear-Gaussian closed form
all live here.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCfb, UndefinedCfb
from .population_model import (
    BenefitPredictor,
    BetaXPopulation,
    BinaryXPopulation,
    LinearGaussianPopulation,
    ProbTriple,
    best_predictor,
)

__all__ = [
    "PairTable",
    "MatchedBenefitDistribution",
    "CfbResult",
    "pair_table",
    "cfb_from_pair_table",
    "cfb_two_group",
    "cfb_monte_carlo",
    "bivariate_normal_cdf",
    "cfb_linear_gaussian",
    "gini_mean_difference",
    "empirical_cfb_oracle",
]

_REL = {"<": 0, "=": 1, ">": 2}

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Pairs per Monte Carlo chunk.  Chunks get independent child seeds, so
# results do not depend on how many threads consume them.
_CHUNK_PAIRS = 1_000_000
# Pairs per block of the Beta sampler and of scoring inside a chunk: small
# enough that the block's temporaries stay in cache, large enough that two
# pool threads seldom wait for the GIL between numpy calls.
_BLOCK = 65_536
# Pairs whose Johnk sum X + Y lies this close to 1 are redone with libm's pow.
_JOHNK_RECHECK = 2.0 ** -48
# Below this shape X or Y underflows often and Generator.beta is faster.
_JOHNK_MIN_SHAPE = 0.01
_TINY = np.finfo(np.float64).tiny
_ALL_PAIRS_MAX_UNITS = 10_000


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) * _INV_SQRT_2PI


def _Phi(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


@dataclass(frozen=True)
class CfbResult:
    """Concordance value with the masses behind it.

    numerator is the concordant-pair probability plus half the
    predictor-tied probability, denominator is Pr(B1 != B2), both over
    ordered pairs.  value may come from an algebraically equal but
    numerically preferable formula, so value == numerator/denominator
    only up to rounding.
    """

    value: float
    numerator: float
    denominator: float

    def __post_init__(self):
        if not self.denominator > 0.0:
            raise ValueError("denominator must be positive (else the statistic is undefined)")


@dataclass(frozen=True)
class PairTable:
    """Joint distribution of (sign(H1-H2), sign(B1-B2)) over ordered pairs.

    cells[i][j] is the probability of the i-th predictor relation and
    j-th benefit relation, relations ordered ('<', '=', '>').  Because
    the two draws are exchangeable the table must be mirror symmetric:
    entry(a, b) == entry(flip(a), flip(b)) exactly, which pair_table
    guarantees by construction.
    """

    cells: tuple

    def __post_init__(self):
        cells = tuple(tuple(float(v) for v in row) for row in self.cells)
        if len(cells) != 3 or any(len(row) != 3 for row in cells):
            raise ValueError("pair table needs exactly 3x3 cells")
        object.__setattr__(self, "cells", cells)
        flat = [v for row in cells for v in row]
        if any(v < -1e-12 for v in flat):
            raise ValueError("pair table entries must be nonnegative")
        total = math.fsum(flat)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"pair table sums to {total!r}, not 1")
        for a in range(3):
            for b in range(3):
                if cells[a][b] != cells[2 - a][2 - b]:
                    raise ValueError("pair table is not mirror symmetric")

    def entry(self, h_rel: str, b_rel: str) -> float:
        """Cell probability, e.g. entry('>', '<') = Pr(H1 > H2 and B1 < B2)."""
        try:
            return self.cells[_REL[h_rel]][_REL[b_rel]]
        except KeyError:
            raise ValueError(f"relations must be '<', '=' or '>', got {h_rel!r}, {b_rel!r}") from None


@dataclass(frozen=True)
class MatchedBenefitDistribution:
    """Finite mixture of benefit triples indexed by predictor level.

    rows are (h, weight, triple) with h strictly increasing, weights
    positive and summing to 1.  This is the common currency between the
    exact pair-table route and the matched-population experiments.
    """

    rows: tuple

    def __post_init__(self):
        rows = []
        for h, w, triple in self.rows:
            if not isinstance(triple, ProbTriple):
                raise TypeError("third row element must be a ProbTriple")
            rows.append((float(h), float(w), triple))
        if not rows:
            raise ValueError("distribution needs at least one row")
        if any(w <= 0.0 for _, w, _ in rows):
            raise ValueError("row weights must be positive")
        total = math.fsum(w for _, w, _ in rows)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"row weights sum to {total!r}, not 1")
        for (h1, _, _), (h2, _, _) in zip(rows, rows[1:]):
            if not h1 < h2:
                raise ValueError("h values must be strictly increasing")
        object.__setattr__(self, "rows", tuple(rows))

    def __len__(self):
        return len(self.rows)

    def h_values(self) -> tuple:
        return tuple(h for h, _, _ in self.rows)

    def weights(self) -> tuple:
        return tuple(w for _, w, _ in self.rows)


def _prob_b_gt(ta: ProbTriple, tb: ProbTriple) -> float:
    """Pr(Ba > Bb) for independent Ba ~ ta, Bb ~ tb."""
    return ta.p_plus * (tb.p_zero + tb.p_minus) + ta.p_zero * tb.p_minus


def _prob_b_eq(ta: ProbTriple, tb: ProbTriple) -> float:
    return ta.p_minus * tb.p_minus + ta.p_zero * tb.p_zero + ta.p_plus * tb.p_plus


def pair_table(dist: MatchedBenefitDistribution) -> PairTable:
    """Exact pair table for two independent draws from a finite mixture.

    Each unordered combination is evaluated once and written to both
    mirrored cells, so the symmetry the PairTable type demands holds
    bitwise, not just approximately.
    """
    rows = dist.rows
    gt_gt = gt_lt = gt_eq = 0.0
    eq_gt = eq_eq = 0.0
    for i, (hi, wi, ti) in enumerate(rows):
        w2 = wi * wi
        eq_gt += w2 * _prob_b_gt(ti, ti)
        eq_eq += w2 * _prob_b_eq(ti, ti)
        for hj, wj, tj in rows[i + 1:]:
            w = wi * wj
            # hi < hj, so "H1 > H2" means the first draw came from row j
            gt_gt += w * _prob_b_gt(tj, ti)
            gt_lt += w * _prob_b_gt(ti, tj)
            gt_eq += w * _prob_b_eq(ti, tj)
    return PairTable((
        (gt_gt, gt_eq, gt_lt),
        (eq_gt, eq_eq, eq_gt),
        (gt_lt, gt_eq, gt_gt),
    ))


def cfb_from_pair_table(table: PairTable) -> CfbResult:
    """Read the statistic off a pair table.

    Sums are grouped so that mirrored cells combine first; under an
    independent table (every predictor relation carries the same benefit
    split) the result is then exactly 0.5, no rounding slack needed.
    """
    conc = table.entry(">", ">") + table.entry("<", "<")
    disc = table.entry(">", "<") + table.entry("<", ">")
    tied = table.entry("=", ">") + table.entry("=", "<")
    den = (conc + disc) + tied
    if den == 0.0:
        raise UndefinedCfb("no pair disagrees in realized benefit")
    num = conc + 0.5 * tied
    return CfbResult(num / den, num, den)


def _two_group_masses(c, pm, p0, pp, qm, q0, qp):
    """(cross_conc, cross_disc, A) of the two-level closed form.

    Low level: mass 1-c, triple (pm, p0, pp); high level: mass c, triple
    (qm, q0, qp).  Takes Python floats or numpy arrays alike, so
    cfb_two_group, the census scan and the matching sweep evaluate the
    same terms in the same order: equal inputs give bitwise equal masses.
    """
    cross_conc = qp * p0 + qp * pm + q0 * pm
    within_high = qp * q0 + qp * qm + q0 * qm
    within_low = pp * p0 + pp * pm + p0 * pm
    cross_disc = pp * q0 + pp * qm + p0 * qm
    within = (c * c) * within_high + ((1.0 - c) * (1.0 - c)) * within_low
    del within_high, within_low  # on whole-grid arrays, each is one more live array
    return cross_conc, cross_disc, c * (1.0 - c) * (cross_conc + cross_disc) + within


def cfb_two_group(c: float, triple_low: ProbTriple, triple_high: ProbTriple) -> CfbResult:
    """Closed form for a population with two predictor levels.

    The low level carries mass 1-c and benefit triple triple_low, the
    high level mass c and triple_high.  Writing cross_conc for the
    probability that the high-level draw realizes the larger benefit in
    a cross pair, cross_disc for the reverse, and within_high and
    within_low for strict benefit orderings inside one level, the
    statistic is

        0.5 + c(1-c) (cross_conc - cross_disc) / (2 A)

    with A = c(1-c)(cross_conc + cross_disc) + c^2 within_high
    + (1-c)^2 within_low, half the probability of any benefit
    disagreement.  The deviation form is used for the value so that
    triple_low == triple_high gives exactly 0.5: the two cross masses
    are then the same expression term for term.

    The masses come from _two_group_masses, which the census scan
    (improper_search) and the matching sweep (matched_pairs) use too.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie strictly inside (0, 1), got {c!r}")
    cross_conc, cross_disc, a = _two_group_masses(c, *triple_low.as_tuple(), *triple_high.as_tuple())
    if a == 0.0:
        raise UndefinedCfb("no pair disagrees in realized benefit")
    net = c * (1.0 - c) * (cross_conc - cross_disc)
    return CfbResult(0.5 + net / (2.0 * a), a + net, 2.0 * a)


# ---------------------------------------------------------------------------
# Monte Carlo route
# ---------------------------------------------------------------------------


def _worker_count() -> int:
    """Thread count for scoring Monte Carlo chunks and for grid_search's
    scan blocks, controlled by CFB_THREADS.

    Unset or 0 picks a small default; 1 forces sequential work.  No
    result depends on this, only wall time does.
    """
    raw = os.environ.get("CFB_THREADS", "").strip()
    if raw in ("", "0"):
        return min(os.cpu_count() or 1, 4)
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"CFB_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"CFB_THREADS must be positive, got {n}")
    return n


def _sample_b_from_triples(u, t_minus, t_zero):
    """Map uniforms to benefit values given per-unit triple components.

    -1 below t_minus, 0 below t_minus + t_zero, else 1.  Counting the two
    thresholds u clears gives the same values, because t_zero >= 0 keeps
    t_minus <= t_minus + t_zero in floating point too.
    """
    b = (u >= t_minus).view(np.int8)
    b += (u >= t_minus + t_zero).view(np.int8)
    b -= 1
    return b


def _beta_draws(rng, a, b, count):
    """`count` Beta(a, b) draws that leave rng where rng.beta(a, b, count) does.

    For a, b <= 1 numpy's C loop is Johnk's: draw U, V; X = U**(1/a),
    Y = V**(1/b); accept when X + Y <= 1 and U + V > 0; return X/(X+Y),
    computed from logarithms when X or Y underflows to 0.  Here the same
    loop runs on blocks of k pairs from rng.random(2k).  k never exceeds
    the draws still needed, so every pair a block accepts is used and the
    stream ends where numpy's loop ends it.  Pairs whose X + Y lies within
    2**-48 of 1, or whose X or Y is below the normal range, are redone one
    by one in libm arithmetic, as numpy's loop does them, so every accept
    decision agrees with it.  Other values may differ from rng.beta's in
    the last few bits, because numpy's vectorized pow (and u*u for an
    exponent of 2) round differently from libm.

    Shapes above 1 call rng.beta, and so do shapes below 0.01: there a
    growing share of X or Y underflows and numpy's own loop is faster.
    """
    if not (_JOHNK_MIN_SHAPE <= a <= 1.0 and _JOHNK_MIN_SHAPE <= b <= 1.0):
        return rng.beta(a, b, count)
    ea, eb = 1.0 / a, 1.0 / b
    out = np.empty(count)
    filled = 0
    while filled < count:
        k = min(_BLOCK, count - filled)
        uv = rng.random(2 * k)
        u, v = uv[0::2], uv[1::2]
        x = u * u if ea == 2.0 else np.power(u, ea)
        y = v * v if eb == 2.0 else np.power(v, eb)
        s = x + y
        accept = s <= 1.0
        with np.errstate(invalid="ignore"):  # 0/0 where both underflow, redone below
            value = x / s
        redo = np.abs(s - 1.0) <= _JOHNK_RECHECK
        if min(x.min(), y.min()) < _TINY:  # else U and V are positive too
            redo |= (x < _TINY) | (y < _TINY)
        for i in np.flatnonzero(redo).tolist():
            got = _johnk_pair(uv[2 * i], uv[2 * i + 1], a, b)
            accept[i] = got is not None
            if got is not None:
                value[i] = got
        value = np.extract(accept, value)
        out[filled:filled + len(value)] = value
        filled += len(value)
    return out


def _johnk_pair(u, v, a, b):
    """One step of numpy's Johnk loop in libm arithmetic: X/(X+Y), or None if rejected."""
    x = math.pow(u, 1.0 / a)
    y = math.pow(v, 1.0 / b)
    if not (x + y <= 1.0 and u + v > 0.0):
        return None
    if x > 0.0 and y > 0.0:
        return x / (x + y)
    log_u = math.log(u) if u > 0.0 else -math.inf
    log_v = math.log(v) if v > 0.0 else -math.inf
    d = log_u / a - log_v / b
    if d > 0.0:
        return math.exp(-math.log1p(math.exp(-d)))
    return math.exp(d - math.log1p(math.exp(d)))


def _draw_columns(pop, rng, count, predictor):
    """The random columns behind `count` units, drawn in stream order.

    Each column holds one value per unit; _units maps any slice of them
    to (B, H).  Raises for populations or predictors with no sampler.
    """
    if isinstance(pop, BinaryXPopulation):
        return rng.random(count), rng.random(count)
    if isinstance(pop, BetaXPopulation):
        if predictor is not None:
            raise ValueError("custom predictors are only supported for discrete covariates")
        return _beta_draws(rng, pop.alpha, pop.beta, count), rng.random(count)
    if isinstance(pop, LinearGaussianPopulation):
        if predictor is not None:
            raise ValueError("custom predictors are only supported for discrete covariates")
        return tuple(rng.standard_normal(count) for _ in range(3))
    raise TypeError(f"no Monte Carlo sampler for {type(pop).__name__}")


def _units(pop, columns, predictor):
    """(B, H) of the units whose random columns (see _draw_columns) are given."""
    if isinstance(pop, BinaryXPopulation):
        h_table = predictor if predictor is not None else best_predictor(pop)
        x_uniform, u = columns
        x = x_uniform < pop.c
        t0, t1 = pop.triple0, pop.triple1
        tm = np.where(x, t1.p_minus, t0.p_minus)
        tz = np.where(x, t1.p_zero, t0.p_zero)
        b = _sample_b_from_triples(u, tm, tz)
        h = np.where(x, h_table(1), h_table(0))
        return b, h
    if isinstance(pop, BetaXPopulation):
        x, u = columns
        t0, t1 = pop.triple0, pop.triple1
        tm = t0.p_minus + (t1.p_minus - t0.p_minus) * x
        tz = t0.p_zero + (t1.p_zero - t0.p_zero) * x
        b = _sample_b_from_triples(u, tm, tz)
        tp = t0.p_plus + (t1.p_plus - t0.p_plus) * x
        return b, tp - tm  # oracle predictor E[B | X]
    x, z1, z2 = columns
    eps0 = pop.sigma * z1
    eps1 = pop.sigma * (pop.rho * z1 + math.sqrt(1.0 - pop.rho * pop.rho) * z2)
    h = pop.betat + pop.betaxt * x
    return h + (eps1 - eps0), h


def _pairs_within(counts):
    """Number of unordered pairs inside groups of the given sizes."""
    return int((counts * (counts - 1)).sum()) // 2


def _pair_counts(b, h):
    """Exact (concordant, predictor-tied, benefit-differing) unordered pair counts.

    A pair is counted when its benefits differ; it is concordant when h
    orders it the same way, tied when its h values are equal.  Both arrays
    are dense-ranked, the h ranks are put in (b rank, h rank) order, and
    the strict inversions of that sequence are exactly the discordant
    pairs.  Inversions are counted by bottom-up merging: at width w each
    element of a right half counts the larger elements of its left half
    with two searchsorted calls, then every block of 2w is sorted.  Ties
    follow from group sizes.  O(n log^2 n) time, O(n) memory.
    """
    n = len(b)
    _, b_rank = np.unique(b, return_inverse=True)
    h_levels, h_rank = np.unique(h, return_inverse=True)
    u = len(h_levels)
    seq = np.sort(b_rank * u + h_rank)
    runs = np.flatnonzero(np.concatenate(([True], seq[1:] != seq[:-1], [True])))
    tied_both = _pairs_within(np.diff(runs))
    seq %= u
    pos = np.arange(n)
    disc = 0
    w = 1
    while w < n:
        block = pos // (2 * w)
        right = (pos & w) != 0
        key = block * u + seq
        left = key[~right]
        larger = (np.searchsorted(left, (block[right] + 1) * u)
                  - np.searchsorted(left, key[right], side="right"))
        disc += int(larger.sum())
        key.sort()
        seq = key - block * u
        w *= 2
    valid = n * (n - 1) // 2 - _pairs_within(np.bincount(b_rank))
    tied = _pairs_within(np.bincount(h_rank)) - tied_both
    return valid - tied - disc, tied, valid


def _score_chunk(pop, child_seed, m, predictor):
    """Exact (concordant, predictor-tied, benefit-differing) counts over the
    pairs (i, i + m) of 2m units drawn from child_seed.

    The random columns are drawn whole, in stream order; units are built
    and pairs scored one cache-sized block at a time.
    """
    rng = np.random.default_rng(child_seed)
    columns = _draw_columns(pop, rng, 2 * m, predictor)
    conc = tied = valid = 0
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        b1, h1 = _units(pop, [c[lo:hi] for c in columns], predictor)
        b2, h2 = _units(pop, [c[m + lo:m + hi] for c in columns], predictor)
        differ = b1 != b2
        conc += (int(np.count_nonzero((b1 > b2) & (h1 > h2)))
                 + int(np.count_nonzero((b1 < b2) & (h1 < h2))))
        tied += int(np.count_nonzero(differ & (h1 == h2)))
        valid += int(np.count_nonzero(differ))
    return conc, tied, valid


def cfb_monte_carlo(pop, n, seed, predictor=None, all_pairs=False):
    """Monte Carlo estimate of the concordance statistic.

    Parameters
    ----------
    pop : BinaryXPopulation, BetaXPopulation or LinearGaussianPopulation
    n : int
        Number of independent pairs to score.  With all_pairs=True, n is
        instead the number of units and every one of the n(n-1)/2 pairs
        is scored (capped at 10000 units).
    seed : int
        Seed for the underlying bit generator.  Results are reproducible
        for a given (pop, n, seed, all_pairs), regardless of CFB_THREADS.
    predictor : BenefitPredictor, optional
        Alternative score table (discrete covariates only); default is
        the oracle predictor.

    Independent pairs come in chunks of 10**6, each from its own child of
    SeedSequence(seed) and scored one block at a time into exact integer
    counts, so no result depends on CFB_THREADS.  Beta covariates with
    shapes in [0.01, 1] run numpy's Johnk loop vectorized on the same
    stream (_beta_draws): the counts are those of Generator.beta draws
    unless a draw that moved by a few ULP crosses a benefit threshold or
    swaps the order of two predictor values.

    All pairs are counted exactly by sorting, not compared one by one:
    the discordant pairs are the inversions of the predictor ranks put in
    benefit order, counted by a vectorized merge (O(n log^2 n) time, O(n)
    memory), and ties come from group sizes.  Ternary and continuous
    benefits take the same path.

    Returns
    -------
    (estimate, standard_error), the latter the usual binomial one over
    the pairs that survived the conditioning.  In all_pairs mode those
    pairs share units, so this SE is known to be far too small (about
    25x at 2000 units of the Beta example); an honest U-statistic SE is
    ROADMAP item 4.

    Raises UndefinedCfb if no sampled pair disagreed in realized benefit.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if predictor is not None and not isinstance(predictor, BenefitPredictor):
        raise TypeError("predictor must be a BenefitPredictor")

    if all_pairs:
        if n > _ALL_PAIRS_MAX_UNITS:
            raise ValueError(f"all_pairs mode is capped at {_ALL_PAIRS_MAX_UNITS} units")
        if n < 2:
            raise ValueError("all_pairs mode needs at least 2 units")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        b, h = _units(pop, _draw_columns(pop, rng, n, predictor), predictor)
        conc, tied, valid = _pair_counts(b, h)
    else:
        n_chunks = (n + _CHUNK_PAIRS - 1) // _CHUNK_PAIRS
        sizes = [_CHUNK_PAIRS] * (n_chunks - 1) + [n - _CHUNK_PAIRS * (n_chunks - 1)]
        children = np.random.SeedSequence(seed).spawn(n_chunks)
        workers = min(_worker_count(), n_chunks)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(
                    lambda cm: _score_chunk(pop, cm[0], cm[1], predictor),
                    zip(children, sizes),
                ))
        else:
            parts = [_score_chunk(pop, c, m, predictor) for c, m in zip(children, sizes)]
        conc, tied, valid = (sum(col) for col in zip(*parts))

    if valid == 0:
        raise UndefinedCfb("no sampled pair disagrees in realized benefit")
    # exact integers below 2**53, so this is the float a pair-by-pair sum gives
    est = (conc + 0.5 * tied) / valid
    se = math.sqrt(est * (1.0 - est) / valid)
    return est, se


# ---------------------------------------------------------------------------
# bivariate normal and the linear-Gaussian closed form
# ---------------------------------------------------------------------------


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call so `import cfb` stays light."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


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


def cfb_linear_gaussian(pop: LinearGaussianPopulation) -> CfbResult:
    """Exact statistic for the linear-Gaussian population.

    For a pair of units, (H1 - H2, B1 - B2) is centered bivariate normal
    with correlation

        r = |betaxt| / sqrt(betaxt^2 + 2 sigma^2 (1 - rho))

    and the statistic equals Pr(both differences share a sign), i.e.
    2 * Pr(D1 < 0, D2 < 0) = 0.5 + arcsin(r)/pi by Sheppard's (1899)
    orthant formula.  The arcsine is evaluated here, so no scipy import
    and no quadrature; `2 * bivariate_normal_cdf(0, 0, r)` is the
    independent check the tests compare it with.

    Raises DegenerateCfb when betaxt is 0: the predictor is then the
    same for every unit and no ranking is expressed.
    """
    if pop.betaxt == 0.0:
        raise DegenerateCfb("betaxt is 0, the benefit predictor is constant")
    if pop.rho == 1.0:
        r = 1.0
    else:
        b2 = pop.betaxt * pop.betaxt
        r = abs(pop.betaxt) / math.sqrt(b2 + 2.0 * pop.sigma * pop.sigma * (1.0 - pop.rho))
        r = min(r, 1.0)
    value = 0.5 + math.asin(r) / math.pi
    # continuous benefit: the conditioning event has probability one
    return CfbResult(value, value, 1.0)


# ---------------------------------------------------------------------------
# small exact helpers
# ---------------------------------------------------------------------------


def gini_mean_difference(dist: MatchedBenefitDistribution) -> float:
    """E|H1 - H2| for two independent draws of the predictor level."""
    h = np.array(dist.h_values())
    w = np.array(dist.weights())
    return float(w @ np.abs(h[:, None] - h[None, :]) @ w)


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
