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
any finite mixture, Sheppard's arcsine for the linear-Gaussian family)
and a Monte Carlo route for the oracle predictor of the Beta-mixed
population all live here.  Only the Monte Carlo route uses numpy, and it
imports it when called, so the exact routes and gini_mean_difference run
without it; the route's thread pool is imported on first use too.  The
references the tests check these routes against, a quadrature of the
bivariate normal cdf and a brute-force pair scorer, are in
tests/oracles.py, not in the package.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from dataclasses import dataclass

from .errors import DegenerateCfb, UndefinedCfb
from .population_model import BetaXPopulation, LinearGaussianPopulation, ProbTriple

__all__ = [
    "PairTable",
    "MatchedBenefitDistribution",
    "CfbResult",
    "pair_table",
    "cfb_from_pair_table",
    "cfb_two_group",
    "cfb_monte_carlo",
    "cfb_linear_gaussian",
    "gini_mean_difference",
]

_REL = {"<": 0, "=": 1, ">": 2}

# Pairs per Monte Carlo chunk.  Chunks get independent child seeds, so
# results do not depend on how many threads consume them.
_CHUNK_PAIRS = 1_000_000
# Pairs per block of the Beta sampler and of scoring inside a chunk, and so
# the size of a chunk's scratch sets (_Scratch, 1.4 MiB at 2**15): small
# enough that the block's buffers stay in cache, large enough that two pool
# threads drawing Johnk blocks seldom wait for the GIL between numpy calls,
# which they did at 2**14.
_BLOCK = 32_768
_MAX_THREADS = 64  # most workers CFB_THREADS gets, each a pool thread and a scratch set
# Pairs whose Johnk sum X + Y lies this close to 1 are redone with libm's pow.
_JOHNK_RECHECK = 2.0 ** -48
# Below this shape X or Y underflows often and Generator.beta is faster.
_JOHNK_MIN_SHAPE = 0.01
_TINY = sys.float_info.min  # np.finfo(np.float64).tiny
_ALL_PAIRS_MAX_UNITS = 10_000


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


def __getattr__(name):
    """ThreadPoolExecutor, imported on first use (PEP 562): the exact routes start no pool.

    It stays a module name, so a caller can replace it for the Monte Carlo route.
    """
    if name != "ThreadPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ThreadPoolExecutor

    globals()[name] = ThreadPoolExecutor  # later lookups skip this function
    return ThreadPoolExecutor


def _worker_count() -> int:
    """Thread count for drawing Monte Carlo chunks, controlled by CFB_THREADS.

    Unset or 0 picks the CPUs this process may run on, at most 4; 1
    forces sequential work; a value above _MAX_THREADS counts as
    _MAX_THREADS, so a harness that sets it to a large machine's CPU
    count still runs.  No result depends on this, only wall time does.
    """
    raw = os.environ.get("CFB_THREADS", "").strip()
    if raw in ("", "0"):
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        return min(usable or 1, 4)
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"CFB_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"CFB_THREADS must be positive, got {n}")
    return min(n, _MAX_THREADS)


class _Scratch:
    """Work buffers for blocks of up to `size` pairs, one set per worker.

    Every worker runs its Johnk blocks in its own set (X in t_minus, Y in
    t_zero, X + Y in u, the accept and recheck masks in mask) before any
    block is scored.  The calling thread then scores in the first set: for
    each half of a block in turn it draws the benefit uniforms into u and
    the two benefit thresholds into t_minus and t_zero, builds B and H in
    that half's row of b and h, and then compares the halves in mask.
    Each buffer is one contiguous row, so its [:k] is too.
    """

    def __init__(self, size):
        import numpy as np

        self.size = size
        rows = np.empty((5, size))
        self.u, self.t_minus, self.t_zero = rows[:3]
        self.h = rows[3:]
        self.b = np.empty((2, size), np.int8)
        self.mask = np.empty((2, size), bool)


def _sample_b_from_triples(u, t_minus, t_zero, b, above):
    """Map uniforms to benefit values given per-unit triple components.

    -1 below t_minus, 0 below t_minus + t_zero, else 1.  Counting the two
    thresholds u clears gives the same values, because t_zero >= 0 keeps
    t_minus <= t_minus + t_zero in floating point too.  It writes the
    values into b (int8, len(u)), uses above (bool, len(u)) for the second
    count and overwrites t_zero with the upper threshold.
    """
    import numpy as np

    np.greater_equal(u, t_minus, out=b.view(np.bool_))
    np.add(t_minus, t_zero, out=t_zero)
    np.greater_equal(u, t_zero, out=above)
    b += above.view(np.int8)
    b -= 1
    return b


def _beta_draws(rng, a, b, count, scratch=None):
    """`count` Beta(a, b) draws that leave rng where rng.beta(a, b, count) does.

    For a, b <= 1 numpy's C loop is Johnk's: draw U, V; X = U**(1/a),
    Y = V**(1/b); accept when X + Y <= 1 and U + V > 0; return X/(X+Y),
    computed from logarithms when X or Y underflows to 0.  Here the same
    loop runs on blocks of k pairs from rng.random(2k), in the buffers of
    scratch (a _Scratch, made here when not given), and each block's
    accepted values go straight into the returned column.  k never
    exceeds the draws still needed, so every pair a block accepts is used
    and the stream ends where numpy's loop ends it, whatever the block
    size.  Pairs whose X + Y lies within
    2**-48 of 1, or whose X or Y is below the normal range, are redone one
    by one in libm arithmetic, as numpy's loop does them, so every accept
    decision agrees with it.  Other values may differ from rng.beta's in
    the last few bits, because numpy's vectorized pow (and u*u for an
    exponent of 2) round differently from libm.

    Shapes above 1 call rng.beta, and so do shapes below 0.01: there a
    growing share of X or Y underflows and numpy's own loop is faster.
    """
    if not _johnk_shapes(a, b):
        return rng.beta(a, b, count)
    import numpy as np

    if scratch is None:
        scratch = _Scratch(min(count, _BLOCK))
    out = np.empty(count)
    filled = 0
    while filled < count:
        filled += _johnk_attempts(rng, a, b, min(scratch.size, count - filled), scratch, out[filled:])
    return out


def _johnk_shapes(a, b):
    """Whether _beta_draws runs Johnk's loop itself for Beta(a, b), and so
    whether its attempts can be split (_beta_draws_in_parts)."""
    return _JOHNK_MIN_SHAPE <= a <= 1.0 and _JOHNK_MIN_SHAPE <= b <= 1.0


def _johnk_attempts(rng, a, b, k, scratch, out):
    """Run k attempts of Johnk's loop on rng.random(2k); returns how many were accepted.

    Attempt i takes the uniforms 2i and 2i + 1.  The accepted values go to
    out[:kept] in attempt order, and the accept mask is left in
    scratch.mask[0, :k].  This is the loop body of _beta_draws, which
    says how the values relate to numpy's.
    """
    import numpy as np

    uv = rng.random(2 * k)
    u, v = uv[0::2], uv[1::2]
    x, y, s = scratch.t_minus[:k], scratch.t_zero[:k], scratch.u[:k]
    accept, redo = scratch.mask[0, :k], scratch.mask[1, :k]
    ea, eb = 1.0 / a, 1.0 / b
    np.multiply(u, u, out=x) if ea == 2.0 else np.power(u, ea, out=x)
    np.multiply(v, v, out=y) if eb == 2.0 else np.power(v, eb, out=y)
    np.add(x, y, out=s)
    np.less_equal(s, 1.0, out=accept)
    tiny = None
    if min(x.min(), y.min()) < _TINY:  # else U and V are positive too
        tiny = (x < _TINY) | (y < _TINY)
    with np.errstate(invalid="ignore"):  # 0/0 where both underflow, redone below
        np.divide(x, s, out=x)
    np.subtract(s, 1.0, out=s)
    np.less_equal(np.abs(s, out=s), _JOHNK_RECHECK, out=redo)
    if tiny is not None:
        redo |= tiny
    for i in np.flatnonzero(redo).tolist():
        got = _johnk_pair(uv[2 * i], uv[2 * i + 1], a, b)
        accept[i] = got is not None
        if got is not None:
            x[i] = got
    kept = int(np.count_nonzero(accept))
    np.compress(accept, x, out=out[:kept])
    return kept


def _planned_attempts(a, b, count):
    """Johnk attempts that give `count` acceptances of Beta(a, b) but for a
    chance of order 1e-9: their mean plus six standard deviations.

    An attempt is accepted with probability G(a+1) G(b+1) / G(a+b+1) (G
    the gamma function), so the attempts needed are negative binomial.
    """
    p = math.exp(math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 1.0))
    return math.ceil((count + 6.0 * math.sqrt(count * (1.0 - p))) / p)


def _johnk_run(state, a, b, lo, hi, scratch, out):
    """Johnk attempts lo to hi of the stream at generator state `state`,
    drawn in blocks of up to scratch.size attempts in scratch's buffers.

    Attempt i takes outputs 2i and 2i + 1 of the stream.  The accepted
    values go in attempt order to out[lo:hi], which has room for them, as
    an attempt accepts at most one value.  Returns each block's (first
    attempt, attempts, accepted, accept mask packed to bits).
    """
    import numpy as np

    rng = _generator_at(state, 2 * lo)
    blocks = []
    pos = lo
    for first in range(lo, hi, scratch.size):
        k = min(scratch.size, hi - first)
        kept = _johnk_attempts(rng, a, b, k, scratch, out[pos:])
        blocks.append((first, k, kept, np.packbits(scratch.mask[0, :k])))
        pos += kept
    return blocks


def _generator_at(state, offset):
    """A Generator that draws the stream of PCG64 state `state` from its
    offset-th 64-bit output on, without drawing the outputs before it."""
    import numpy as np

    bits = np.random.PCG64(0)  # seeded only to construct it; set to `state`
    bits.state = state
    return np.random.Generator(bits.advance(offset))


def _beta_draws_in_parts(rng, a, b, count, stops, scratches, run=map):
    """The `count` >= 1 values _beta_draws(rng, a, b, count) draws, drawn by
    workers at once; a, b in Johnk's range (_johnk_shapes).

    Worker i, with scratch set i, draws the Johnk attempts from stops[i - 1]
    (0 for the first) to stops[i] (_johnk_run); the workers run through
    run (map, or a thread pool's map).  They write into one array of
    stops[-1] values, where the attempts they reject leave gaps that
    nothing writes.  If the attempts give fewer than `count` values the
    rest is drawn by _beta_draws after them.  Returns the column as (first
    unit, values) pieces in order, and leaves rng where _beta_draws leaves
    it: after the attempt that gives the count-th acceptance.
    """
    import numpy as np

    state = rng.bit_generator.state
    out = np.empty(stops[-1])
    starts = [0, *stops[:-1]]
    drawn = list(run(lambda i: _johnk_run(state, a, b, starts[i], stops[i], scratches[i], out),
                     range(len(scratches))))
    pieces = []
    filled = 0
    for lo, blocks in zip(starts, drawn):
        first_unit = filled
        for first, k, kept, mask in blocks:
            if filled + kept >= count:  # the count-th acceptance is in this block
                nth = np.flatnonzero(np.unpackbits(mask, count=k))[count - filled - 1]
                rng.bit_generator.advance(2 * (first + int(nth) + 1))
                filled = count
                break
            filled += kept
        if filled > first_unit:
            pieces.append((first_unit, out[lo:lo + filled - first_unit]))
        if filled == count:
            return pieces
    rng.bit_generator.advance(2 * stops[-1])
    pieces.append((filled, _beta_draws(rng, a, b, count - filled, scratches[0])))
    return pieces


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


def _draw_columns(pop, rng, count, scratches, run=map):
    """The covariates of `count` units of a BetaXPopulation, as (first unit,
    values) pieces in order; leaves rng at the start of their benefit uniforms.

    With one scratch set, or a shape outside Johnk's range, the column is
    drawn by _beta_draws in the first set, as one piece.  Otherwise one
    worker per set draws its share of the Johnk attempts planned to give
    `count` values (_planned_attempts, _beta_draws_in_parts), run through run.
    """
    a, b = pop.alpha, pop.beta
    workers = len(scratches)
    if workers > 1 and _johnk_shapes(a, b):
        planned = _planned_attempts(a, b, count)
        stops = [planned * (i + 1) // workers for i in range(workers)]
        x = _beta_draws_in_parts(rng, a, b, count, stops, scratches, run)
    else:
        x = [(0, _beta_draws(rng, a, b, count, scratches[0]))]
    return x


def _units(pop, columns, scratch, half=0):
    """(B, H) of the units whose covariates and benefit uniforms are given,
    H the oracle predictor E[B | X].

    B and H are written into row `half` (0 or 1) of scratch's b and h, and
    the thresholds and masks use its shared buffers.
    """
    import numpy as np

    x, u = columns
    k = len(u)
    t_minus, t_zero = scratch.t_minus[:k], scratch.t_zero[:k]
    b, h = scratch.b[half, :k], scratch.h[half, :k]
    t0, t1 = pop.triple0, pop.triple1
    # t0 + (t1 - t0) * x per component, H = p_plus - p_minus
    np.multiply(x, t1.p_minus - t0.p_minus, out=t_minus)
    t_minus += t0.p_minus
    np.multiply(x, t1.p_zero - t0.p_zero, out=t_zero)
    t_zero += t0.p_zero
    np.multiply(x, t1.p_plus - t0.p_plus, out=h)
    h += t0.p_plus
    h -= t_minus
    return _sample_b_from_triples(u, t_minus, t_zero, b, scratch.mask[1, :k]), h


def _block_covariates(pieces, lo, hi):
    """The covariates of units lo to hi, from the column's (first unit,
    values) pieces in order: a view of one piece, or a copy where the
    units span two."""
    import numpy as np

    x = [v[max(lo - s, 0):hi - s] for s, v in pieces if s < hi and lo < s + len(v)]
    return x[0] if len(x) == 1 else np.concatenate(x)


def _pair_counts(b, h):
    """Exact (concordant, predictor-tied, benefit-differing) unordered pair counts
    for benefits b in {-1, 0, 1}, the only values _units draws.

    A pair is counted when its benefits differ; it is concordant when h
    orders it the same way, tied when its h values are equal.  The h of
    each benefit level are sorted once.  For each (lower, higher) pair of
    levels, searching every higher h in the lower level's sorted h gives
    the lower units below it, which are its concordant pairs, and up to
    it, whose difference is its tied pairs.  O(n log n) time, O(n) memory.
    """
    import numpy as np

    levels = [np.sort(h[b == v]) for v in (-1, 0, 1)]
    conc = tied = valid = 0
    for lower, higher in itertools.combinations(levels, 2):
        below = int(np.searchsorted(lower, higher, "left").sum())
        upto = int(np.searchsorted(lower, higher, "right").sum())
        conc += below
        tied += upto - below
        valid += len(lower) * len(higher)
    return conc, tied, valid


def _score_chunk(pop, child_seed, m, workers=1, run=map):
    """Exact (concordant, predictor-tied, benefit-differing) counts over the
    pairs (i, i + m) of 2m units drawn from child_seed.

    `workers` workers, run through run (map, or a thread pool's map), each
    in a scratch set (_Scratch, 1.4 MiB) of its own, draw the covariate
    column together where its Johnk attempts split (_draw_columns).  It
    is stored: 2m values (16 MB at m = 10**6), or for a split draw one
    slot per planned attempt (20 MB at shape (0.5, 0.5)).  Then the
    calling thread scores every pair in the first scratch set, one block
    of up to _BLOCK pairs at a time, drawing the benefit uniforms as it
    goes: the first half's by the chunk's generator, the second half's by
    one m outputs further on (_generator_at).  The counts do not depend
    on `workers`.
    """
    import numpy as np

    rng = np.random.default_rng(child_seed)
    scratches = [_Scratch(min(m, _BLOCK)) for _ in range(workers)]
    x = _draw_columns(pop, rng, 2 * m, scratches, run)
    first, second = rng, _generator_at(rng.bit_generator.state, m)
    scratch = scratches[0]
    conc = tied = valid = 0
    for lo in range(0, m, scratch.size):
        k = min(scratch.size, m - lo)
        u = scratch.u[:k]
        b1, h1 = _units(pop, (_block_covariates(x, lo, lo + k), first.random(out=u)), scratch, 0)
        b2, h2 = _units(pop, (_block_covariates(x, m + lo, m + lo + k), second.random(out=u)), scratch, 1)
        b_rel, h_rel = scratch.mask[0, :k], scratch.mask[1, :k]
        np.not_equal(b1, b2, out=b_rel)
        valid += int(np.count_nonzero(b_rel))
        np.equal(h1, h2, out=h_rel)
        h_rel &= b_rel
        tied += int(np.count_nonzero(h_rel))
        for order in (np.greater, np.less):
            order(b1, b2, out=b_rel)
            order(h1, h2, out=h_rel)
            h_rel &= b_rel
            conc += int(np.count_nonzero(h_rel))
    return conc, tied, valid


def cfb_monte_carlo(pop, n, seed, all_pairs=False):
    """Monte Carlo estimate of the statistic of the oracle predictor E[B | X].

    Parameters
    ----------
    pop : BetaXPopulation
        The Beta-mixed population; any other raises TypeError.
    n : int
        Number of independent pairs to score.  With all_pairs=True, n is
        instead the number of units and every one of the n(n-1)/2 pairs
        is scored (capped at 10000 units).
    seed : int
        Seed for the underlying bit generator.  Results are reproducible
        for a given (pop, n, seed, all_pairs), regardless of CFB_THREADS.

    Independent pairs come in chunks of 10**6, each from its own child of
    SeedSequence(seed) and scored one block at a time into exact integer
    counts, so no result depends on CFB_THREADS.  A chunk's benefit
    uniforms are drawn block by block as its pairs are scored, by one
    running generator per half of the chunk; only the covariate column
    is stored (16 MB a chunk).  Each worker has one scratch set of
    2**15-pair block buffers (1.4 MiB), allocated per chunk, in which it
    runs the Beta sampler; the block scorer works in the first.  Beta covariates with
    shapes in [0.01, 1] run numpy's Johnk loop vectorized on the same
    stream (_beta_draws): the counts are those of Generator.beta draws
    unless a draw that moved by a few ULP crosses a benefit threshold or
    swaps the order of two predictor values.

    Chunks are done one at a time (_score_chunk), so one covariate column
    is held whatever CFB_THREADS is.  The pool threads only draw: each
    Johnk attempt takes two outputs of the generator, so at shapes in
    [0.01, 1] the workers draw the column together, split at generator
    offsets; other shapes take a varying number of random bits per draw,
    so the calling thread draws the column and no pool starts.  The
    calling thread scores every pair.  There are at most as many workers
    as chunks, so a run of one chunk (n <= 10**6) runs on one worker.

    All pairs are counted exactly, not compared one by one: the predictor
    values of each benefit level (-1, 0, 1) are sorted once, and one sorted
    search per pair of levels counts its concordant and tied pairs
    (_pair_counts, O(n log n) time, O(n) memory).

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
    if not isinstance(pop, BetaXPopulation):
        raise TypeError(f"no Monte Carlo sampler for {type(pop).__name__}")
    import numpy as np

    if all_pairs:
        if n > _ALL_PAIRS_MAX_UNITS:
            raise ValueError(f"all_pairs mode is capped at {_ALL_PAIRS_MAX_UNITS} units")
        if n < 2:
            raise ValueError("all_pairs mode needs at least 2 units")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        scratch = _Scratch(n)
        [(_, x)] = _draw_columns(pop, rng, n, [scratch])
        b, h = _units(pop, (x, rng.random(out=scratch.u)), scratch)
        conc, tied, valid = _pair_counts(b, h)
    else:
        n_chunks = (n + _CHUNK_PAIRS - 1) // _CHUNK_PAIRS
        sizes = [_CHUNK_PAIRS] * (n_chunks - 1) + [n - _CHUNK_PAIRS * (n_chunks - 1)]
        children = np.random.SeedSequence(seed).spawn(n_chunks)
        workers = min(_worker_count(), n_chunks)
        if not _johnk_shapes(pop.alpha, pop.beta):
            workers = 1  # the calling thread draws an unsplit column, so no pool
        if workers > 1:
            # the module's binding at call time, which a caller may have replaced
            pool_class = sys.modules[__name__].ThreadPoolExecutor
            with pool_class(max_workers=workers) as pool:
                parts = [_score_chunk(pop, c, m, workers, pool.map) for c, m in zip(children, sizes)]
        else:
            parts = [_score_chunk(pop, c, m) for c, m in zip(children, sizes)]
        conc, tied, valid = (sum(col) for col in zip(*parts))

    if valid == 0:
        raise UndefinedCfb("no sampled pair disagrees in realized benefit")
    # exact integers below 2**53, so this is the float a pair-by-pair sum gives
    est = (conc + 0.5 * tied) / valid
    se = math.sqrt(est * (1.0 - est) / valid)
    return est, se


# ---------------------------------------------------------------------------
# the linear-Gaussian closed form
# ---------------------------------------------------------------------------


def cfb_linear_gaussian(pop: LinearGaussianPopulation) -> CfbResult:
    """Exact statistic for the linear-Gaussian population.

    For a pair of units, (H1 - H2, B1 - B2) is centered bivariate normal
    with correlation

        r = |betaxt| / sqrt(betaxt^2 + 2 sigma^2 (1 - rho))

    and the statistic equals Pr(both differences share a sign), i.e.
    2 * Pr(D1 < 0, D2 < 0) = 0.5 + arcsin(r)/pi by Sheppard's (1899)
    orthant formula.  The arcsine is evaluated here, so no quadrature;
    `2 * bivariate_normal_cdf(0, 0, r)`, a quadrature in tests/oracles.py,
    is the independent check the tests compare it with.

    Raises DegenerateCfb when betaxt is 0: the predictor is then the
    same for every unit and no ranking is expressed.
    """
    if pop.betaxt == 0.0:
        raise DegenerateCfb("betaxt is 0, the benefit predictor is constant")
    if pop.rho == 1.0:
        r = 1.0
    else:
        # scaled by a power of two, which is exact, so that no square overflows or underflows
        _, e = math.frexp(max(abs(pop.betaxt), pop.sigma))
        b, s = math.ldexp(pop.betaxt, -e), math.ldexp(pop.sigma, -e)
        r = min(abs(b) / math.sqrt(b * b + 2.0 * s * s * (1.0 - pop.rho)), 1.0)
    value = 0.5 + math.asin(r) / math.pi
    # continuous benefit: the conditioning event has probability one
    return CfbResult(value, value, 1.0)


# ---------------------------------------------------------------------------
# small exact helpers
# ---------------------------------------------------------------------------


def gini_mean_difference(dist: MatchedBenefitDistribution) -> float:
    """E|H1 - H2| for two independent draws of the predictor level."""
    levels = tuple(zip(dist.h_values(), dist.weights()))
    return math.fsum(wi * wj * abs(hi - hj) for hi, wi in levels for hj, wj in levels)
