"""Matched-pair populations and the factor-comparison experiment.

Pairs are formed by matching one treated and one control subject on a
chosen factor: either the covariate itself or the predicted benefit.
Matching on the covariate makes the pair difference at X=x exactly the
benefit triple at x; matching on the predicted benefit only forces the
two subjects into the same predictor level, so their covariates vary
independently inside that level and the pair difference picks up extra
spread.  matching_experiment sweeps a dense grid of three-level
populations with random logistic coefficients and compares the
concordance statistic under the two factors cell by cell.  Each
cell's statistic is the two-level closed form of cfb_two_group, on the
same masses (cfb_engine._two_group_masses) evaluated over whole arrays.

The experiment needs to be bit-reproducible across platforms and numpy
versions, so its coefficient draws come from a self-contained counter
based generator (the splitmix64 finalizer) rather than numpy's stateful
generators: cell k consumes draws 4k..4k+3 no matter how the sweep is
chunked, and the sweep runs in blocks of _CELLS_PER_BLOCK cells
(_sweep).  matching_experiment sweeps the whole grid into columns;
match-compare sweeps contiguous runs of blocks in worker processes and
formats each block's rows as it goes, through the same _sweep.  Its
logistic is the C library's exp reached through numpy's complex exp
(cexp), bit for bit as scipy.special.expit, with math.exp where z < -709
(see _logistic), so no SciPy import is needed.

numpy is imported when the sweep runs, so the command line checks its
flags with the sweep's own limits (_grid_cells, _seed_in_range,
_predictor_finite, _grid) without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .cfb_engine import _two_group_masses

__all__ = [
    "MatchingExperimentResult",
    "matching_experiment",
    "DIFF_HIST_RANGE",
    "DIFF_HIST_BINS",
]

DIFF_HIST_RANGE = (0.0, 0.25)
DIFF_HIST_BINS = 50


# ---------------------------------------------------------------------------
# counter-based uniforms for the experiment sweep
# ---------------------------------------------------------------------------

_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _uniform_open01(seed: int, draw_index):
    """Uniform draws on the open interval (0, 1), one per counter value.

    splitmix64 finalizer over seed + (index+1) * golden, for a seed in
    [0, 2**64), top 53 bits shifted into the mantissa with a half-ulp
    offset so 0 and 1 are both excluded.
    """
    import numpy as np

    idx = np.asarray(draw_index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + (idx + np.uint64(1)) * np.uint64(_GOLD)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
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
    import numpy as np

    cross_conc, cross_disc, a_mass = _two_group_masses(c, *triples)
    defined = a_mass > 0.0
    dev = np.full(a_mass.shape, np.nan)
    np.divide(c * (1.0 - c) * (cross_conc - cross_disc), 2.0 * a_mass, out=dev, where=defined)
    return np.where(defined, 0.5 + dev, np.nan), ~defined


def _logistic(z):
    """1 / (1 + exp(-z)) over an array, bit for bit as scipy.special.expit.

    expit evaluates exactly that formula with the C library's exp.  numpy's
    float exp is its own SIMD routine and differs from it in the last bit
    often enough to move 10-digit rows of the reported CSV; numpy's complex
    exp calls the C library's cexp, whose real part at zero imaginary part
    is its exp.  Where exp(-z) exceeds e**709 glibc's cexp scales and rounds
    twice, so those z < -709 take math.exp instead (inf where it overflows,
    giving 0.0 as expit does).
    """
    import numpy as np

    with np.errstate(over="ignore"):
        e = np.exp((-z).astype(np.complex128)).real
    for k in np.flatnonzero(z < -709.0):
        try:
            e[k] = math.exp(-z[k])
        except OverflowError:
            e[k] = math.inf
    return 1.0 / (1.0 + e)


# cells per block of the sweep: the block's two dozen float64 and complex
# temporaries stay in cache, where a whole-grid pass streams each through memory
_CELLS_PER_BLOCK = 16_384
# the most cells a grid may have, checked before anything is allocated:
# 20x the default grid's 498,501
_MAX_CELLS = 10_000_000


def _grid_cells(grid_step):
    """Cells of the grid at grid_step, (n - 1)(n - 2) / 2 for n = round(1 / grid_step),
    or 0 where grid_step is no positive number with a finite 1 / grid_step."""
    if not (grid_step > 0.0 and math.isfinite(1.0 / grid_step)):
        return 0
    n = round(1.0 / grid_step)
    return (n - 1) * (n - 2) // 2


def _seed_in_range(seed):
    """Whether seed lies in [0, 2**64), the range of the counter draws."""
    return 0 <= seed < 1 << 64


def _predictor_finite(bound):
    """Whether each cell's logistic argument beta0 + betax*x + betat*t + betaxt*x*t,
    with x <= 2, t <= 1 and every coefficient within |bound|, stays finite:
    whether 6 * |bound| does."""
    return math.isfinite(6.0 * bound)


def _sweep_block(a, b, beta0, betax, betat, betaxt):
    """Statistic under each matching factor for one block of cells.

    Returns (cfb_covariate, cfb_prediction, undefined) for the cells whose
    masses and coefficients are given.
    """
    c_high = (1.0 - a) - b

    # response probabilities per arm and level
    y = {
        (t, x): _logistic(beta0 + betax * x + betat * t + betaxt * (t * x))
        for t in (0, 1) for x in (0, 1, 2)
    }

    w_low = a + b
    s0 = a / w_low
    s1 = b / w_low

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

    hm = y[0, 2] * (1.0 - y[1, 2])
    hz = y[0, 2] * y[1, 2] + (1.0 - y[0, 2]) * (1.0 - y[1, 2])
    hp = y[1, 2] * (1.0 - y[0, 2])

    cfb_x, undef_x = _two_group_cfb_arrays(c_high, lm_x, lz_x, lp_x, hm, hz, hp)
    cfb_h, undef_h = _two_group_cfb_arrays(c_high, lm_h, lz_h, lp_h, hm, hz, hp)
    return cfb_x, cfb_h, undef_x | undef_h


class _Grid(NamedTuple):
    """A checked sweep: the grid's step and 1 / step, the coefficient bounds and the seed."""

    step: float
    inv: int
    lo: float
    hi: float
    seed: int

    @property
    def cells(self):
        return (self.inv - 1) * (self.inv - 2) // 2


def _grid(grid_step, coeff_range, seed):
    """The _Grid of matching_experiment's arguments, or ValueError naming the one at
    fault (see matching_experiment).  Needs no numpy, so the command line checks its
    flags with it before it starts any work."""
    if not (math.isfinite(grid_step) and grid_step > 0.0):
        raise ValueError(f"grid_step must be finite and positive, got {grid_step!r}")
    if not math.isfinite(1.0 / grid_step):
        raise ValueError(f"grid_step is too small: 1 / grid_step overflows, got {grid_step!r}")
    inv = round(1.0 / grid_step)
    if abs(grid_step * inv - 1.0) > 1e-9 or inv < 3:
        raise ValueError("grid_step must divide 1 with at least 3 subdivisions")
    if _grid_cells(grid_step) > _MAX_CELLS:
        raise ValueError(f"grid_step must give at most {_MAX_CELLS:,} grid cells, got {grid_step!r}")
    lo, hi = float(coeff_range[0]), float(coeff_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"coeff_range must be finite, got {coeff_range!r}")
    if not lo < hi:
        raise ValueError("coeff_range must be an increasing pair")
    if not (_predictor_finite(lo) and _predictor_finite(hi)):
        raise ValueError(f"coeff_range's linear predictor overflows: 6 * max(|lo|, |hi|) "
                         f"must be finite, got {coeff_range!r}")
    if not _seed_in_range(seed):
        raise ValueError(f"seed must lie in [0, 2**64), got {seed!r}")
    return _Grid(float(grid_step), inv, lo, hi, int(seed))


def _sweep(grid, cells):
    """The sweep of the cells in range cells, one block of _CELLS_PER_BLOCK at a time.

    cells must start at a multiple of _CELLS_PER_BLOCK, so its blocks are
    the whole-grid sweep's.  Yields, for each block, its first cell, the
    int64 grid indices i and j of its cells (a = i * step, b = j * step),
    and its columns in the order of the CSV that match-compare writes: a,
    b, the four coefficients, the statistic matched on the covariate and
    on the predicted benefit, their absolute difference and the undefined
    flags.  matching_experiment runs it over the whole grid; match-compare
    runs each worker's share of the blocks through it.
    """
    import numpy as np

    # the cell that ends grid row r (i = r + 1, of inv - 1 - i cells) is ends[r] - 1
    ends = np.cumsum(np.arange(grid.inv - 2, 0, -1, dtype=np.int64))
    for start in range(cells.start, cells.stop, _CELLS_PER_BLOCK):
        k = np.arange(start, min(start + _CELLS_PER_BLOCK, cells.stop), dtype=np.int64)
        row = np.searchsorted(ends, k, "right")
        i = row + 1
        j = k - (ends[row] - (grid.inv - 1 - i)) + 1
        a = i.astype(np.float64) * grid.step
        b = j.astype(np.float64) * grid.step
        base = k.astype(np.uint64) * np.uint64(4)
        coeffs = [grid.lo + (grid.hi - grid.lo) * _uniform_open01(grid.seed, base + np.uint64(m))
                  for m in range(4)]
        cfb_x, cfb_h, undefined = _sweep_block(a, b, *coeffs)
        yield start, i, j, (a, b, *coeffs, cfb_x, cfb_h, np.abs(cfb_x - cfb_h), undefined)


def _diff_histogram(abs_diff, undefined):
    """(counts, edges) of abs_diff over the defined cells, on DIFF_HIST_RANGE in DIFF_HIST_BINS bins."""
    import numpy as np

    return np.histogram(abs_diff[~undefined], bins=DIFF_HIST_BINS, range=DIFF_HIST_RANGE)


def matching_experiment(grid_step: float = 0.001, coeff_range=(-5.0, 5.0), seed: int = 20230516):
    """Sweep covariate-mass cells with random logistic coefficients.

    The mass grid is a = i*grid_step, b = j*grid_step over all integer
    i, j >= 1 with i + j <= 1/grid_step - 1, so every level keeps
    positive mass.  Each cell draws beta0, betax, betat, betaxt
    uniformly from coeff_range using the counter scheme described in
    the module docstring, builds the three-level population, groups its
    levels by a predictor that gives levels 0 and 1 one score and level
    2 another, and evaluates the statistic matched on the covariate and
    matched on the predicted benefit.

    Raises ValueError for a grid_step giving more than _MAX_CELLS cells,
    for a seed outside [0, 2**64), the counter's range, and for
    coefficient bounds whose linear predictor can overflow: each
    cell's beta0 + betax*x + betat*t + betaxt*x*t, with x <= 2 and t <= 1,
    must stay finite, so 6 * max(|lo|, |hi|) must be.
    """
    import numpy as np

    grid = _grid(grid_step, coeff_range, seed)
    n = grid.cells
    columns = [np.empty(n) for _ in range(9)] + [np.empty(n, dtype=bool)]
    for start, _, _, block in _sweep(grid, range(n)):
        for col, values in zip(columns, block):
            col[start:start + len(values)] = values
    a, b, beta0, betax, betat, betaxt, cfb_x, cfb_h, abs_diff, undefined = columns

    counts, edges = _diff_histogram(abs_diff, undefined)
    return MatchingExperimentResult(
        a=a, b=b, beta0=beta0, betax=betax, betat=betat, betaxt=betaxt,
        cfb_covariate=cfb_x, cfb_prediction=cfb_h,
        abs_diff=abs_diff, undefined=undefined,
        hist_edges=tuple(float(e) for e in edges),
        hist_counts=tuple(int(v) for v in counts),
        grid_step=grid.step, seed=grid.seed,
        coeff_range=(grid.lo, grid.hi),
    )
