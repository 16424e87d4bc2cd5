"""Matched-pair benefit distributions and the factor-comparison sweep.

The worked fixture (masses 0.25/0.25/0.5, coefficients (0, 2, 0, 2),
quadratic predictor) is frozen from tools/oracles/oracle_matched.py.  It
checks the scalar reference in tests/oracles.py, which the sweep is
then checked against cell by cell.
"""

import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfb import cfb_two_group, matched_pairs, matching_experiment, run
from cfb.matched_pairs import _logistic, _uniform_open01
from oracles import (
    LogisticRctPopulation,
    MatchingFactor,
    ZeroMassH,
    benefit_given_h,
    predictor_h_quadratic,
)

FIXTURE_POP = LogisticRctPopulation(0.25, 0.25, 0.0, 2.0, 0.0, 2.0)

# benefit triples of the fixture, by matching factor and predictor level
FIXTURE_COV_LOW = (0.13292110058925347, 0.6835494427914801, 0.18352945661926653)
FIXTURE_PRED_LOW = (0.17880846128712344, 0.59177472139574, 0.2294168173171365)
FIXTURE_HIGH = (0.000329318452608989, 0.9816905032631569, 0.017980178284234167)


# ---------------------------------------------------------------------------
# benefit by predictor level
# ---------------------------------------------------------------------------


def test_benefit_given_h_fixture_values():
    pred = predictor_h_quadratic()
    cov = benefit_given_h(FIXTURE_POP, pred, MatchingFactor.COVARIATE)
    prd = benefit_given_h(FIXTURE_POP, pred, MatchingFactor.PREDICTED_BENEFIT)

    assert cov.h_values() == (-1.0, 1.0)
    assert cov.weights() == (0.5, 0.5)
    assert cov.rows[0][2].as_tuple() == pytest.approx(FIXTURE_COV_LOW, abs=1e-15)
    assert prd.rows[0][2].as_tuple() == pytest.approx(FIXTURE_PRED_LOW, abs=1e-15)
    # the high group is a single covariate level, so the matching factor
    # cannot matter there
    assert cov.rows[1][2].as_tuple() == pytest.approx(FIXTURE_HIGH, abs=1e-15)
    assert prd.rows[1][2].as_tuple() == cov.rows[1][2].as_tuple()


def test_matching_factor_preserves_mean_benefit():
    """Matching on the predictor mixes control covariates across the
    group, which spreads the pair difference but cannot move its mean."""
    pred = predictor_h_quadratic()
    cov = benefit_given_h(FIXTURE_POP, pred, MatchingFactor.COVARIATE)
    prd = benefit_given_h(FIXTURE_POP, pred, MatchingFactor.PREDICTED_BENEFIT)
    for (_, _, t_cov), (_, _, t_prd) in zip(cov.rows, prd.rows):
        assert t_cov.mean_benefit == pytest.approx(t_prd.mean_benefit, abs=1e-15)
    # and the spread genuinely differs on the mixed group
    assert prd.rows[0][2].p_zero < cov.rows[0][2].p_zero


def test_benefit_given_h_zero_mass_group():
    pop = LogisticRctPopulation(0.0, 0.0, 0.0, 2.0, 0.0, 2.0)
    with pytest.raises(ZeroMassH):
        benefit_given_h(pop, predictor_h_quadratic(), MatchingFactor.COVARIATE)


def test_benefit_given_h_type_errors():
    pred = predictor_h_quadratic()
    with pytest.raises(TypeError):
        benefit_given_h(object(), pred, MatchingFactor.COVARIATE)
    with pytest.raises(TypeError):
        benefit_given_h(FIXTURE_POP, {0: -1.0}, MatchingFactor.COVARIATE)
    with pytest.raises(TypeError):
        benefit_given_h(FIXTURE_POP, pred, "covariate")


def test_quadratic_predictor_grouping():
    pred = predictor_h_quadratic()
    assert pred(0) == -1.0 and pred(1) == -1.0 and pred(2) == 1.0


# ---------------------------------------------------------------------------
# counter-based uniforms
# ---------------------------------------------------------------------------


def _splitmix_reference(seed, idx):
    mask = (1 << 64) - 1
    z = (seed + (idx + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z = z ^ (z >> 31)
    return ((z >> 11) + 0.5) * 2.0 ** -53


def test_uniforms_match_integer_reference():
    idx = np.array([0, 1, 2, 3, 1000, 10**7, 2**40], dtype=np.uint64)
    got = _uniform_open01(20230516, idx)
    want = [_splitmix_reference(20230516, int(k)) for k in idx]
    assert list(got) == want


def test_uniforms_are_strictly_inside_unit_interval():
    u = _uniform_open01(7, np.arange(100_000, dtype=np.uint64))
    assert float(u.min()) > 0.0
    assert float(u.max()) < 1.0
    # quick sanity on the first two moments
    assert abs(float(u.mean()) - 0.5) < 0.005
    assert abs(float(u.var()) - 1.0 / 12.0) < 0.002


def test_uniforms_depend_only_on_the_counter():
    whole = _uniform_open01(3, np.arange(64, dtype=np.uint64))
    parts = np.concatenate([
        _uniform_open01(3, np.arange(0, 40, dtype=np.uint64)),
        _uniform_open01(3, np.arange(40, 64, dtype=np.uint64)),
    ])
    assert np.array_equal(whole, parts)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def test_matching_experiment_cell_layout():
    res = matching_experiment(grid_step=0.01, seed=1)
    # i, j >= 1 with i + j <= 99 gives 98*99/2 cells
    assert len(res) == 4851
    assert res.a[0] == pytest.approx(0.01, abs=1e-15)
    assert res.b[0] == pytest.approx(0.01, abs=1e-15)
    assert res.a[-1] == pytest.approx(0.98, abs=1e-15)
    assert res.b[-1] == pytest.approx(0.01, abs=1e-15)
    third = 1.0 - res.a - res.b
    assert float(third.min()) > 0.0
    assert res.grid_step == 0.01 and res.seed == 1


def test_matching_experiment_is_reproducible():
    one = matching_experiment(grid_step=0.01, seed=20230516)
    two = matching_experiment(grid_step=0.01, seed=20230516)
    assert np.array_equal(one.abs_diff, two.abs_diff, equal_nan=True)
    assert np.array_equal(one.betaxt, two.betaxt)
    other = matching_experiment(grid_step=0.01, seed=99)
    assert not np.array_equal(one.betaxt, other.betaxt)


def test_matching_experiment_respects_coefficient_range():
    res = matching_experiment(grid_step=0.02, coeff_range=(-2.0, 3.0), seed=5)
    for arr in (res.beta0, res.betax, res.betat, res.betaxt):
        assert float(arr.min()) > -2.0
        assert float(arr.max()) < 3.0
    assert res.coeff_range == (-2.0, 3.0)


def test_matching_experiment_histogram_and_flags(tmp_path, capsys):
    res = matching_experiment(grid_step=0.01, seed=20230516)
    defined = ~res.undefined
    assert np.array_equal(np.isnan(res.abs_diff), res.undefined)
    assert np.array_equal(np.isnan(res.cfb_covariate), res.undefined)
    # the same sweep's fig2_hist.csv bins every defined cell
    hist = tmp_path / "fig2_hist.csv"
    assert run(["match-compare", "--step", "0.01", "--out", os.devnull, "--hist-out", str(hist)]) == 0
    capsys.readouterr()
    lines = hist.read_text().splitlines()[2:]
    assert lines[0] == "bin_left,bin_right,count"
    bins = [line.split(",") for line in lines[1:]]
    assert sum(int(n) for _, _, n in bins) == int(defined.sum())
    assert len(bins) == 50
    assert float(bins[0][0]) == 0.0 and float(bins[-1][1]) == 0.25


def test_matching_experiment_matches_scalar_route():
    """The sweep computes both statistics with collapsed vectorized
    algebra; spot cells must agree with the literal per-population
    route through benefit_given_h and the two-level closed form."""
    res = matching_experiment(grid_step=0.01, seed=20230516)
    pred = predictor_h_quadratic()
    idx = np.linspace(0, len(res) - 1, 40).astype(int)
    for k in idx:
        if res.undefined[k]:
            continue
        pop = LogisticRctPopulation(
            float(res.a[k]), float(res.b[k]), float(res.beta0[k]),
            float(res.betax[k]), float(res.betat[k]), float(res.betaxt[k]),
        )
        for factor, column in (
            (MatchingFactor.COVARIATE, res.cfb_covariate),
            (MatchingFactor.PREDICTED_BENEFIT, res.cfb_prediction),
        ):
            dist = benefit_given_h(pop, pred, factor)
            (h_lo, w_lo, t_lo), (h_hi, w_hi, t_hi) = dist.rows
            want = cfb_two_group(w_hi, t_lo, t_hi).value
            assert float(column[k]) == pytest.approx(want, abs=1e-10)
        assert float(res.abs_diff[k]) == pytest.approx(
            abs(float(res.cfb_covariate[k]) - float(res.cfb_prediction[k])), abs=1e-15
        )


def test_matching_experiment_validation():
    with pytest.raises(ValueError, match="grid_step"):
        matching_experiment(grid_step=0.3)
    with pytest.raises(ValueError, match="grid_step"):
        matching_experiment(grid_step=0.6)
    with pytest.raises(ValueError, match="grid_step must be finite and positive"):
        matching_experiment(grid_step=0.0)
    with pytest.raises(ValueError, match="increasing"):
        matching_experiment(grid_step=0.1, coeff_range=(2.0, -2.0))
    # what match-compare's flags check too: a seed below 2**64, which the
    # counter does not reduce, and a linear predictor that stays finite
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            matching_experiment(grid_step=0.25, seed=seed)
    for bounds in ((-1e308, 1e308), (0.0, 3e307), (-3e307, 0.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="linear predictor overflows"):
                matching_experiment(grid_step=0.25, coeff_range=bounds)
    top = matching_experiment(grid_step=0.25, seed=2 ** 64 - 1)
    assert top.seed == 2 ** 64 - 1
    assert not np.array_equal(top.beta0, matching_experiment(grid_step=0.25, seed=0).beta0)
    edge = 2.996155224770526e+307  # the largest bound whose 6 * bound is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = matching_experiment(grid_step=0.25, coeff_range=(-edge, edge))
    assert len(wide) == 3 and wide.coeff_range == (-edge, edge)



@pytest.mark.parametrize("step", [1e-300, 1 / 4474])
def test_matching_experiment_caps_its_grid(step):
    """A step past 10,000,000 cells is refused by name, before numpy allocates the grid
    (1e-300 would otherwise fail inside numpy with "Maximum allowed size exceeded")."""
    with pytest.raises(ValueError, match="grid_step must give at most 10,000,000 grid cells"):
        matching_experiment(grid_step=step)

def test_logistic_is_scipy_expit_bit_for_bit():
    """The sweep's logistic must equal scipy.special.expit in every bit: on the
    default sweep's six linear predictors, on uniform z over [-750, 750], in the
    band (-709.79, -709) where glibc's cexp rounds twice, and at the edges."""
    from scipy.special import expit

    res = matching_experiment()
    zs = [res.beta0 + res.betax * x + res.betat * t + res.betaxt * (t * x)
          for t in (0, 1) for x in (0, 1, 2)]
    rng = np.random.default_rng(20230516)
    zs.append(rng.uniform(-750.0, 750.0, 2_000_000))
    zs.append(rng.uniform(-709.79, -709.0, 100_000))
    zs.append(np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf]))
    for z in zs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _logistic(z)
        assert not caught
        assert got.tobytes() == expit(z).tobytes()


@pytest.mark.parametrize("block", [1, 7, 1177])
def test_sweep_is_independent_of_block_size(monkeypatch, block):
    # 1176 cells at step 0.02; coefficients up to 400 put z below -709 and past exp's overflow
    want = matching_experiment(grid_step=0.02, coeff_range=(-400.0, 400.0), seed=3)
    assert len(want) == 1176
    monkeypatch.setattr(matched_pairs, "_CELLS_PER_BLOCK", block)
    got = matching_experiment(grid_step=0.02, coeff_range=(-400.0, 400.0), seed=3)
    for name in ("a", "b", "beta0", "betax", "betat", "betaxt",
                 "cfb_covariate", "cfb_prediction", "abs_diff", "undefined"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


# ---------------------------------------------------------------------------
# the two matching factors differ by one shift of the low group's coupling
# ---------------------------------------------------------------------------
#
# With s0, s1 the shares of levels 0 and 1 in the low group and y_tx arm
# t's response at level x, prediction matching pairs the group's arms
# independently, covariate matching pairs them within each level.  The
# covariate-matched triple is the prediction-matched one with its minus
# and plus masses lowered by delta = s0 s1 (y00 - y01)(y10 - y11), the
# covariance of the two arms' responses across the levels, and its zero
# mass raised by 2 delta; the high group's triple is the same under both.


def independent(p0, p1):
    """The benefit triple (minus, zero, plus) of arms that respond independently, with
    probabilities p0 untreated and p1 treated."""
    return p0 * (1 - p1), p0 * p1 + (1 - p0) * (1 - p1), p1 * (1 - p0)


def shifted_by_delta(s0, y00, y01, y10, y11):
    """(the prediction-matched low triple shifted by delta, delta)."""
    s1 = 1 - s0
    minus, zero, plus = independent(s0 * y00 + s1 * y01, s0 * y10 + s1 * y11)
    delta = s0 * s1 * (y00 - y01) * (y10 - y11)
    return (minus - delta, zero + 2 * delta, plus - delta), delta


UNIT = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6)


@settings(max_examples=300, deadline=None)
@given(s0=UNIT, y=st.tuples(*[UNIT] * 4))
def test_covariate_matching_shifts_the_prediction_coupling_exactly(s0, y):
    """In exact arithmetic: the mixture of the two levels' independent triples is the
    independent triple of the mixed responses, shifted by delta."""
    y00, y01, y10, y11 = y
    covariate = tuple(s0 * u + (1 - s0) * v for u, v in zip(independent(y00, y10), independent(y01, y11)))
    assert covariate == shifted_by_delta(s0, y00, y01, y10, y11)[0]
    assert all(isinstance(v, Fraction) for v in covariate)


def test_the_shift_gives_the_covariate_statistic_on_the_default_grid():
    """Four blocks spread over the default sweep (step 0.001, seed 20230516;
    56,133 cells): cfb_covariate recomputed from the prediction-matched masses
    shifted by delta agrees with the sweep's to 1e-12 (1.5e-13 at worst when
    this was written, float rounding of two orders of summation), is defined
    where the sweep's is, and delta is positive in most cells."""
    grid = matched_pairs._grid(0.001, (-5.0, 5.0), 20230516)
    block = matched_pairs._CELLS_PER_BLOCK
    positive = cells = 0
    for k in (0, 10, 20, 30):
        for _, _, _, (a, b, *coeffs, cfb_x, _, _, undefined) in matched_pairs._sweep(grid, [k * block]):
            beta0, betax, betat, betaxt = coeffs
            y = {(t, x): _logistic(beta0 + betax * x + betat * t + betaxt * (t * x))
                 for t in (0, 1) for x in (0, 1, 2)}
            low, delta = shifted_by_delta(a / (a + b), y[0, 0], y[0, 1], y[1, 0], y[1, 1])
            got, got_undefined = matched_pairs._two_group_cfb_arrays(1 - a - b, *low,
                                                                     *independent(y[0, 2], y[1, 2]))
            assert not got_undefined[~undefined].any()
            assert np.abs(got - cfb_x)[~undefined].max() <= 1e-12
            positive += int(np.count_nonzero(delta > 0))
            cells += len(a)
    assert cells == 56_133 and 0.7 < positive / cells < 0.8
