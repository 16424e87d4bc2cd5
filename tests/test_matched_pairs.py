"""Matched-pair benefit distributions and the factor-comparison sweep.

The worked fixture (masses 0.25/0.25/0.5, coefficients (0, 2, 0, 2),
quadratic predictor) is frozen from tools/oracles/oracle_matched.py.
"""

import numpy as np
import pytest

from cfb import (
    BenefitPredictor,
    LogisticRctPopulation,
    MatchingFactor,
    ZeroMassH,
    benefit_given_h,
    cfb_two_group,
    matching_experiment,
    predictor_h_quadratic,
)
from cfb.matched_pairs import _uniform_open01

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
    assert isinstance(pred, BenefitPredictor)


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


def test_matching_experiment_histogram_and_flags():
    res = matching_experiment(grid_step=0.01, seed=20230516)
    defined = ~res.undefined
    assert np.array_equal(np.isnan(res.abs_diff), res.undefined)
    assert np.array_equal(np.isnan(res.cfb_covariate), res.undefined)
    assert sum(res.hist_counts) == int(defined.sum())
    assert len(res.hist_edges) == 51
    assert res.hist_edges[0] == 0.0 and res.hist_edges[-1] == 0.25


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
