"""Population families, benefit triples and the logistic link."""

import math

import pytest

from cfb import (
    BenefitPredictor,
    BetaXPopulation,
    BinaryXPopulation,
    LinearGaussianPopulation,
    LogisticRctPopulation,
    ParameterUnbounded,
    ProbTriple,
    benefit_triple_from_outcome_probs,
    best_predictor,
    expit,
    logit,
    outcome_prob,
)


# ---------------------------------------------------------------------------
# ProbTriple
# ---------------------------------------------------------------------------


def test_prob_triple_basics():
    t = ProbTriple(0.25, 0.01, 0.74)
    assert t.as_tuple() == (0.25, 0.01, 0.74)
    assert t.mean_benefit == 0.74 - 0.25


def test_prob_triple_rejects_bad_sum():
    with pytest.raises(ValueError, match="sums to"):
        ProbTriple(0.5, 0.5, 0.1)


def test_prob_triple_rejects_out_of_range_component():
    with pytest.raises(ValueError):
        ProbTriple(-0.2, 0.5, 0.7)
    with pytest.raises(ValueError):
        ProbTriple(1.2, -0.1, -0.1)


def test_prob_triple_tolerates_rounding_noise():
    # components produced by float arithmetic can undershoot zero by an ulp
    t = ProbTriple(-1e-13, 0.5 + 1e-13, 0.5)
    assert t.p_minus == pytest.approx(0.0, abs=1e-12)


def test_prob_triple_coerces_to_float():
    t = ProbTriple(0, 1, 0)
    assert isinstance(t.p_minus, float) and isinstance(t.p_zero, float)


# ---------------------------------------------------------------------------
# logistic link
# ---------------------------------------------------------------------------


def test_expit_known_values():
    # frozen against 1/(1+exp(-z)) evaluated directly
    assert expit(2.0) == pytest.approx(0.8807970779778823, abs=1e-15)
    assert expit(4.0) == pytest.approx(0.9820137900379085, abs=1e-15)
    assert expit(0.0) == 0.5


def test_expit_matches_direct_formula():
    for z in (-30.0, -3.5, -1.0, 0.3, 2.7, 30.0):
        assert expit(z) == pytest.approx(1.0 / (1.0 + math.exp(-z)), rel=1e-15)


def test_expit_extreme_arguments_saturate():
    assert expit(800.0) == 1.0
    assert expit(-800.0) == 0.0


def test_logit_round_trip():
    for y in (1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9):
        assert expit(logit(y)) == pytest.approx(y, rel=1e-9)


def test_logit_boundaries_raise():
    with pytest.raises(ParameterUnbounded):
        logit(0.0)
    with pytest.raises(ParameterUnbounded):
        logit(1.0)
    with pytest.raises(ValueError):
        logit(-0.1)
    with pytest.raises(ValueError):
        logit(1.1)


# ---------------------------------------------------------------------------
# population families
# ---------------------------------------------------------------------------


def test_binary_x_population_validates_c():
    t = ProbTriple(0.2, 0.3, 0.5)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            BinaryXPopulation(bad, t, t)
    assert BinaryXPopulation(0.5, t, t).c == 0.5


def test_beta_x_population_validates_shapes():
    t = ProbTriple(0.2, 0.3, 0.5)
    with pytest.raises(ValueError):
        BetaXPopulation(0.0, 1.0, t, t)
    with pytest.raises(ValueError):
        BetaXPopulation(1.0, -2.0, t, t)


@pytest.mark.parametrize("field", ["alpha", "beta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_beta_x_population_rejects_non_finite_shapes(field, value):
    t = ProbTriple(0.2, 0.3, 0.5)
    shapes = {"alpha": 1.0, "beta": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        BetaXPopulation(shapes["alpha"], shapes["beta"], t, t)


def test_logistic_rct_population_masses():
    pop = LogisticRctPopulation(0.25, 0.25, 0.0, 2.0, 0.0, 2.0)
    masses = pop.covariate_masses()
    assert masses == (0.25, 0.25, 0.5)
    assert math.fsum(masses) == 1.0


def test_logistic_rct_population_rejects_excess_mass():
    with pytest.raises(ValueError):
        LogisticRctPopulation(0.7, 0.5, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        LogisticRctPopulation(-0.1, 0.5, 0.0, 0.0, 0.0, 0.0)


def test_logistic_rct_population_rejects_saturated_probabilities():
    """Coefficients large enough to underflow some response probability
    to exactly 0 or 1 must be rejected at construction, otherwise the
    benefit triples silently lose a root later."""
    with pytest.raises(ValueError, match="strictly inside"):
        LogisticRctPopulation(0.25, 0.25, -800.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="strictly inside"):
        LogisticRctPopulation(0.25, 0.25, 0.0, 400.0, 0.0, 0.0)


def test_linear_gaussian_population_validation():
    with pytest.raises(ValueError):
        LinearGaussianPopulation(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        LinearGaussianPopulation(0.0, 0.0, 0.0, 1.0, 1.0, 1.5)
    pop = LinearGaussianPopulation(0.0, 0.0, 0.0, 1.0, 1.0, -1.0)
    assert pop.rho == -1.0


@pytest.mark.parametrize("field", ["beta0", "betax", "betat", "betaxt", "sigma", "rho"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_linear_gaussian_population_rejects_non_finite_fields(field, value):
    fields = dict(beta0=0.0, betax=0.0, betat=0.0, betaxt=1.0, sigma=1.0, rho=0.0)
    fields[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        LinearGaussianPopulation(**fields)


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------


def test_benefit_predictor_lookup_and_levels():
    h = BenefitPredictor({2: 1.0, 0: -1.0, 1: -1.0})
    assert h(0) == -1.0 and h(2) == 1.0
    assert h.levels() == (0, 1, 2)
    with pytest.raises(ValueError, match="no score"):
        h(7)


def test_benefit_predictor_rejects_empty_table():
    with pytest.raises(ValueError):
        BenefitPredictor({})


@pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf, "1.0", None, 1j])
def test_benefit_predictor_rejects_non_finite_scores(score):
    with pytest.raises(ValueError, match="level 1"):
        BenefitPredictor({0: 0.5, 1: score})


def test_benefit_predictor_table_is_read_only():
    h = BenefitPredictor({0: 0.5})
    with pytest.raises(TypeError):
        h.table[0] = 1.0


def test_best_predictor_scores_are_mean_benefits():
    pop = BinaryXPopulation(0.5, ProbTriple(0.25, 0.01, 0.74), ProbTriple(0.14, 0.18, 0.68))
    h = best_predictor(pop)
    assert h(0) == pop.triple0.mean_benefit
    assert h(1) == pop.triple1.mean_benefit


# ---------------------------------------------------------------------------
# the logistic response surface
# ---------------------------------------------------------------------------


def test_outcome_prob_values_and_domain():
    pop = LogisticRctPopulation(0.25, 0.25, 0.0, 2.0, 0.0, 2.0)
    # z = 2 at (t=0, x=1) and z = 4 at (t=1, x=1)
    assert outcome_prob(pop, 0, 1) == pytest.approx(expit(2.0), abs=0)
    assert outcome_prob(pop, 1, 1) == pytest.approx(expit(4.0), abs=0)
    with pytest.raises(ValueError):
        outcome_prob(pop, 2, 0)
    with pytest.raises(ValueError):
        outcome_prob(pop, 0, 3)


# ---------------------------------------------------------------------------
# benefit triple from potential responses
# ---------------------------------------------------------------------------


def _triple_by_enumeration(y0, y1):
    # direct sum over the four joint response outcomes
    probs = {-1: 0.0, 0: 0.0, 1: 0.0}
    for r0, w0 in ((1, y0), (0, 1.0 - y0)):
        for r1, w1 in ((1, y1), (0, 1.0 - y1)):
            probs[r1 - r0] += w0 * w1
    return (probs[-1], probs[0], probs[1])


def test_benefit_triple_matches_enumeration():
    for y0, y1 in ((0.9, 0.1), (0.1, 0.9), (0.5, 0.5), (0.0, 1.0), (0.37, 0.62)):
        got = benefit_triple_from_outcome_probs(y0, y1)
        want = _triple_by_enumeration(y0, y1)
        assert got.as_tuple() == pytest.approx(want, abs=1e-15)


def test_benefit_triple_mean_is_risk_difference():
    t = benefit_triple_from_outcome_probs(0.3, 0.8)
    assert t.mean_benefit == pytest.approx(0.5, abs=1e-15)


def test_benefit_triple_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        benefit_triple_from_outcome_probs(-0.1, 0.5)
    with pytest.raises(ValueError):
        benefit_triple_from_outcome_probs(0.5, 1.0001)
