"""Exact and simulated concordance-for-benefit computations.

The statistic asks how often a benefit predictor ranks a random pair of
subjects the same way their realized treatment benefits do, ties scored
one half, conditioned on the pair actually differing in benefit.  The
package computes it exactly for discrete populations, in closed form for
the linear-Gaussian family, and by seeded Monte Carlo elsewhere, plus
the searches and screens built on top: the below-chance census of the
oracle predictor, the independent-counterfactual realizability screen,
and the matched-pair factor comparison.
"""

__version__ = "0.1.0"

from .errors import (
    CfbError,
    DegenerateCfb,
    ParameterUnbounded,
    UndefinedCfb,
    ZeroMassH,
)
from .population_model import (
    BenefitPredictor,
    BetaXPopulation,
    BinaryXPopulation,
    LinearGaussianPopulation,
    LogisticRctPopulation,
    ProbTriple,
    benefit_triple_from_outcome_probs,
    best_predictor,
    expit,
    interpolate_triple,
    logit,
    outcome_prob,
)
from .cfb_engine import (
    CfbResult,
    MatchedBenefitDistribution,
    PairTable,
    bivariate_normal_cdf,
    cfb_from_pair_table,
    cfb_linear_gaussian,
    cfb_monte_carlo,
    cfb_two_group,
    empirical_cfb_oracle,
    gini_mean_difference,
    pair_table,
)
from .improper_search import (
    GridSearchResult,
    GridTriple,
    ImproperRecord,
    ImproperSet,
    SearchSummary,
    continuous_improper_eval,
    cross_pair_reversal,
    grid_search,
    mean_benefit_increasing,
)
from .counterfactual_screen import (
    RealizabilityResult,
    ScreenResult,
    ScreenSummary,
    discriminant,
    logistic_params_from_probs,
    screen_improper_set,
    solve_outcome_probs,
)
from .matched_pairs import (
    CovariateDistribution,
    MatchingExperimentResult,
    MatchingFactor,
    SamplingScheme,
    benefit_given_h,
    matching_experiment,
    predictor_h_quadratic,
    x_prime_distribution,
)
from .cli_reports import RunConfig, main, run

__all__ = [
    "__version__",
    "CfbError", "DegenerateCfb", "ParameterUnbounded", "UndefinedCfb", "ZeroMassH",
    "ProbTriple", "BinaryXPopulation", "BetaXPopulation", "LogisticRctPopulation",
    "LinearGaussianPopulation", "BenefitPredictor", "best_predictor",
    "interpolate_triple", "outcome_prob", "benefit_triple_from_outcome_probs",
    "logit", "expit",
    "PairTable", "MatchedBenefitDistribution", "CfbResult", "pair_table",
    "cfb_from_pair_table", "cfb_two_group", "cfb_monte_carlo",
    "bivariate_normal_cdf", "cfb_linear_gaussian", "gini_mean_difference",
    "empirical_cfb_oracle",
    "GridTriple", "ImproperRecord", "ImproperSet", "SearchSummary", "GridSearchResult",
    "mean_benefit_increasing", "cross_pair_reversal", "grid_search",
    "continuous_improper_eval",
    "RealizabilityResult", "ScreenSummary", "ScreenResult", "discriminant",
    "solve_outcome_probs", "screen_improper_set", "logistic_params_from_probs",
    "CovariateDistribution", "SamplingScheme", "MatchingFactor",
    "MatchingExperimentResult", "x_prime_distribution", "benefit_given_h",
    "predictor_h_quadratic", "matching_experiment",
    "RunConfig", "run", "main",
]
