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

from importlib import import_module as _import_module

# each public name and the module that defines it; a module is imported
# when one of its names is first used (PEP 562), so `import cfb` loads
# neither the kernels nor numpy, and each subcommand only what it runs
_EXPORTS = {
    "errors": ("CfbError", "DegenerateCfb", "UndefinedCfb"),
    "population_model": (
        "ProbTriple", "BetaXPopulation", "LinearGaussianPopulation"),
    "cfb_engine": (
        "PairTable", "MatchedBenefitDistribution", "CfbResult", "pair_table",
        "cfb_from_pair_table", "cfb_two_group", "cfb_monte_carlo",
        "cfb_linear_gaussian", "gini_mean_difference"),
    "improper_search": (
        "ImproperSet", "SearchSummary", "GridSearchResult", "mean_benefit_increasing",
        "cross_pair_reversal", "grid_search"),
    "counterfactual_screen": (
        "ScreenSummary", "ScreenResult", "discriminant", "solve_outcome_probs",
        "screen_improper_set"),
    "matched_pairs": ("MatchingExperimentResult", "matching_experiment"),
    "cli_reports": ("RunConfig", "run", "main"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    if name in _EXPORTS:  # a submodule
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
