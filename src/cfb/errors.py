"""Exception types shared across the package."""

__all__ = ["CfbError", "UndefinedCfb", "DegenerateCfb"]


class CfbError(Exception):
    """Base class for errors raised by this package."""


class UndefinedCfb(CfbError):
    """The conditioning event has probability zero, so the statistic
    does not exist (no pair of draws can disagree in realized benefit)."""


class DegenerateCfb(CfbError):
    """The predictor is constant over the population, so every pair is
    tied on the predicted scale and the statistic carries no ranking
    information."""
