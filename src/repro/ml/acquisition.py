"""Acquisition functions for Bayesian optimisation.

Smartpick evaluates three candidates -- Expected Improvement (EI),
Probability of Improvement (PI) and Upper Confidence Bound (UCB) -- and
adopts PI "because it is similar to EI and simpler, as well as one of the
most widely used acquisition functions for optimizers" (Section 3.1).  All
three are implemented so the ablation bench can compare them.

Conventions: acquisitions are *maximised*, and the underlying objective is
also a maximisation (Smartpick maximises ``-(RF_t + delta)``, Eq. 2, i.e.
minimises predicted completion time).  ``best_value`` is therefore the
largest objective value observed so far.

The Gaussian cdf is :func:`scipy.special.ndtr` -- the function
``scipy.stats.norm.cdf`` evaluates underneath, without the distribution
wrapper's per-call argument handling (the BO loop scores candidates on
every probe).  It is imported on first use, as EI's pdf from
:mod:`scipy.stats` is: Smartpick's own PI searches run whole in the
native ``bo_search`` with a bitwise port of ``ndtr``
(:mod:`repro.ml.forest_native`), so they load neither.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "AcquisitionFunction",
    "ProbabilityOfImprovement",
    "ExpectedImprovement",
    "UpperConfidenceBound",
    "make_acquisition",
]


class AcquisitionFunction(abc.ABC):
    """Scores candidate points given the surrogate posterior."""

    @abc.abstractmethod
    def __call__(
        self, mean: np.ndarray, std: np.ndarray, best_value: float
    ) -> np.ndarray:
        """Return per-candidate scores (higher = more worth probing).

        Parameters
        ----------
        mean, std:
            Surrogate posterior mean and standard deviation at the candidates.
        best_value:
            Best (largest) objective value observed so far.
        """


class ProbabilityOfImprovement(AcquisitionFunction):
    """P(f(x) > best + xi) under the Gaussian posterior.

    ``xi`` trades exploration for exploitation: larger values demand a bigger
    improvement before a candidate scores.
    """

    def __init__(self, xi: float = 0.01) -> None:
        if xi < 0:
            raise ValueError("xi must be non-negative")
        self.xi = float(xi)

    def __call__(
        self, mean: np.ndarray, std: np.ndarray, best_value: float
    ) -> np.ndarray:
        from scipy.special import ndtr

        mean = np.asarray(mean, dtype=np.float64)
        std = np.maximum(np.asarray(std, dtype=np.float64), 1e-12)
        z = (mean - best_value - self.xi) / std
        return ndtr(z)

    def __repr__(self) -> str:
        return f"ProbabilityOfImprovement(xi={self.xi})"


class ExpectedImprovement(AcquisitionFunction):
    """E[max(f(x) - best - xi, 0)] under the Gaussian posterior."""

    def __init__(self, xi: float = 0.01) -> None:
        if xi < 0:
            raise ValueError("xi must be non-negative")
        self.xi = float(xi)

    def __call__(
        self, mean: np.ndarray, std: np.ndarray, best_value: float
    ) -> np.ndarray:
        from scipy.special import ndtr
        from scipy.stats import norm

        mean = np.asarray(mean, dtype=np.float64)
        std = np.maximum(np.asarray(std, dtype=np.float64), 1e-12)
        improvement = mean - best_value - self.xi
        z = improvement / std
        return improvement * ndtr(z) + std * norm.pdf(z)

    def __repr__(self) -> str:
        return f"ExpectedImprovement(xi={self.xi})"


class UpperConfidenceBound(AcquisitionFunction):
    """mean + kappa * std; ignores ``best_value`` entirely."""

    def __init__(self, kappa: float = 2.0) -> None:
        if kappa < 0:
            raise ValueError("kappa must be non-negative")
        self.kappa = float(kappa)

    def __call__(
        self, mean: np.ndarray, std: np.ndarray, best_value: float
    ) -> np.ndarray:
        del best_value
        return np.asarray(mean, dtype=np.float64) + self.kappa * np.asarray(
            std, dtype=np.float64
        )

    def __repr__(self) -> str:
        return f"UpperConfidenceBound(kappa={self.kappa})"


_REGISTRY = {
    "pi": ProbabilityOfImprovement,
    "ei": ExpectedImprovement,
    "ucb": UpperConfidenceBound,
}


def make_acquisition(name: str, **kwargs: float) -> AcquisitionFunction:
    """Build an acquisition function from its short name (``pi``/``ei``/``ucb``)."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown acquisition {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)
