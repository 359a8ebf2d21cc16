"""Summary statistics for experiment reporting.

"All experimental results are an average of 10 runs, plotted with 90 %
confidence intervals." (Section 6.1)  These helpers compute exactly that.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["MeanCI", "confidence_interval", "mean_and_ci"]


@dataclasses.dataclass(frozen=True)
class MeanCI:
    """A mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.2f} +- {self.half_width:.2f}"


def confidence_interval(
    samples: np.ndarray, confidence: float = 0.90
) -> tuple[float, float]:
    """Student-t confidence interval for the mean of ``samples``."""
    summary = mean_and_ci(samples, confidence)
    return summary.low, summary.high


def mean_and_ci(samples: np.ndarray, confidence: float = 0.90) -> MeanCI:
    """Mean and t-based CI half-width (half-width 0 for n < 2)."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be strictly between 0 and 1")
    values = np.asarray(samples, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("need at least one sample")
    mean = float(values.mean())
    if values.size < 2:
        return MeanCI(mean=mean, half_width=0.0, confidence=confidence, n=1)
    # Imported here: scipy.stats is large and only reporting needs it.
    from scipy import stats as scipy_stats

    sem = float(values.std(ddof=1) / np.sqrt(values.size))
    t_value = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, values.size - 1))
    return MeanCI(
        mean=mean,
        half_width=t_value * sem,
        confidence=confidence,
        n=int(values.size),
    )
