"""Exponential fits and goodness-of-fit checks (Figs. 1 and 2).

The paper approximates the measured per-task processing times and transfer
delays with exponential laws and feeds the fitted rates into the analytical
model.  :func:`fit_exponential` performs the maximum-likelihood fit (the
sample-mean inverse) together with a Kolmogorov–Smirnov goodness-of-fit
check so the approximation quality is quantified rather than eyeballed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ExponentialFit:
    """Result of fitting an exponential distribution to samples."""

    rate: float
    mean: float
    n_samples: int
    ks_statistic: float
    ks_pvalue: float
    log_likelihood: float

    @property
    def acceptable(self) -> bool:
        """Whether the exponential hypothesis is *not* rejected at 1 %."""
        return self.ks_pvalue > 0.01

    def pdf(self, x: Sequence[float]) -> np.ndarray:
        """Fitted density evaluated at ``x`` (the solid curves of Fig. 1/2)."""
        points = np.asarray(x, dtype=float)
        values = np.zeros_like(points)
        positive = points >= 0
        values[positive] = self.rate * np.exp(-self.rate * points[positive])
        return values

    def cdf(self, x: Sequence[float]) -> np.ndarray:
        """Fitted distribution function evaluated at ``x``."""
        points = np.asarray(x, dtype=float)
        values = np.zeros_like(points)
        positive = points >= 0
        values[positive] = 1.0 - np.exp(-self.rate * points[positive])
        return values


def fit_exponential(samples: Sequence[float]) -> ExponentialFit:
    """Maximum-likelihood exponential fit with a KS goodness-of-fit check."""
    from scipy import stats

    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("need at least one sample")
    if np.any(data < 0):
        raise ValueError("samples must be non-negative")
    mean = float(data.mean())
    if mean <= 0:
        raise ValueError("samples must have a positive mean")
    rate = 1.0 / mean
    ks_stat, ks_pvalue = stats.kstest(data, "expon", args=(0.0, mean))
    log_likelihood = float(data.size * np.log(rate) - rate * data.sum())
    return ExponentialFit(
        rate=rate,
        mean=mean,
        n_samples=int(data.size),
        ks_statistic=float(ks_stat),
        ks_pvalue=float(ks_pvalue),
        log_likelihood=log_likelihood,
    )
