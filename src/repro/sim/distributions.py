"""Random-variate distributions used by the simulation model.

The paper models per-task service times, node failure times, node recovery
times and load-transfer delays as exponential random variables (Section 2),
and validates the exponential approximation against measurements (Figs. 1
and 2).  This module provides the exponential law plus a few alternatives
(deterministic, Erlang, hyper-exponential, uniform, empirical) for
sensitivity studies.

All distributions share a tiny protocol: ``sample(rng)`` draws one variate,
``sample_many(rng, n)`` draws a vector, and ``mean`` / ``rate`` expose the
first moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class Distribution:
    """Base class for non-negative random-variate distributions."""

    def sample(self, rng: np.random.Generator) -> float:
        """Draw a single variate."""
        raise NotImplementedError

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` variates as a NumPy array (default: loop over sample)."""
        return np.array([self.sample(rng) for _ in range(n)], dtype=float)

    @property
    def mean(self) -> float:
        """First moment of the distribution."""
        raise NotImplementedError

    @property
    def rate(self) -> float:
        """Inverse of the mean (``inf`` for a zero-mean distribution)."""
        mean = self.mean
        if mean == 0.0:
            return math.inf
        return 1.0 / mean


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential distribution parameterised by its *rate* (events/unit time).

    This is the law assumed throughout the paper's analysis for service,
    failure, recovery and transfer-delay times.
    """

    rate_: float

    def __post_init__(self) -> None:
        if self.rate_ <= 0 or not math.isfinite(self.rate_):
            raise ValueError(f"rate must be positive and finite, got {self.rate_!r}")

    @classmethod
    def from_mean(cls, mean: float) -> "Exponential":
        """Build the distribution from its mean instead of its rate."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        return cls(1.0 / mean)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate_))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` variates, the same numbers as ``n`` calls of :meth:`sample`."""
        return rng.exponential(1.0 / self.rate_, size=n)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate_

    @property
    def rate(self) -> float:
        return self.rate_


@dataclass(frozen=True)
class Deterministic(Distribution):
    """Degenerate distribution that always returns ``value``."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"value must be non-negative, got {self.value!r}")

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.value)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, float(self.value))

    @property
    def mean(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class Erlang(Distribution):
    """Erlang distribution: sum of ``shape`` iid exponentials of rate ``rate_``.

    Used as an alternative transfer-delay model in which each task in a batch
    contributes an independent exponential delay (so the total delay of a
    batch of ``L`` tasks is Erlang-``L``), matching the empirically observed
    linear growth of the mean delay with load size (Fig. 2, bottom).
    """

    shape: int
    rate_: float

    def __post_init__(self) -> None:
        if self.shape < 1:
            raise ValueError(f"shape must be >= 1, got {self.shape!r}")
        if self.rate_ <= 0:
            raise ValueError(f"rate must be positive, got {self.rate_!r}")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.gamma(self.shape, 1.0 / self.rate_))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(self.shape, 1.0 / self.rate_, size=n)

    @property
    def mean(self) -> float:
        return self.shape / self.rate_


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform distribution on ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError(f"invalid bounds [{self.low!r}, {self.high!r}]")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)


@dataclass(frozen=True)
class HyperExponential(Distribution):
    """Mixture of exponentials (higher variability than exponential).

    With probability ``probabilities[k]`` the variate is exponential with
    rate ``rates[k]``.  Useful to stress the robustness of the policies to
    heavier-tailed service times than the model assumes.
    """

    rates: tuple
    probabilities: tuple

    def __post_init__(self) -> None:
        rates = tuple(float(r) for r in self.rates)
        probs = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "probabilities", probs)
        if len(rates) != len(probs) or not rates:
            raise ValueError("rates and probabilities must be equal-length, non-empty")
        if any(r <= 0 for r in rates):
            raise ValueError("all rates must be positive")
        if any(p < 0 for p in probs) or not math.isclose(sum(probs), 1.0, abs_tol=1e-9):
            raise ValueError("probabilities must be non-negative and sum to 1")

    def sample(self, rng: np.random.Generator) -> float:
        k = rng.choice(len(self.rates), p=self.probabilities)
        return float(rng.exponential(1.0 / self.rates[k]))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        ks = rng.choice(len(self.rates), size=n, p=self.probabilities)
        scales = 1.0 / np.asarray(self.rates)
        return rng.exponential(scales[ks])

    @property
    def mean(self) -> float:
        return float(
            sum(p / r for p, r in zip(self.probabilities, self.rates))
        )


class Empirical(Distribution):
    """Resampling (bootstrap) distribution over observed samples.

    Used by the calibration workflow: measured per-task processing times or
    transfer delays can be plugged straight back into the simulator.
    """

    def __init__(self, samples: Sequence[float]) -> None:
        data = np.asarray(list(samples), dtype=float)
        if data.size == 0:
            raise ValueError("need at least one sample")
        if np.any(data < 0):
            raise ValueError("samples must be non-negative")
        self._samples = data

    @property
    def samples(self) -> np.ndarray:
        """The underlying observations (read-only view)."""
        view = self._samples.view()
        view.flags.writeable = False
        return view

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.choice(self._samples))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(self._samples, size=n)

    @property
    def mean(self) -> float:
        return float(self._samples.mean())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Empirical(n={self._samples.size}, mean={self.mean:.4g})"
