"""Monitors: record time series and summary statistics during a simulation.

The queue-trajectory figures of the paper (Fig. 4) are produced from
:class:`TimeSeriesMonitor` records; :class:`TallyMonitor` accumulates scalar
observations with their summary statistics.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np


class TimeSeriesMonitor:
    """Piecewise-constant time series of an observed quantity.

    Each call to :meth:`record` appends a ``(time, value)`` pair.  The series
    is interpreted as right-continuous and piecewise constant, which matches
    queue-length trajectories exactly.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Append an observation at ``time``."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"observations must be recorded in time order "
                f"(got {time} after {self._times[-1]})"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    # -- accessors --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        """Observation times as an array."""
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        """Observed values as an array."""
        return np.asarray(self._values, dtype=float)

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` arrays."""
        return self.times, self.values

    def value_at(self, time: float) -> float:
        """Value of the (right-continuous) series at ``time``."""
        if not self._times:
            raise ValueError("monitor is empty")
        idx = int(np.searchsorted(self._times, time, side="right")) - 1
        if idx < 0:
            raise ValueError(f"time {time} precedes the first observation")
        return self._values[idx]

    def sample_on_grid(self, grid: Sequence[float]) -> np.ndarray:
        """Evaluate the piecewise-constant series on a time grid."""
        grid_arr = np.asarray(grid, dtype=float)
        if not self._times:
            raise ValueError("monitor is empty")
        idx = np.searchsorted(self._times, grid_arr, side="right") - 1
        if np.any(idx < 0):
            raise ValueError("grid extends before the first observation")
        return np.asarray(self._values, dtype=float)[idx]

    def time_average(self, until: Optional[float] = None) -> float:
        """Time-weighted average of the series on ``[t0, until]``."""
        if len(self._times) == 0:
            raise ValueError("monitor is empty")
        times = np.asarray(self._times)
        values = np.asarray(self._values)
        end = float(until) if until is not None else times[-1]
        if end < times[0]:
            raise ValueError("'until' precedes the first observation")
        if end == times[0]:
            return float(values[0])
        cut = np.searchsorted(times, end, side="right")
        times = np.append(times[:cut], end)
        values = values[:cut]
        durations = np.diff(times)
        return float(np.sum(values * durations) / (end - times[0]))


class TallyMonitor:
    """Accumulator of scalar observations with summary statistics."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._values: List[float] = []

    def record(self, value: float) -> None:
        """Add one observation."""
        if not math.isfinite(value):
            raise ValueError(f"observation must be finite, got {value!r}")
        self._values.append(float(value))

    def extend(self, values: Sequence[float]) -> None:
        """Add several observations."""
        for value in values:
            self.record(value)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> np.ndarray:
        """All observations as an array."""
        return np.asarray(self._values, dtype=float)

    @property
    def mean(self) -> float:
        """Sample mean."""
        if not self._values:
            raise ValueError("monitor is empty")
        return float(np.mean(self._values))

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1; 0 for a single observation)."""
        if not self._values:
            raise ValueError("monitor is empty")
        if len(self._values) == 1:
            return 0.0
        return float(np.std(self._values, ddof=1))

    @property
    def min(self) -> float:
        if not self._values:
            raise ValueError("monitor is empty")
        return float(np.min(self._values))

    @property
    def max(self) -> float:
        if not self._values:
            raise ValueError("monitor is empty")
        return float(np.max(self._values))

    def standard_error(self) -> float:
        """Standard error of the mean."""
        n = len(self._values)
        if n == 0:
            raise ValueError("monitor is empty")
        return self.std / math.sqrt(n)

    def confidence_interval(self, level: float = 0.95) -> Tuple[float, float]:
        """Normal-approximation confidence interval for the mean."""
        from scipy import stats

        if not 0 < level < 1:
            raise ValueError(f"level must be in (0, 1), got {level!r}")
        if not self._values:
            raise ValueError("monitor is empty")
        half = stats.norm.ppf(0.5 + level / 2.0) * self.standard_error()
        return self.mean - half, self.mean + half
