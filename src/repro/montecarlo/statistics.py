"""Summary statistics of Monte-Carlo outputs.

Two families of tools live here:

* **whole-sample summaries** — :func:`summarize` reduces a completed sample
  to a :class:`SummaryStatistics` (mean, dispersion, Student-t confidence
  interval), and the empirical-CDF helpers back Fig. 5;
* **mergeable accumulators** — :class:`RunningStatistics`,
  :class:`MergeableHistogram` and :class:`QuantileSketch` reduce a sample
  *incrementally* and can be merged across shards.  They exist for the
  distributed execution path (:mod:`repro.distributed`), where each shard
  reduces its realisations locally and only the accumulator states travel
  back to the scheduler.

The accumulators keep their first and second moments in **exactly-rounded
sums** (Shewchuk's algorithm, the machinery behind :func:`math.fsum`), so
``merge`` is associative and commutative *in exact arithmetic*: the merged
mean/variance is bit-identical however the sample was partitioned into
shards.  A plain Welford/Chan parallel merge would drift by a few ulps per
merge order; exact summation is what makes the shard-count-invariance
guarantee of the distributed runner testable with ``==``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class SummaryStatistics:
    """Mean, dispersion and confidence interval of a sample.

    The interval is computed at its first use: its Student-t quantile
    loads ``scipy.special`` (about 16 MiB resident), which a caller that
    reads only the mean and dispersion never needs.
    """

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    confidence_level: float

    @cached_property
    def _half(self) -> float:
        if self.n > 1 and self.std > 0:
            return float(
                _t_critical(self.confidence_level, self.n)
                * self.std
                / math.sqrt(self.n)
            )
        return 0.0

    @property
    def ci_low(self) -> float:
        """Lower end of the Student-t confidence interval."""
        return self.mean - self._half

    @property
    def ci_high(self) -> float:
        """Upper end of the Student-t confidence interval."""
        return self.mean + self._half

    @property
    def standard_error(self) -> float:
        """Standard error of the mean."""
        if self.n == 0:
            return float("nan")
        return self.std / math.sqrt(self.n)

    @property
    def half_width(self) -> float:
        """Half width of the confidence interval."""
        return 0.5 * (self.ci_high - self.ci_low)

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the confidence interval."""
        return self.ci_low <= value <= self.ci_high


def _t_critical(confidence_level: float, n: int) -> float:
    """Two-sided Student-t critical value of a sample of ``n``.

    ``stdtrit`` is what ``scipy.stats.t.ppf`` evaluates, bit for bit; it
    is imported here, at the first interval, because ``scipy.stats`` takes
    most of a second to import and block runtimes never need it.
    """
    from scipy.special import stdtrit

    return stdtrit(n - 1, 0.5 + confidence_level / 2.0)


def summarize(values: Sequence[float], confidence_level: float = 0.95) -> SummaryStatistics:
    """Compute :class:`SummaryStatistics` of a sample.

    Uses the Student-t critical value, matching standard discrete-event
    simulation output analysis practice.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarise an empty sample")
    if not 0 < confidence_level < 1:
        raise ValueError(f"confidence_level must lie in (0, 1), got {confidence_level!r}")
    return SummaryStatistics(
        n=int(data.size),
        mean=float(data.mean()),
        std=float(data.std(ddof=1)) if data.size > 1 else 0.0,
        minimum=float(data.min()),
        maximum=float(data.max()),
        confidence_level=confidence_level,
    )


# ---------------------------------------------------------------------------
# Mergeable accumulators (the reduction side of sharded Monte-Carlo)
# ---------------------------------------------------------------------------


class ExactSum:
    """An exactly-rounded running sum of floats (Shewchuk partials).

    The partials list represents the *real-valued* sum with no rounding
    error at all; :attr:`value` rounds it once, correctly.  Because the
    representation is exact, :meth:`merge` is associative and commutative:
    the same multiset of addends always produces the same partials sum and
    therefore the same rounded value, however it was partitioned.
    """

    __slots__ = ("partials",)

    def __init__(self, partials: Iterable[float] = ()) -> None:
        self.partials: List[float] = [float(p) for p in partials]

    def add(self, x: float) -> None:
        """Add ``x`` exactly (standard Shewchuk grow-expansion step)."""
        x = float(x)
        partials = self.partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        """Fold ``other`` into this sum (exact, order-independent)."""
        for p in other.partials:
            self.add(p)

    @property
    def value(self) -> float:
        """The correctly-rounded float value of the exact sum."""
        return math.fsum(self.partials)

    def copy(self) -> "ExactSum":
        return ExactSum(self.partials)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ExactSum({self.value!r})"


@dataclass
class RunningStatistics:
    """Mergeable first/second-moment accumulator with exact summation.

    The distributed runner's per-shard reduction: each shard folds its
    completion times in with :meth:`update` (or :meth:`from_values`), the
    scheduler merges the shard states with :meth:`merge`, and the merged
    accumulator renders the same :class:`SummaryStatistics` a whole-sample
    :func:`summarize` would — bit-identical for any shard partitioning of
    the same sample, because the sums underneath are exact.
    """

    count: int = 0
    total: ExactSum = field(default_factory=ExactSum)
    total_sq: ExactSum = field(default_factory=ExactSum)
    minimum: float = math.inf
    maximum: float = -math.inf

    def update(self, value: float) -> None:
        """Fold one observation in."""
        value = float(value)
        self.count += 1
        self.total.add(value)
        self.total_sq.add(value * value)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def update_many(self, values: Sequence[float]) -> None:
        for value in np.asarray(values, dtype=float).ravel():
            self.update(float(value))

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "RunningStatistics":
        acc = cls()
        acc.update_many(values)
        return acc

    def merge(self, other: "RunningStatistics") -> "RunningStatistics":
        """Fold ``other`` into this accumulator (returns ``self``)."""
        self.count += other.count
        self.total.merge(other.total)
        self.total_sq.merge(other.total_sq)
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    @classmethod
    def merged(cls, parts: Iterable["RunningStatistics"]) -> "RunningStatistics":
        acc = cls()
        for part in parts:
            acc.merge(part)
        return acc

    # -- derived moments ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.count

    @property
    def mean(self) -> float:
        if self.count == 0:
            return float("nan")
        return self.total.value / self.count

    @property
    def variance(self) -> float:
        """Unbiased sample variance (``ddof=1``), non-negative by clamping."""
        if self.count < 2:
            return 0.0
        mean = self.mean
        m2 = self.total_sq.value - self.count * mean * mean
        return max(m2, 0.0) / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def to_summary(self, confidence_level: float = 0.95) -> SummaryStatistics:
        """Render the accumulated state as a :class:`SummaryStatistics`."""
        if self.count == 0:
            raise ValueError("cannot summarise an empty accumulator")
        if not 0 < confidence_level < 1:
            raise ValueError(
                f"confidence_level must lie in (0, 1), got {confidence_level!r}"
            )
        return SummaryStatistics(
            n=self.count,
            mean=self.mean,
            std=self.std,
            minimum=self.minimum,
            maximum=self.maximum,
            confidence_level=confidence_level,
        )

    # -- serialization (shard results travel as JSON) ----------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe state; float partials round-trip exactly via ``repr``."""
        return {
            "count": self.count,
            "total": list(self.total.partials),
            "total_sq": list(self.total_sq.partials),
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunningStatistics":
        count = int(payload["count"])
        return cls(
            count=count,
            total=ExactSum(payload["total"]),
            total_sq=ExactSum(payload["total_sq"]),
            minimum=math.inf if payload.get("min") is None else float(payload["min"]),
            maximum=-math.inf if payload.get("max") is None else float(payload["max"]),
        )


@dataclass
class MergeableHistogram:
    """Fixed-edge histogram with integer counts — merge is exact addition.

    The bin layout ``(low, high, bins)`` must be agreed before any data is
    seen (it is part of the shard contract), which is what makes two shard
    histograms mergeable; observations outside ``[low, high)`` land in the
    underflow/overflow counters instead of being dropped.
    """

    low: float
    high: float
    bins: int
    counts: List[int] = field(default_factory=list)
    underflow: int = 0
    overflow: int = 0

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise ValueError(f"bins must be >= 1, got {self.bins!r}")
        if not self.high > self.low:
            raise ValueError(f"need high > low, got [{self.low!r}, {self.high!r})")
        if not self.counts:
            self.counts = [0] * self.bins
        elif len(self.counts) != self.bins:
            raise ValueError(
                f"counts length {len(self.counts)} != bins {self.bins}"
            )

    @property
    def total(self) -> int:
        return self.underflow + sum(self.counts) + self.overflow

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.low, self.high, self.bins + 1)

    def update(self, value: float) -> None:
        value = float(value)
        if value < self.low:
            self.underflow += 1
        elif value >= self.high:
            self.overflow += 1
        else:
            width = (self.high - self.low) / self.bins
            index = min(int((value - self.low) / width), self.bins - 1)
            self.counts[index] += 1

    def update_many(self, values: Sequence[float]) -> None:
        for value in np.asarray(values, dtype=float).ravel():
            self.update(float(value))

    def compatible_with(self, other: "MergeableHistogram") -> bool:
        return (
            self.low == other.low
            and self.high == other.high
            and self.bins == other.bins
        )

    def merge(self, other: "MergeableHistogram") -> "MergeableHistogram":
        if not self.compatible_with(other):
            raise ValueError(
                f"cannot merge histograms with different layouts: "
                f"[{self.low}, {self.high})×{self.bins} vs "
                f"[{other.low}, {other.high})×{other.bins}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.underflow += other.underflow
        self.overflow += other.overflow
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "low": self.low,
            "high": self.high,
            "bins": self.bins,
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MergeableHistogram":
        return cls(
            low=float(payload["low"]),
            high=float(payload["high"]),
            bins=int(payload["bins"]),
            counts=[int(c) for c in payload["counts"]],
            underflow=int(payload.get("underflow", 0)),
            overflow=int(payload.get("overflow", 0)),
        )


@dataclass
class QuantileSketch:
    """A streaming quantile estimator built on a mergeable histogram.

    Deterministic and partition-invariant by construction (integer bin
    counts merge exactly), unlike sampling sketches.  Quantile queries
    interpolate linearly inside the containing bin and clamp to the exact
    observed ``min``/``max``, so the sketch's accuracy is bounded by the
    bin width while its extremes are exact.
    """

    histogram: MergeableHistogram
    minimum: float = math.inf
    maximum: float = -math.inf

    @classmethod
    def with_range(
        cls, low: float, high: float, bins: int = 128
    ) -> "QuantileSketch":
        return cls(histogram=MergeableHistogram(low=low, high=high, bins=bins))

    @property
    def count(self) -> int:
        return self.histogram.total

    def update(self, value: float) -> None:
        value = float(value)
        self.histogram.update(value)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def update_many(self, values: Sequence[float]) -> None:
        for value in np.asarray(values, dtype=float).ravel():
            self.update(float(value))

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        self.histogram.merge(other.histogram)
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (``q`` in [0, 1]) of the stream."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {q!r}")
        total = self.count
        if total == 0:
            raise ValueError("cannot query an empty sketch")
        if q == 0.0:
            return self.minimum
        if q == 1.0:
            return self.maximum
        hist = self.histogram
        target = q * total
        running = float(hist.underflow)
        if target <= running:
            return self.minimum
        width = (hist.high - hist.low) / hist.bins
        for index, count in enumerate(hist.counts):
            if count and target <= running + count:
                inside = (target - running) / count
                left = hist.low + index * width
                return min(max(left + inside * width, self.minimum), self.maximum)
            running += count
        return self.maximum

    def to_dict(self) -> Dict[str, Any]:
        return {
            "histogram": self.histogram.to_dict(),
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QuantileSketch":
        return cls(
            histogram=MergeableHistogram.from_dict(payload["histogram"]),
            minimum=math.inf if payload.get("min") is None else float(payload["min"]),
            maximum=-math.inf if payload.get("max") is None else float(payload["max"]),
        )


def empirical_cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of a sample: returns ``(sorted values, F(values))``.

    Used to compare the Monte-Carlo completion times against the analytical
    CDF of eq. (5) (Fig. 5).
    """
    data = np.sort(np.asarray(list(values), dtype=float))
    if data.size == 0:
        raise ValueError("cannot build an empirical CDF from an empty sample")
    probabilities = np.arange(1, data.size + 1) / data.size
    return data, probabilities


def evaluate_empirical_cdf(values: Sequence[float], grid: Sequence[float]) -> np.ndarray:
    """Evaluate the empirical CDF of ``values`` on an arbitrary time grid."""
    data = np.sort(np.asarray(list(values), dtype=float))
    if data.size == 0:
        raise ValueError("cannot build an empirical CDF from an empty sample")
    grid_arr = np.asarray(grid, dtype=float)
    return np.searchsorted(data, grid_arr, side="right") / data.size
