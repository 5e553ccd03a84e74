"""Event primitives for the discrete-event simulation kernel.

The design follows the classic generator-based DES pattern: an
:class:`Event` is a one-shot occurrence with a value (or an exception), a
list of callbacks and a life-cycle ``untriggered -> triggered -> processed``.
Processes (see :mod:`repro.sim.process`) suspend themselves by yielding
events and are resumed by the environment when the event is processed.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from repro.sim.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.engine import Environment


class _Pending:
    """Sentinel for the value of an event that has not been triggered."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "<PENDING>"


PENDING: Any = _Pending()

#: Scheduling priorities.  Urgent events (process bootstrap, interrupts) are
#: processed before normal events scheduled at the same simulation time.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot simulation event.

    Parameters
    ----------
    env:
        The environment the event lives in.

    Notes
    -----
    An event can be *triggered* at most once, either with
    :meth:`succeed` (carrying a value) or :meth:`fail` (carrying an
    exception).  Once the environment pops the event off its schedule, the
    event becomes *processed* and its callbacks have run.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ----------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """``True`` once the event has a value and is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the callbacks of the event have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event was triggered successfully."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value of the event, available once triggered."""
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    def defused(self) -> bool:
        """Whether a failure carried by this event has been handled."""
        return self._defused

    def defuse(self) -> None:
        """Mark the failure of this event as handled.

        A failed event whose exception is never retrieved would otherwise be
        re-raised by :meth:`Environment.step` to avoid silently swallowing
        errors.
        """
        self._defused = True

    # -- triggering -----------------------------------------------------

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (chaining helper)."""
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    # -- composition ----------------------------------------------------

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        status = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {status} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after ``delay`` time units."""

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Event.__init__ and Environment.schedule, inlined: timeouts are the
        # simulator's most frequent event, and the delay is checked above.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = float(delay)
        heappush(env._queue, (env._now + delay, NORMAL, next(env._eid), self))

    @property
    def delay(self) -> float:
        """The delay this timeout was created with."""
        return self._delay

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Timeout delay={self._delay}>"


class Condition(Event):
    """Base class for events composed of several sub-events.

    The condition triggers once ``evaluate`` returns ``True`` for the set of
    already-processed sub-events, and its value is a dictionary mapping each
    processed sub-event to its value.
    """

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events: List[Event] = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")

        if not self._events:
            self.succeed(self._collect())
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._check)

    def _collect(self) -> dict:
        # Only events whose callbacks have already run count as "done" at the
        # instant the condition triggers (a Timeout is *triggered* from the
        # moment it is created, but it has not yet *occurred*).
        return {event: event._value for event in self._events if event.processed}

    def evaluate(self, count: int, total: int) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._count += 1
        if self.evaluate(self._count, len(self._events)):
            self.succeed(self._collect())


class AllOf(Condition):
    """Condition that triggers once *all* sub-events have triggered."""

    def evaluate(self, count: int, total: int) -> bool:
        return count == total


class AnyOf(Condition):
    """Condition that triggers once *any* sub-event has triggered."""

    def evaluate(self, count: int, total: int) -> bool:
        return count >= 1 or total == 0
