"""The simulation environment: clock, event heap and run loop."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Iterable, List, Optional, Tuple, Union

from repro.sim.events import NORMAL, AllOf, AnyOf, Event, Timeout
from repro.sim.exceptions import EmptySchedule, SimulationError, StopSimulation
from repro.sim.process import Process, ProcessGenerator

#: Entries on the heap: (time, priority, sequence number, event).  The
#: sequence number breaks ties deterministically (FIFO within a time step and
#: priority class), which keeps simulations reproducible.
_HeapEntry = Tuple[float, int, int, Event]


class Environment:
    """Execution environment of a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0.0``).

    Examples
    --------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(2.5)
    ...     return "finished"
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> env.now
    2.5
    >>> p.value
    'finished'
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[_HeapEntry] = []
        self._eid = count()
        self._active_process: Optional[Process] = None

    # -- basic accessors --------------------------------------------------

    @property
    def now(self) -> float:
        """The current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    @property
    def queue_size(self) -> int:
        """Number of events currently scheduled."""
        return len(self._queue)

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that triggers after ``delay``."""
        return Timeout(self, delay, value)

    def process(
        self, generator: ProcessGenerator, name: Optional[str] = None
    ) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers once all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers once any of ``events`` has triggered."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Put a triggered ``event`` onto the schedule after ``delay``."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    # -- execution ----------------------------------------------------------

    def step(self) -> None:
        """Process the next scheduled event.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        if not self._queue:
            raise EmptySchedule("the simulation schedule is empty")
        self._process(once=True)

    def _process(self, once: bool = False) -> None:
        """Pop and dispatch events until none remain (or after one).

        :meth:`step` and :meth:`run` share this loop, so a run pays no
        call per event.
        """
        queue = self._queue
        while queue:
            self._now, _, _, event = heappop(queue)
            callbacks, event.callbacks = event.callbacks, None
            assert callbacks is not None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event.defused():
                # An unhandled failure: re-raise so errors do not pass silently.
                value = event._value
                if isinstance(value, BaseException):
                    raise value
                raise SimulationError(f"event {event!r} failed with {value!r}")
            if once:
                return

    def run(self, until: Union[None, float, int, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until no scheduled events remain;
            * a number — run until the clock reaches that time;
            * an :class:`Event` — run until that event is processed and
              return its value.

        Returns
        -------
        The value of ``until`` if it was an event, otherwise ``None``.
        """
        at: Optional[Event]
        if until is None:
            at = None
        elif isinstance(until, Event):
            at = until
            if at.callbacks is None:
                # Already processed.
                return at.value
            at.callbacks.append(_StopCallback(self))
        else:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon!r} lies in the past (now={self._now!r})"
                )
            at = Timeout(self, horizon - self._now)
            at.callbacks.append(_StopCallback(self))

        try:
            self._process()
        except StopSimulation as stop:
            return stop.value

        if at is not None and not at.triggered:
            raise SimulationError(
                "simulation ran out of events before the 'until' event triggered"
            )
        return None


class _StopCallback:
    """Callback that stops :meth:`Environment.run` at its target event."""

    def __init__(self, env: Environment) -> None:
        self.env = env

    def __call__(self, event: Event) -> None:
        raise StopSimulation(event._value if event._ok else None)
