"""Generator-backed simulation processes.

A :class:`Process` drives a Python generator: whenever the generator yields
an :class:`~repro.sim.events.Event`, the process suspends until that event is
processed, at which point the generator is resumed with the event's value (or
the event's exception is thrown into it).  A process is itself an event that
triggers when its generator returns, so processes can wait for one another.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import PENDING, URGENT, Event
from repro.sim.exceptions import Interrupt, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

ProcessGenerator = Generator[Event, Any, Any]


class _Initialize(Event):
    """Bootstrap event that starts the generator of a new process."""

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks = [process._resume]
        env.schedule(self, priority=URGENT)


class _Interruption(Event):
    """Immediate event delivering an :class:`Interrupt` into a process."""

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        if process.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        if process is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks = [self._deliver]
        self.env.schedule(self, priority=URGENT)

    def _deliver(self, event: Event) -> None:
        process = self.process
        # The process may have terminated in the meantime (e.g. the node
        # finished its queue in the same time step as the failure signal).
        if process.triggered:
            return
        # Unsubscribe the process from the event it is currently waiting on
        # so it is not resumed twice.
        if process._target is not None and process._target.callbacks is not None:
            try:
                process._target.callbacks.remove(process._resume)
            except ValueError:
                pass
        process._resume(self)


class Process(Event):
    """A running simulation process wrapping a generator.

    Parameters
    ----------
    env:
        The owning environment.
    generator:
        A generator that yields events.  Its return value becomes the value
        of the process event.
    name:
        Optional human-readable name used in ``repr`` and error messages.
    """

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", type(self).__name__)
        _Initialize(env, self)

    # -- introspection ----------------------------------------------------

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for (if suspended)."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not terminated."""
        return self._value is PENDING

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "alive" if self.is_alive else "terminated"
        return f"<Process {self.name!r} {state}>"

    # -- control ----------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process as soon as possible.

        The interrupt is delivered as an *urgent* event at the current
        simulation time; the interrupted process sees an
        :class:`~repro.sim.exceptions.Interrupt` exception raised at its
        current ``yield`` statement.
        """
        _Interruption(self, cause)

    # -- execution ---------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator after ``event`` has been processed."""
        env = self.env
        env._active_process = self

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # Mark the failure as handled: the generator gets a
                    # chance to deal with (or re-raise) it.
                    event.defuse()
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env.schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                error = SimulationError(
                    f"process {self.name!r} yielded {next_event!r}, "
                    "which is not an Event"
                )
                self._ok = False
                self._value = error
                env.schedule(self)
                break

            callbacks = next_event.callbacks
            if callbacks is not None:
                # The event has not been processed yet: wait for it.
                callbacks.append(self._resume)
                self._target = next_event
                break

            # The event was already processed; feed its value straight back.
            event = next_event

        env._active_process = None
