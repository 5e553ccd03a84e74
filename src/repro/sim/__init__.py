"""Discrete-event simulation (DES) engine.

This subpackage is a self-contained, generator-based discrete-event
simulation kernel in the style of SimPy.  Its event kernel (``engine``,
``events``, ``process``, ``resources``) is the substrate of the
three-layer test-bed emulation (:mod:`repro.testbed`, with the compute
elements of :mod:`repro.cluster.node`).  The simulators of the model,
:class:`~repro.cluster.system.DistributedSystem` and
:class:`~repro.core.arrivals.DynamicSystem`, are next-event loops of their
own and use only ``rng`` and ``distributions`` from here.

The main entry point is :class:`~repro.sim.engine.Environment`::

    from repro.sim import Environment

    env = Environment()

    def worker(env):
        yield env.timeout(3.0)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert env.now == 3.0

Modules
-------
``engine``
    The :class:`Environment` simulation kernel (clock, event heap, run loop).
``events``
    Event primitives: :class:`Event`, :class:`Timeout`, :class:`AnyOf`,
    :class:`AllOf`.
``process``
    Generator-backed :class:`Process` objects with interrupt support.
``rng``
    Reproducible random-number stream management.
``distributions``
    Random-variate distributions used throughout the model (exponential,
    Erlang, deterministic, empirical, ...).
``monitor``
    Time-series and tally monitors used to record queue trajectories and
    summary statistics.
``resources``
    A small resource/store library (used by the test-bed communication
    layer).
"""

from repro.sim.engine import Environment
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.exceptions import Interrupt, SimulationError, StopSimulation
from repro.sim.process import Process
from repro.sim.rng import RandomStreams
from repro.sim.distributions import (
    Deterministic,
    Distribution,
    Empirical,
    Erlang,
    Exponential,
    HyperExponential,
    Uniform,
)
from repro.sim.monitor import TallyMonitor, TimeSeriesMonitor
from repro.sim.resources import Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Deterministic",
    "Distribution",
    "Empirical",
    "Environment",
    "Erlang",
    "Event",
    "Exponential",
    "HyperExponential",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "StopSimulation",
    "Store",
    "TallyMonitor",
    "Timeout",
    "TimeSeriesMonitor",
    "Uniform",
]
