"""Random streams and shared simulation helpers.

The model's simulators — :class:`~repro.cluster.system.DistributedSystem`,
the open-system :class:`~repro.core.arrivals.DynamicSystem` and the
test-bed emulation :class:`~repro.testbed.experiment.TestbedExperiment` —
are next-event loops of their own.  This subpackage holds what they
share:

``rng``
    Reproducible named random-number streams (:class:`RandomStreams`),
    seed spawning and the chunked exponential draws of the simulators.
``distributions``
    The exponential law (:class:`Exponential`) of the model's random
    times, plus alternatives (deterministic, Erlang, uniform,
    hyper-exponential, empirical) for sensitivity studies.
``monitor``
    :class:`TimeSeriesMonitor`, the piecewise-constant time series behind
    the queue trajectories of Fig. 4, and :class:`TallyMonitor`, a tally
    of scalar observations with summary statistics.
"""

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

__all__ = [
    "Deterministic",
    "Distribution",
    "Empirical",
    "Erlang",
    "Exponential",
    "HyperExponential",
    "RandomStreams",
    "TallyMonitor",
    "TimeSeriesMonitor",
    "Uniform",
]
