"""The failure-injection process of the emulated test-bed.

The paper implements node failures in software: "we have coded a process
that dynamically generates failure instants and sends signals, at all such
failure instants, to the application layer ordering it to stop executing
tasks.  Also, at every failure instant, the same process generates a
recovery time and waits for that amount of time before sending a new signal
... ordering it to resume" (Section 4).

:class:`FailureInjector` is exactly that process for one emulated node: it
draws exponential failure and recovery times and delivers *stop* / *resume*
signals.  The simulators' failure/recovery clocks
(:mod:`repro.cluster.system`, :mod:`repro.core.arrivals`) alternate the
same exponential up and down times, but the injector signals the
test-bed's balancer layer (which then involves the backup system) rather
than acting on a node's state directly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.parameters import NodeParameters
from repro.sim.distributions import Exponential
from repro.sim.engine import Environment

StopSignal = Callable[[int, float], None]
ResumeSignal = Callable[[int, float], None]


class FailureInjector:
    """Generates failure and recovery signals for one node.

    Parameters
    ----------
    env:
        Simulation environment.
    node_index:
        Index of the node being controlled.
    params:
        The node's stochastic parameters (failure/recovery rates).
    rng:
        Random stream for the failure and recovery times.
    on_stop / on_resume:
        Signals delivered to the application/balancer layers: ``f(node_index,
        time)``.
    """

    def __init__(
        self,
        env: Environment,
        node_index: int,
        params: NodeParameters,
        rng: np.random.Generator,
        on_stop: StopSignal,
        on_resume: ResumeSignal,
    ) -> None:
        self.env = env
        self.node_index = node_index
        self.params = params
        self.rng = rng
        self.on_stop = on_stop
        self.on_resume = on_resume
        #: (failure time, recovery time) pairs generated so far.
        self.injected: List[Tuple[float, Optional[float]]] = []

        self.process = None
        if params.can_fail:
            self._failure = Exponential(params.failure_rate)
            self._recovery = Exponential(params.recovery_rate)
            self.process = env.process(
                self._loop(), name=f"failure-injector-{node_index}"
            )

    @property
    def num_failures(self) -> int:
        """Number of failure signals delivered so far."""
        return len(self.injected)

    def _loop(self):
        while True:
            yield self.env.timeout(self._failure.sample(self.rng))
            failed_at = self.env.now
            self.injected.append((failed_at, None))
            self.on_stop(self.node_index, failed_at)

            yield self.env.timeout(self._recovery.sample(self.rng))
            recovered_at = self.env.now
            self.injected[-1] = (failed_at, recovered_at)
            self.on_resume(self.node_index, recovered_at)
