"""The alternating failure/recovery process of a node.

Each node fails after an exponential up time (rate ``λ_f``) and recovers
after an exponential down time (rate ``λ_r``), independently of everything
else — exactly the model of Section 2 of the paper and the behaviour of the
failure-injection process used in the paper's experiments (Section 4), which
signals the application layer to stop and later resume execution.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.cluster.node import ComputeElement, NodeState
from repro.sim.distributions import Exponential
from repro.sim.engine import Environment
from repro.sim.rng import exponential_draws


class FailureRecoveryProcess:
    """Drives the up/down alternation of one node.

    Parameters
    ----------
    env:
        Simulation environment.
    node:
        The node whose state this process controls.
    rng:
        Random stream used for the failure and recovery times of this node.
        Both are drawn from it in chunks (see
        :func:`~repro.sim.rng.exponential_draws`), so it must be the
        process's own stream.
    on_failure / on_recovery:
        Optional callbacks ``f(node, time)`` invoked right after the node
        changes state (the system uses ``on_failure`` to trigger LBP-2's
        compensation transfers).
    horizon:
        Optional time after which no further failures are injected (useful
        for bounded test scenarios); ``None`` means the process runs for the
        whole simulation.
    """

    def __init__(
        self,
        env: Environment,
        node: ComputeElement,
        rng: np.random.Generator,
        on_failure: Optional[Callable[[ComputeElement, float], None]] = None,
        on_recovery: Optional[Callable[[ComputeElement, float], None]] = None,
        horizon: Optional[float] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.rng = rng
        self.on_failure = on_failure
        self.on_recovery = on_recovery
        self.horizon = horizon

        params = node.params
        self.failure_distribution = (
            Exponential(params.failure_rate) if params.failure_rate > 0 else None
        )
        self.recovery_distribution = (
            Exponential(params.recovery_rate) if params.recovery_rate > 0 else None
        )

        self.process = None
        if self._is_active():
            self.process = env.process(self._loop(), name=f"{node.name}.failure")

    def _is_active(self) -> bool:
        # A node that can fail, or a node that starts down and must recover.
        return self.node.params.can_fail or self.node.state is NodeState.DOWN

    def _loop(self):
        node = self.node
        # Each distribution's ``mean`` is the very ``1 / rate`` that its
        # ``sample`` scales by, so these are its draws, bit for bit.
        draw = exponential_draws(self.rng)
        while True:
            if node.state is NodeState.UP:
                if self.failure_distribution is None:
                    return  # the node never fails again; nothing left to do
                up_time = draw(self.failure_distribution.mean)
                if self.horizon is not None and self.env.now + up_time > self.horizon:
                    return
                yield self.env.timeout(up_time)
                node.fail()
                if self.on_failure is not None:
                    self.on_failure(node, self.env.now)
            else:
                if self.recovery_distribution is None:
                    return  # permanently down (disallowed by NodeParameters)
                down_time = draw(self.recovery_distribution.mean)
                yield self.env.timeout(down_time)
                node.recover()
                if self.on_recovery is not None:
                    self.on_recovery(node, self.env.now)
