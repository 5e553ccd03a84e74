"""The ``auto`` backend: the vectorized kernel where it applies, else reference.

Block execution — in a pool slot or a remote ``repro worker`` — should not
force the operator to know which configurations fit the vectorized CTMC
kernel.  ``backend="auto"`` resolves that question per configuration, at
the moment a block runs: the vectorized batch kernel where
:meth:`~repro.backends.vectorized.VectorizedBackend.ensure_supported`
accepts the configuration, the reference event simulator everywhere else.

The rule picks a kernel by coverage, not by speed.  Run per block, as the
engine runs it, the vectorized kernel is now the slower one: in the
committed ``BENCH_results.json`` (through the engine, best of 5 on a
2-vCPU VM) ``mc-scaling``'s 2000 realisations took 1.03 s on
``vectorized`` against 0.94 s on ``reference``, and ``churn/paper``'s 200
took 0.18 s against 0.10 s.

The choice depends only on the configuration itself (parameters, policy,
workload, system options) — never on the machine or the executor — so a
serial run, a process pool and a worker fleet executing the same spec all
pick the same kernel and merged statistics stay bit-identical across
execution modes.  ``auto`` is its own cache identity: the spec's content
hash and the shard store's plan key salt with the literal backend name, so
``auto`` blocks never alias ``reference`` or ``vectorized`` blocks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.backends.base import ExecutionBackend, get_backend, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.parameters import SystemParameters
    from repro.core.policies.base import LoadBalancingPolicy
    from repro.core.workload import Workload
    from repro.montecarlo.runner import MonteCarloEstimate
    from repro.sim.rng import SeedLike


class AutoBackend(ExecutionBackend):
    """Delegate to the vectorized kernel where supported, else reference."""

    name = "auto"

    def select(
        self,
        params: "SystemParameters",
        policy: "LoadBalancingPolicy",
        workload: Union["Workload", Sequence[int]],
        **system_kwargs,
    ) -> ExecutionBackend:
        """The concrete backend this configuration resolves to."""
        fast = get_backend("vectorized")
        if fast.supports(params, policy, workload, **system_kwargs):
            return fast
        return get_backend("reference")

    # Everything is supported: the reference backend is the total fallback,
    # so the inherited accept-all ``ensure_supported`` is correct.

    def run_batch(
        self,
        params: "SystemParameters",
        policy: "LoadBalancingPolicy",
        workload: Union["Workload", Sequence[int]],
        num_realisations: int,
        seed: "SeedLike" = None,
        horizon: Optional[float] = None,
        confidence_level: float = 0.95,
        **system_kwargs,
    ) -> "MonteCarloEstimate":
        backend = self.select(params, policy, workload, **system_kwargs)
        return backend.run_batch(
            params,
            policy,
            workload,
            num_realisations,
            seed=seed,
            horizon=horizon,
            confidence_level=confidence_level,
            **system_kwargs,
        )


register_backend(AutoBackend())
