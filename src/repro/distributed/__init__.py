"""Execution machinery of the unified Monte-Carlo engine.

An ensemble of N realisations is partitioned into fixed-size **seed
blocks** (deterministic per-block random streams spawned from the master
seed), blocks are grouped into **shards** — the schedulable work items —
and a load-balancing :class:`ShardScheduler` dispatches them to a
pluggable :class:`ShardExecutor`: in-process, a local process pool, a
wrapped shared futures pool, or the results service's fleet of remote
``repro worker`` processes.  Completed blocks are content-addressed in
the :class:`ShardStore`, so interrupted runs resume and enlarged
ensembles compute only the delta; merged results are bit-identical for
every shard count and executor (see :mod:`repro.distributed.plan` and the
exact-merge accumulators in :mod:`repro.montecarlo.statistics`).

The pipeline itself — plan → execute → merge — lives in
:mod:`repro.montecarlo.engine` and serves *every* Monte-Carlo run, not
just explicitly sharded ones: a sharded spec run is
``run_engine(EngineRequest(spec=..., executor=..., store=...))``.
Spec-described runs travel as JSON work items to any executor; ad-hoc
runs (live policy or backend objects) run inline or on a process pool.

Re-exports are lazy (PEP 562): importing this package costs nothing, which
keeps the service's request path numpy-free.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.distributed.executors": (
        "EXECUTOR_NAMES",
        "FuturesShardExecutor",
        "InlineExecutor",
        "ProcessShardExecutor",
        "ShardExecutor",
        "ShardOutcome",
        "resolve_executor",
    ),
    "repro.distributed.plan": (
        "SeedBlock",
        "Shard",
        "block_key",
        "block_seed",
        "plan_blocks",
        "plan_shards",
        "shard_plan_key",
    ),
    "repro.distributed.scheduler": (
        "ASSIGNMENT_POLICIES",
        "ShardExecutionError",
        "ShardScheduler",
    ),
    "repro.distributed.store": ("ShardStore",),
    "repro.distributed.work": (
        "execute_work_item",
        "int_seed",
        "make_adhoc_item",
        "make_work_item",
        "policy_spec_of",
        "run_block",
    ),
    "repro.distributed.worker": ("run_worker",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
