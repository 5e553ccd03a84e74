"""Executing one shard work item — the code both pool slots and remote
workers run.

A *work item* is a self-contained JSON document describing one shard's
worth of seed blocks (:func:`make_work_item`).  It carries the effective
:class:`~repro.scenarios.spec.ScenarioSpec` (system, workload, policy,
seed, backend) as pure JSON, so the same item runs inline, in a pool
process or on a remote ``repro worker`` reached over HTTP.

Each block runs through one execute-and-reduce step: the spec's
:class:`~repro.backends.base.ExecutionBackend` executes the block with
its own seed stream (:func:`repro.distributed.plan.block_seed`), and the
sample reduces to a JSON payload — the completion times plus a mergeable
:class:`~repro.montecarlo.statistics.RunningStatistics` state.  The
serialization helpers :func:`policy_spec_of` and :func:`int_seed` — which
fold programmatically-built policies and spawned seeds back into spec
fields — live here too.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.distributed.plan import SeedBlock, block_seed
from repro.obs import propagate, trace

#: Work-item schema version; workers refuse items they do not understand.
#: ``trace_ctx`` (and the ``trace`` subtree in results) are *optional*
#: additions within version 1 — untraced parents omit them, old workers
#: ignore them.
WORK_ITEM_VERSION = 1

#: Work items a ``repro worker`` claims per round-trip by default — also
#: the number the service's scheduler keeps in flight per worker slot, so
#: a full batch is actually queued when the claim arrives.
DEFAULT_CLAIM_BATCH = 4


def warm_block_runtime() -> float:
    """Pre-import everything a block execution touches; returns the seconds
    it took.

    The heavy imports behind :func:`run_block` — numpy, the spec machinery,
    the statistics accumulator and the execution backends — dominate a cold
    process's first work item.  None of them imports scipy: a block never
    computes an interval, so scipy loads only where one is merged.  Pool
    initializers
    (:class:`~repro.distributed.executors.ProcessShardExecutor`) and
    ``repro worker`` start-up call this once, so every slot is warm before
    the first claim and each dispatch pays compute, not imports.
    """
    started = perf_counter()
    import numpy  # noqa: F401 - imported for the side effect

    from repro.backends.base import backend_names, get_backend
    from repro.montecarlo.statistics import RunningStatistics  # noqa: F401
    from repro.scenarios.spec import ScenarioSpec  # noqa: F401

    for name in backend_names():
        try:
            get_backend(name)
        except Exception:  # noqa: BLE001 - warm-up must never be fatal
            continue
    return perf_counter() - started


def policy_spec_of(policy: Any) -> "PolicySpec":
    """Describe a built policy instance as a serializable ``PolicySpec``.

    The inverse of :meth:`PolicySpec.build` for the built-in policies; it
    lets runners that construct policies programmatically (e.g. the
    delay-crossover duel, which pins analytically-optimised gains) ship
    them to executors and remote workers inside a work item.
    """
    from repro.core.policies.baselines import (
        NoBalancing,
        ProportionalOneShot,
        SendAllOnFailure,
    )
    from repro.core.policies.lbp1 import LBP1
    from repro.core.policies.lbp2 import LBP2
    from repro.scenarios.spec import PolicySpec

    if isinstance(policy, LBP1):
        return PolicySpec(
            kind="lbp1",
            gain=float(policy.gain),
            sender=policy.sender,
            receiver=policy.receiver,
        )
    if isinstance(policy, LBP2):
        return PolicySpec(
            kind="lbp2", gain=float(policy.gain), compensate=policy.compensate
        )
    if isinstance(policy, NoBalancing):
        return PolicySpec(kind="none")
    if isinstance(policy, ProportionalOneShot):
        return PolicySpec(kind="proportional")
    if isinstance(policy, SendAllOnFailure):
        return PolicySpec(kind="send_all")
    raise ValueError(
        f"cannot serialize policy {policy!r} into a PolicySpec; the engine "
        "runs only the built-in policy kinds (run others through "
        "MonteCarloRunner or a backend's run_batch)"
    )


def int_seed(seed: Any) -> int:
    """Collapse any seed-like value to a deterministic non-negative int.

    Sharded work items travel as JSON, so their master seed must be an
    integer; a :class:`numpy.random.SeedSequence` (e.g. a spawned child) is
    reduced through its own generated state, which is stable across
    processes and platforms.
    """
    import numpy as np

    if seed is None:
        return 0
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1, np.uint64)[0] >> 1)
    raise TypeError(f"cannot reduce seed {seed!r} to an integer")


def make_work_item(
    item_id: str,
    task_id: str,
    shard_index: int,
    spec_dict: Dict[str, Any],
    blocks: List[SeedBlock],
) -> Dict[str, Any]:
    """Assemble the JSON work item for one shard."""
    return {
        "version": WORK_ITEM_VERSION,
        "id": item_id,
        "task": task_id,
        "shard": shard_index,
        "spec": spec_dict,
        "blocks": [list(block.to_item()) for block in blocks],
    }


# One-slot memo for the per-block spec rebuild.  A shard's blocks all
# carry the same spec dict, so re-parsing it (ScenarioSpec.from_dict,
# parameter materialisation, policy gain resolution, backend lookup) per
# block is pure deserialize tax; keying on the canonical spec JSON makes
# reuse exact.  One slot suffices — workers and pool slots interleave at
# item granularity, and a fresh spec simply repopulates it.
_SPEC_MEMO: Dict[str, Any] = {}


def _spec_runtime(spec_dict: Dict[str, Any]):
    """(spec, params, policy, backend) for a spec dict, memoized."""
    import json as _json

    from repro.backends.base import resolve_backend
    from repro.scenarios.spec import PolicySpec, ScenarioSpec

    key = _json.dumps(spec_dict, sort_keys=True, default=str)
    if _SPEC_MEMO.get("key") != key:
        spec = ScenarioSpec.from_dict(dict(spec_dict))
        params = spec.system.to_parameters()
        policy = (spec.policy or PolicySpec()).build(params, spec.workload)
        backend = resolve_backend(spec.backend)
        _SPEC_MEMO.update(
            key=key, runtime=(spec, params, policy, backend)
        )
    return _SPEC_MEMO["runtime"]


def run_block(
    spec_dict: Dict[str, Any], block: SeedBlock
) -> Dict[str, Any]:
    """Run one seed block of a spec item through its backend and reduce it
    to a JSON-safe payload — the one code path every block runs through."""
    from repro.montecarlo.statistics import RunningStatistics

    with trace.span("worker.deserialize", block=block.index):
        spec, params, policy, backend = _spec_runtime(spec_dict)
    started = perf_counter()
    with trace.span(
        "worker.compute",
        block=block.index,
        realisations=block.num_realisations,
    ):
        estimate = backend.run_batch(
            params,
            policy,
            spec.workload,
            block.num_realisations,
            seed=block_seed(spec.seed, block.index),
        )
    compute_seconds = perf_counter() - started
    times = [float(t) for t in estimate.completion_times]
    return {
        "index": block.index,
        "start": block.start,
        "stop": block.stop,
        "policy": estimate.policy_name,
        "completion_times": times,
        "stats": RunningStatistics.from_values(times).to_dict(),
        # Pure backend compute time, measured where the block actually ran
        # (possibly a pool subprocess or a remote worker).  Extra key on
        # BLOCK_FORMAT_VERSION 1 payloads — cached blocks written before
        # this field simply lack it.
        "wall_seconds": compute_seconds,
    }


def execute_work_item(
    item: Dict[str, Any], *, worker: Optional[str] = None
) -> Dict[str, Any]:
    """Run every block of a work item; the worker/pool entry point.

    When the item carries a ``trace_ctx`` (see
    :mod:`repro.obs.propagate`), a child tracer records a ``worker.item``
    span (plus the per-block ``worker.deserialize``/``worker.compute``
    spans) and the serialised subtree travels home under the result's
    ``trace`` key for the scheduler to stitch.
    """
    version = item.get("version")
    if version != WORK_ITEM_VERSION:
        raise ValueError(
            f"unsupported work item version {version!r} "
            f"(this worker speaks version {WORK_ITEM_VERSION})"
        )
    started = perf_counter()
    with propagate.child_capture(item.get("trace_ctx")) as child:
        with trace.span(
            "worker.item",
            shard=int(item["shard"]),
            blocks=len(item["blocks"]),
        ):
            blocks = [
                run_block(item["spec"], SeedBlock.from_item(entry))
                for entry in item["blocks"]
            ]
        result = {
            "id": item["id"],
            "task": item["task"],
            "shard": int(item["shard"]),
            "blocks": blocks,
            "wall_seconds": perf_counter() - started,
        }
        if child is not None:
            # The child tracer's epoch is its construction time, i.e. the
            # moment this process picked the item up — so recv is 0.0 on
            # the child timeline.
            result["trace"] = propagate.export_subtree(
                child, recv_at=0.0, done_at=child.now(), worker=worker
            )
    return result


def shard_outcome_error(error: BaseException) -> str:
    """Uniform error rendering for failed shard executions."""
    return f"{type(error).__name__}: {error}"


def worker_name(default: Optional[str] = None) -> str:
    """A human-traceable default worker name (host + pid)."""
    import os
    import socket

    if default:
        return default
    return f"{socket.gethostname()}-{os.getpid()}"
