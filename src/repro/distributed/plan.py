"""Shard planning: seed blocks, shard partitioning, shard-cache keys.

The unit of randomness and of shard-level caching is the **seed block**: a
fixed-size contiguous range of realisations whose random streams derive
from the master seed and the *block index alone*.  Shards — the work items
the scheduler dispatches to executors and remote workers — are contiguous
groups of blocks.  Because the sample drawn for block ``j`` never depends
on how blocks are grouped, the merged ensemble is bit-identical for any
shard count, and a block computed under one shard count is a cache hit
under every other.

Block cache keys derive from a *plan key*: the spec's canonical form minus
its name, realisation count and shard configuration, salted with the
package version and backend exactly like :func:`repro.scenarios.cache
.cache_key`.  Dropping ``mc_realisations`` from the key is what makes
"add realisations to a cached scenario" a delta computation — the old
blocks keep their keys and only the new (or resized final) blocks run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.sim.rng import SeedLike

from repro._version import __version__
from repro.scenarios.spec import ScenarioSpec

#: Schema version of the shard plan (block seeding + key derivation); a bump
#: invalidates every block-cache entry.
SHARD_FORMAT_VERSION = 1

#: Spawn-key tag separating block seed streams from every other consumer of
#: the master seed sequence (per-realisation spawns use bare indices, named
#: streams use hashed tags — see :mod:`repro.sim.rng`).
BLOCK_SPAWN_TAG = 0x5EED_B10C


@dataclass(frozen=True)
class SeedBlock:
    """One fixed-size range of realisations with its own seed stream."""

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.index < 0 or self.start < 0 or self.stop <= self.start:
            raise ValueError(f"malformed seed block {self!r}")

    @property
    def num_realisations(self) -> int:
        return self.stop - self.start

    def to_item(self) -> Tuple[int, int, int]:
        """Compact JSON form used in work items: ``[index, start, stop]``."""
        return (self.index, self.start, self.stop)

    @classmethod
    def from_item(cls, item: Sequence[int]) -> "SeedBlock":
        index, start, stop = item
        return cls(index=int(index), start=int(start), stop=int(stop))


@dataclass(frozen=True)
class Shard:
    """A contiguous group of seed blocks — one schedulable work item."""

    index: int
    blocks: Tuple[SeedBlock, ...]

    @property
    def num_realisations(self) -> int:
        return sum(block.num_realisations for block in self.blocks)

    @property
    def block_indices(self) -> Tuple[int, ...]:
        return tuple(block.index for block in self.blocks)


def plan_blocks(num_realisations: int, block_size: int) -> Tuple[SeedBlock, ...]:
    """Partition ``num_realisations`` into fixed-size seed blocks."""
    if num_realisations < 1:
        raise ValueError(
            f"num_realisations must be >= 1, got {num_realisations!r}"
        )
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size!r}")
    return tuple(
        SeedBlock(index=j, start=start, stop=min(start + block_size, num_realisations))
        for j, start in enumerate(range(0, num_realisations, block_size))
    )


#: Shards cut per executor slot when no shard count is pinned: enough
#: surplus for the least-loaded scheduler to steer around a slow slot,
#: without one dispatch per block.
SHARDS_PER_SLOT = 4


def plan_shards(blocks: Sequence[SeedBlock], num_shards: int) -> Tuple[Shard, ...]:
    """Group ``blocks`` into at most ``num_shards`` contiguous, even shards.

    The shard count is capped at the block count (a shard with no work is
    pointless) and the first ``len(blocks) % shards`` shards take one extra
    block, so shard sizes differ by at most one block.  Grouping never
    touches a block's identity or seed stream, so every shard count merges
    to the same sample.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards!r}")
    blocks = tuple(blocks)
    if not blocks:
        return ()
    num_shards = min(num_shards, len(blocks))
    base, extra = divmod(len(blocks), num_shards)
    shards = []
    cursor = 0
    for index in range(num_shards):
        take = base + (1 if index < extra else 0)
        shards.append(Shard(index=index, blocks=blocks[cursor : cursor + take]))
        cursor += take
    return tuple(shards)


def block_seed(master: "SeedLike", index: int) -> "np.random.SeedSequence":
    """The seed sequence of block ``index`` under master seed ``master``.

    Extends the master's spawn key with ``(BLOCK_SPAWN_TAG, index)``, so the
    block stream depends only on the master seed and the block index —
    never on shard grouping — and cannot collide with per-realisation or
    named-stream spawns from the same master.
    """
    import numpy as np

    root = (
        master
        if isinstance(master, np.random.SeedSequence)
        else np.random.SeedSequence(master)
    )
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=tuple(root.spawn_key) + (BLOCK_SPAWN_TAG, index),
    )


def shard_plan_key(spec: ScenarioSpec) -> str:
    """The sharding-invariant identity of a spec's seed-block universe.

    Everything that changes the per-block sample is in: system, workload,
    policy, seed, backend, package version, shard format.  Everything that
    merely changes how blocks are *grouped or counted* is out: ``name``,
    ``mc_realisations``, ``shards``.  ``shard_block`` is dropped too — a
    block's identity already carries its range, so differently-sized blocks
    can never alias.
    """
    payload = spec.to_dict()
    for key in ("name", "mc_realisations", "shards", "shard_block"):
        payload.pop(key, None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    salted = (
        f"{hashlib.sha256(canonical.encode('utf-8')).hexdigest()}"
        f"\nrepro=={__version__}"
        f"\nbackend={spec.backend}"
        f"\nshard-format={SHARD_FORMAT_VERSION}"
    )
    return hashlib.sha256(salted.encode("utf-8")).hexdigest()


def block_key(plan_key: str, block: SeedBlock) -> str:
    """The shard-cache key of one seed block under ``plan_key``."""
    payload = f"{plan_key}:block={block.index}:range={block.start}-{block.stop}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
