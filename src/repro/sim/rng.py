"""Reproducible random-number stream management.

Every stochastic component of the model (per-node service process, per-node
failure/recovery process, the transfer channel, the workload generator, ...)
draws from its *own* named stream.  Streams are spawned from a single root
seed with :class:`numpy.random.SeedSequence`, so

* a simulation is fully reproducible from one integer seed,
* changing the number of draws made by one component does not perturb the
  variates seen by any other component (common random numbers across policy
  comparisons), and
* Monte-Carlo realisations can be distributed over processes without stream
  overlap.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

SeedLike = Union[None, int, np.random.SeedSequence]

#: Standard exponential variates fetched per NumPy call by
#: :func:`exponential_draws`.
EXPONENTIAL_CHUNK = 64


class RandomStreams:
    """A collection of independent, named random-number generators.

    Parameters
    ----------
    seed:
        Root seed (``None`` draws entropy from the OS).

    Examples
    --------
    >>> streams = RandomStreams(42)
    >>> service = streams.stream("node-0.service")
    >>> failure = streams.stream("node-0.failure")
    >>> service is streams.stream("node-0.service")
    True
    """

    def __init__(self, seed: SeedLike = None) -> None:
        if isinstance(seed, np.random.SeedSequence):
            self._root = seed
        else:
            self._root = np.random.SeedSequence(seed)
        self._spawn_key = tuple(self._root.spawn_key)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed_sequence(self) -> np.random.SeedSequence:
        """The root seed sequence; spawning from it advances this collection."""
        return self._root

    @property
    def root_entropy(self) -> tuple:
        """Entropy of the root seed sequence (for logging/reproduction)."""
        entropy = self._root.entropy
        if isinstance(entropy, (list, tuple)):
            return tuple(entropy)
        return (entropy,)

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The generator for a given ``(root seed, name)`` pair is always the
        same, regardless of the order in which streams are requested.
        """
        generator = self._streams.get(name)
        if generator is None:
            # Derive a child seed from the root seed sequence and a stable
            # hash of the stream name so that creation order is irrelevant.
            # The root's own spawn_key is preserved: streams spawned from
            # different Monte-Carlo children stay independent even though
            # they share the same entropy.
            per_name = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=self._spawn_key + _name_key(name),
            )
            generator = self._streams[name] = np.random.default_rng(per_name)
        return generator

    def spawn(self, count: int) -> List["RandomStreams"]:
        """Spawn ``count`` independent child collections (for MC workers)."""
        return [RandomStreams(seq) for seq in self._root.spawn(count)]

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __iter__(self) -> Iterator[str]:
        return iter(self._streams)

    def __len__(self) -> int:
        return len(self._streams)

    def names(self) -> Iterable[str]:
        """Names of the streams created so far."""
        return tuple(self._streams)


def hash_name(name: str) -> int:
    """Stable (process-independent) 32-bit hash of a stream name.

    Python's built-in ``hash`` for strings is salted per process, which would
    break reproducibility across runs, so a small FNV-1a implementation is
    used instead.
    """
    value = 2166136261
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 16777619) & 0xFFFFFFFF
    return value


@lru_cache(maxsize=1024)
def _name_key(name: str) -> Tuple[int, int]:
    """The spawn-key suffix of stream ``name`` (a pure function of it)."""
    digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
    key = int(digest.sum()) * 1_000_003 + len(name) * 7_919
    return hash_name(name), key


def exponential_draws(rng: np.random.Generator) -> Callable[[float], float]:
    """A ``draw(scale)`` function equal to ``float(rng.exponential(scale))``.

    NumPy computes ``exponential(scale)`` as ``scale *
    standard_exponential()``, so taking the standard variates
    :data:`EXPONENTIAL_CHUNK` at a time and scaling them one by one yields
    the same numbers in the same order, at a fraction of NumPy's per-call
    cost.  Each chunk is drawn ahead of use (the first on the first call),
    so ``rng`` must serve nothing but these draws.
    """
    chunk: List[float] = []

    def draw(scale: float) -> float:
        if not chunk:
            chunk.extend(rng.standard_exponential(EXPONENTIAL_CHUNK)[::-1].tolist())
        return scale * chunk.pop()

    return draw


def spawn_seeds(seed: SeedLike, count: int) -> List[np.random.SeedSequence]:
    """Spawn ``count`` independent seed sequences from ``seed``."""
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return root.spawn(count)
