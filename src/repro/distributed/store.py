"""Content-addressed store for completed seed blocks (shard-level caching).

A much lighter cousin of :class:`repro.scenarios.cache.ResultCache`,
keyed by :func:`repro.distributed.plan.block_key`.  Blocks are appended
as binary frames (:mod:`repro.distributed.frames`) to per-writer segment
files under ``segments/``, one ``<writer>.seg`` data file plus a
``<writer>.idx`` sidecar holding one JSON line per entry
(``{"key", "offset", "length"}``).  Reads memory-map the segment and
decode the referenced byte range directly — re-sharding and delta growth
become near-zero-copy buffer reads instead of one ``json.loads`` per
block.  Appends are crash-safe by ordering: the frame is written and
flushed before its index line, so a torn write leaves either an
unreferenced frame or a partial (newline-less) index line, both of which
readers skip.

Every stored frame carries a CRC-32 of its bytes and its own key, so a
changed byte anywhere in a segment — or an index line pointing at the
wrong bytes — reads as a miss, never as a different block; the index
lines need no checksum of their own.  Anything else under the store root
(e.g. per-block JSON documents or frames from older releases) is ignored
the same way: a miss recomputes the block bit-identically.

The store lives under ``<cache root>/shards/`` so evicting the scenario
cache and the shard cache together is one directory removal, and shares
the same root resolution (``root`` argument → ``REPRO_CACHE_DIR`` →
``~/.cache/repro``).  ``hits``/``misses`` counters make cache-reuse
assertions (resume, delta-computation) direct.
"""

from __future__ import annotations

import json
import mmap
import os
import shutil
import threading
import uuid
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.distributed.frames import FrameError, decode_frame, encode_frame
from repro.obs.metrics import REGISTRY
from repro.scenarios.cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR

# Shared families with the scenario result cache — distinguished by the
# `store` label ("shard" here, "result" there).
_CACHE_REQUESTS = REGISTRY.counter(
    "repro_cache_requests_total",
    "Cache lookups by store and outcome.",
    labelnames=("store", "outcome"),
)
_CACHE_WRITES = REGISTRY.counter(
    "repro_cache_writes_total",
    "Cache entries written, by store.",
    labelnames=("store",),
)
_CACHE_WRITE_BYTES = REGISTRY.counter(
    "repro_cache_write_bytes_total",
    "Bytes written into the cache, by store.",
    labelnames=("store",),
)
_CACHE_READ_BYTES = REGISTRY.counter(
    "repro_cache_read_bytes_total",
    "Bytes read back out of the cache, by store.",
    labelnames=("store",),
)

#: Version of the block payload layout; mismatches read as misses.
BLOCK_FORMAT_VERSION = 1

_SEGMENT_DIR = "segments"


class ShardStore:
    """On-disk map from block keys to block result payloads."""

    def __init__(self, root: Union[None, str, Path] = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = Path(root).expanduser() / "shards"
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        # key -> (segment path, offset, length); lazily rebuilt from the
        # .idx sidecars, tracking how many bytes of each are consumed so
        # concurrent writers only cost an incremental re-read.
        self._index: Dict[str, Tuple[Path, int, int]] = {}
        self._idx_consumed: Dict[str, int] = {}
        self._segment: Optional[Path] = None

    # -- paths -------------------------------------------------------------

    @property
    def segment_dir(self) -> Path:
        return self.root / _SEGMENT_DIR

    def _writer_segment(self) -> Path:
        """This instance's append-only segment (one per writer, so
        concurrent processes never contend on a file)."""
        if self._segment is None:
            name = f"{os.getpid():06d}-{uuid.uuid4().hex[:8]}"
            self._segment = self.segment_dir / f"{name}.seg"
        return self._segment

    # -- the index ---------------------------------------------------------

    def _refresh_index(self) -> None:
        """Fold any new index lines into the in-memory key map.

        Only complete (newline-terminated) lines are consumed; a torn
        final line — a writer mid-append or a crash — stays pending, so
        it is re-read once completed and never mis-parsed.  Corrupt
        complete lines are skipped.  Within a sidecar, later entries for
        a key win (append order); sidecars are folded in sorted order.
        """
        segment_dir = self.segment_dir
        if not segment_dir.is_dir():
            return
        for idx_path in sorted(segment_dir.glob("*.idx")):
            try:
                size = idx_path.stat().st_size
            except OSError:
                continue
            consumed = self._idx_consumed.get(idx_path.name, 0)
            if size <= consumed:
                continue
            try:
                with open(idx_path, "rb") as handle:
                    handle.seek(consumed)
                    pending = handle.read()
            except OSError:
                continue
            segment = idx_path.with_suffix(".seg")
            complete, newline, _tail = pending.rpartition(b"\n")
            if not newline:
                continue
            for line in complete.split(b"\n"):
                try:
                    entry = json.loads(line)
                    key = entry["key"]
                    offset = int(entry["offset"])
                    length = int(entry["length"])
                except (ValueError, KeyError, TypeError):
                    continue  # torn or corrupt entry: skip, never raise
                if isinstance(key, str) and offset >= 0 and length > 0:
                    self._index[key] = (segment, offset, length)
            self._idx_consumed[idx_path.name] = consumed + len(complete) + 1

    def _read(self, key: str) -> Optional[Dict[str, Any]]:
        if key not in self._index:
            self._refresh_index()
        located = self._index.get(key)
        if located is None:
            return None
        segment, offset, length = located
        try:
            with open(segment, "rb") as handle:
                with mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                ) as mapped:
                    if offset + length > len(mapped):
                        return None  # truncated segment: clean miss
                    with memoryview(mapped) as view:
                        try:
                            payload = decode_frame(view[offset : offset + length])
                        except FrameError:
                            # Convert to a miss *inside* the mapping scope:
                            # a propagating exception would pin the
                            # memoryview exports via its traceback and make
                            # the mmap close itself raise BufferError.
                            return None
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format_version") != BLOCK_FORMAT_VERSION
            or payload.get("key") != key
        ):
            return None
        _CACHE_READ_BYTES.labels(store="shard").inc(length)
        return payload["block"]

    # -- the public map ----------------------------------------------------

    def __len__(self) -> int:
        self._refresh_index()
        return len(self._index)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored block payload, or ``None`` (missing/corrupt/stale)."""
        block = self._read(key)
        if block is None:
            self.misses += 1
            _CACHE_REQUESTS.labels(store="shard", outcome="miss").inc()
            return None
        self.hits += 1
        _CACHE_REQUESTS.labels(store="shard", outcome="hit").inc()
        return block

    def put(self, key: str, block: Dict[str, Any]) -> Path:
        """Append one block payload to this writer's segment.

        Crash-safe by ordering (frame before index line); later appends
        for the same key shadow earlier ones.
        """
        frame = encode_frame(
            {"format_version": BLOCK_FORMAT_VERSION, "key": key, "block": block}
        )
        with self._lock:
            segment = self._writer_segment()
            segment.parent.mkdir(parents=True, exist_ok=True)
            with open(segment, "ab") as handle:
                handle.seek(0, os.SEEK_END)
                offset = handle.tell()
                handle.write(frame)
            line = (
                json.dumps(
                    {"key": key, "offset": offset, "length": len(frame)},
                    sort_keys=True,
                )
                + "\n"
            ).encode("utf-8")
            with open(segment.with_suffix(".idx"), "ab") as handle:
                handle.write(line)
            self._index[key] = (segment, offset, len(frame))
        _CACHE_WRITES.labels(store="shard").inc()
        _CACHE_WRITE_BYTES.labels(store="shard").inc(len(frame) + len(line))
        return segment

    def clear(self) -> int:
        """Drop every block (the whole store root); returns the number of
        keys removed."""
        removed = len(self)
        shutil.rmtree(self.root, ignore_errors=True)
        with self._lock:
            self._index.clear()
            self._idx_consumed.clear()
            self._segment = None
        return removed
