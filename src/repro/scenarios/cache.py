"""Content-addressed on-disk result store for scenario runs.

The cache directory contains one sub-directory per :func:`cache_key`
(sharded by the first two hex digits, the git object-store layout) holding

* ``meta.json`` — the spec that produced the result, the scalar outputs and
  the rendered text report, and
* ``arrays.npz`` — every array output, stored losslessly so a cache hit is
  bit-identical to the original computation.

:func:`cache_key` folds the package version and the spec's
execution-backend name into :attr:`ScenarioSpec.content_hash`: a new
release (which may change any kernel) or a different backend can never be
served a stale result computed by another.

The cache root is, in order of precedence, the ``root`` constructor
argument, the ``REPRO_CACHE_DIR`` environment variable, or
``~/.cache/repro``.

Every entry is checksummed: ``meta.json`` wraps its body in a
``{"crc32": ..., "meta": ...}`` envelope whose CRC-32 covers the body's
bytes as written, and the body records the byte size and CRC-32 of
``arrays.npz``.  Both are checked before ``json.loads`` or ``zipfile``
sees a byte, so a changed byte anywhere in an entry — like a torn,
partially-written or older-format entry — reads as a miss, which the next
store overwrites, never as a different number.

numpy is imported lazily, only where arrays are actually (de)serialized:
the metadata paths (:meth:`ResultCache.contains`, :meth:`ResultCache.peek`,
:meth:`ResultCache.find_hash`, :meth:`ResultCache.array_names`) never touch
the numerical stack, and a :meth:`ResultCache.get` hit parses an array
only when it is first read (:class:`CachedArrays`).  That keeps cache-hit
lookups — the CLI's cached re-runs and the results service built on
them — free of numpy/scipy.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import tempfile
import threading
import zipfile
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

from repro._version import __version__
from repro.obs.metrics import REGISTRY
from repro.scenarios.spec import ScenarioSpec

# One family shared with the shard store (same names, different `store`
# label) — repro.obs is stdlib-only, so these stay off the numpy path.
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

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Fallback cache root when neither argument nor environment specify one.
DEFAULT_CACHE_DIR = "~/.cache/repro"

#: Version of the on-disk entry layout; bumped on incompatible changes so
#: stale entries read as misses instead of loading garbage.
#:
#: History: 2 — ``meta.json`` records the producing package version and
#: execution backend; 3 — ``meta.json`` carries a CRC-32 of its body and
#: the size and CRC-32 of ``arrays.npz``.
CACHE_FORMAT_VERSION = 3

#: The fixed head of every ``meta.json``: the envelope's CRC-32 (of the
#: body bytes that follow it) in eight lower-case hex digits.  The file
#: ends with :data:`_META_TAIL`, closing the envelope.
_META_HEAD = b'{"crc32": "%08x", "meta": '
_META_HEAD_LEN = len(_META_HEAD % 0)
_META_TAIL = b"}\n"

#: The first bytes of every ``.npy`` member of ``arrays.npz``.
_NPY_MAGIC = b"\x93NUMPY"

#: What reading a torn or corrupt ``arrays.npz`` raises: zipfile's own
#: errors (bad CRC, no central directory, a short member) and what a
#: flipped header byte leads to (an undecodable name, an "encrypted" or
#: unknown-compression member, a bad deflate stream).  The file's CRC-32
#: is checked first, so only damage that keeps it (about 1 in 2**32) gets
#: this far, and it reads as a miss too.
_NPZ_ERRORS = (
    OSError,
    ValueError,
    EOFError,
    RuntimeError,
    zipfile.BadZipFile,
    zlib.error,
)


def _crc32_hex(data: bytes) -> str:
    return "%08x" % zlib.crc32(data)


def _seal_meta(meta: Dict[str, Any]) -> bytes:
    """The ``meta.json`` bytes for ``meta``: body plus its CRC-32."""
    body = json.dumps(meta, sort_keys=True, indent=1).encode("utf-8")
    return _META_HEAD % zlib.crc32(body) + body + _META_TAIL


def _open_meta(raw: bytes) -> Optional[Dict[str, Any]]:
    """The body of a sealed ``meta.json``, or ``None`` unless its envelope,
    its CRC-32 and its format version all check out."""
    body = raw[_META_HEAD_LEN : -len(_META_TAIL)]
    if (
        raw[:_META_HEAD_LEN] != _META_HEAD % zlib.crc32(body)
        or raw[-len(_META_TAIL) :] != _META_TAIL
    ):
        return None
    try:
        meta = json.loads(body)
    except ValueError:
        return None
    if not isinstance(meta, dict) or meta.get("format_version") != CACHE_FORMAT_VERSION:
        return None
    return meta


def cache_key(spec: ScenarioSpec) -> str:
    """The on-disk key for ``spec``: content hash salted with provenance.

    The salt covers the package version and the backend name (the backend
    is also inside the content hash, but keeping it visible in the key
    derivation makes the invalidation contract explicit): upgrading the
    package or switching kernels can never surface a result computed under
    the old code.
    """
    backend = getattr(spec, "backend", "reference")
    payload = f"{spec.content_hash}\nrepro=={__version__}\nbackend={backend}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class ScenarioResult:
    """Uniform, serializable outcome of one scenario run.

    Every runner kind reduces its artefact to the same three channels —
    ``scalars`` (headline numbers), ``arrays`` (the curves/samples behind
    them) and ``rendered`` (the plain-text report) — which is what makes
    results cacheable and comparable across kinds.
    """

    name: str
    kind: str
    spec_hash: str
    scalars: Dict[str, Any] = field(default_factory=dict)
    arrays: Mapping[str, np.ndarray] = field(default_factory=dict)
    rendered: str = ""
    runtime_seconds: float = 0.0
    from_cache: bool = False

    def render(self) -> str:
        """The plain-text report (mirrors the experiment drivers' API)."""
        return self.rendered

    def identical_to(self, other: "ScenarioResult") -> bool:
        """Bit-exact equality of the scientific content (not provenance)."""
        import numpy as np

        if (
            self.spec_hash != other.spec_hash
            or self.scalars != other.scalars
            or self.rendered != other.rendered
            or set(self.arrays) != set(other.arrays)
        ):
            return False
        return all(
            self.arrays[k].shape == other.arrays[k].shape
            and self.arrays[k].dtype == other.arrays[k].dtype
            and np.array_equal(self.arrays[k], other.arrays[k])
            for k in self.arrays
        )


class CachedArrays(Mapping):
    """The arrays of a cache hit: verified bytes, parsed on first access.

    Built from one read of ``arrays.npz`` that matched the size and
    CRC-32 recorded in ``meta.json``, so it no longer depends on the file:
    a later ``evict`` or ``put`` cannot change it.  Each array is parsed
    with ``np.load`` the first time it is read, and its bytes are dropped
    then; a hit whose arrays are never read imports no numpy.  Read-only;
    pickles and copies as a plain ``dict`` of arrays.
    """

    def __init__(self, members: Dict[str, bytes]) -> None:
        self._names = tuple(members)
        self._raw = dict(members)
        self._parsed: Dict[str, "np.ndarray"] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_npz(cls, data: bytes) -> "CachedArrays":
        """Verify an ``arrays.npz`` image; raises one of ``_NPZ_ERRORS``."""
        members: Dict[str, bytes] = {}
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            for info in archive.infolist():
                raw = archive.read(info)  # read to its end: CRC-checked
                name = info.filename
                if not name.endswith(".npy") or not raw.startswith(_NPY_MAGIC):
                    raise ValueError(f"{name!r} is not an .npy member")
                members[name[: -len(".npy")]] = raw
        return cls(members)

    def __getitem__(self, name: str) -> "np.ndarray":
        with self._lock:
            if name not in self._parsed:
                raw = self._raw.pop(name)
                import numpy as np

                self._parsed[name] = np.load(io.BytesIO(raw))
            return self._parsed[name]

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __reduce__(self):
        return dict, (dict(self.items()),)

    def __repr__(self) -> str:
        return f"CachedArrays({list(self._names)!r})"


class ResultCache:
    """Content-addressed store mapping spec hashes to :class:`ScenarioResult`."""

    def __init__(self, root: Union[None, str, Path] = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0

    # -- layout ------------------------------------------------------------

    def key_for(self, spec: ScenarioSpec) -> str:
        """The cache key of ``spec`` (see :func:`cache_key`)."""
        return cache_key(spec)

    def entry_dir(self, key: str) -> Path:
        """Directory holding the entry for cache key ``key``."""
        return self.root / key[:2] / key

    def contains(self, spec: ScenarioSpec) -> bool:
        """Whether a completed entry exists for this spec."""
        return (self.entry_dir(self.key_for(spec)) / "meta.json").is_file()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*/meta.json"))

    # -- store / load ------------------------------------------------------

    def put(self, spec: ScenarioSpec, result: ScenarioResult) -> Path:
        """Persist ``result`` under the spec's cache key (atomically)."""
        import numpy as np

        key = self.key_for(spec)
        entry = self.entry_dir(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(
            tempfile.mkdtemp(prefix=f".{key[:12]}-", dir=entry.parent)
        )
        try:
            arrays_npz = None
            if result.arrays:
                buffer = io.BytesIO()
                np.savez(buffer, **result.arrays)
                data = buffer.getvalue()
                (staging / "arrays.npz").write_bytes(data)
                arrays_npz = {"bytes": len(data), "crc32": _crc32_hex(data)}
            meta = {
                "format_version": CACHE_FORMAT_VERSION,
                "repro_version": __version__,
                "backend": getattr(spec, "backend", "reference"),
                "spec": spec.to_dict(),
                "spec_hash": spec.content_hash,
                "cache_key": key,
                "name": result.name,
                "kind": result.kind,
                "scalars": result.scalars,
                "rendered": result.rendered,
                "runtime_seconds": result.runtime_seconds,
                "arrays_npz": arrays_npz,
            }
            # meta.json is written last: its presence marks the entry complete.
            (staging / "meta.json").write_bytes(_seal_meta(meta))
            written_bytes = sum(
                p.stat().st_size for p in staging.iterdir() if p.is_file()
            )
            if entry.exists():
                shutil.rmtree(entry)
            try:
                staging.rename(entry)
            except OSError:
                # Lost a race against another process storing the same
                # content-addressed entry; its result is identical by
                # construction, so keep it and discard ours.
                if not (entry / "meta.json").is_file():
                    raise
                shutil.rmtree(staging, ignore_errors=True)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        _CACHE_WRITES.labels(store="result").inc()
        _CACHE_WRITE_BYTES.labels(store="result").inc(written_bytes)
        self._write_hash_index(spec.content_hash, key)
        return entry

    def load_meta(self, key: str) -> Optional[Dict[str, Any]]:
        """The ``meta.json`` payload stored under cache key ``key``.

        Returns ``None`` for missing, corrupt (failing its CRC-32) or
        incompatibly-formatted entries.  Reads no arrays and imports no
        numpy.
        """
        try:
            raw = (self.entry_dir(key) / "meta.json").read_bytes()
        except OSError:
            return None
        meta = _open_meta(raw)
        if meta is None:
            return None
        _CACHE_READ_BYTES.labels(store="result").inc(len(raw))
        return meta

    def load_arrays(
        self, key: str, meta: Optional[Dict[str, Any]] = None
    ) -> Optional[CachedArrays]:
        """The arrays stored under ``key``, or ``None`` if they are corrupt.

        The one ``arrays.npz`` reader: the file is read once and must
        match the size and CRC-32 its entry's ``meta.json`` (``meta``, or
        read here) records; its members must be ``.npy``.  The arrays are
        parsed on first access (:class:`CachedArrays`), so this imports
        no numpy.  An entry without arrays gives an empty mapping.
        """
        if meta is None:
            meta = self.load_meta(key)
            if meta is None:
                return None
        sealed = meta["arrays_npz"]
        if sealed is None:
            return CachedArrays({})
        try:
            data = (self.entry_dir(key) / "arrays.npz").read_bytes()
        except OSError:
            return None
        if len(data) != sealed["bytes"] or _crc32_hex(data) != sealed["crc32"]:
            return None
        try:
            arrays = CachedArrays.from_npz(data)
        except _NPZ_ERRORS:
            return None
        _CACHE_READ_BYTES.labels(store="result").inc(len(data))
        return arrays

    def array_names(self, key: str) -> Tuple[str, ...]:
        """Names of the arrays stored under ``key``, without parsing them.

        Empty when the entry has no arrays or its ``arrays.npz`` is
        corrupt — the service advertises available arrays on cache hits
        without importing numpy.
        """
        return tuple(sorted(self.load_arrays(key) or ()))

    def _hash_index_path(self, content_hash: str) -> Path:
        """Pointer file mapping a raw content hash to its cache key."""
        return self.root / "by-hash" / content_hash[:2] / content_hash

    def find_hash(self, content_hash: str) -> Optional[str]:
        """The cache key of an entry whose spec has ``content_hash``.

        The store is keyed by :func:`cache_key` (hash salted with package
        version), so a raw content hash — the identifier the HTTP results
        API exposes — is resolved through a pointer file written at
        :meth:`put` time (an O(1) read, kept honest by re-validating the
        target entry).  Entries that predate the index, or whose pointer
        was lost, fall back to a metadata scan that repairs the pointer;
        entries written by the current package version win over stale
        ones.
        """
        index = self._hash_index_path(content_hash)
        try:
            key = index.read_text().strip()
        except OSError:
            key = ""
        if key:
            meta = self.load_meta(key)
            if meta is not None and meta.get("spec_hash") == content_hash:
                return key

        matches = []
        for meta_path in sorted(self.root.glob("??/*/meta.json")):
            meta = self.load_meta(meta_path.parent.name)
            if meta is not None and meta.get("spec_hash") == content_hash:
                matches.append(meta)
        for meta in matches:
            if meta.get("repro_version") == __version__:
                self._write_hash_index(content_hash, meta["cache_key"])
                return meta["cache_key"]
        if matches:
            self._write_hash_index(content_hash, matches[0]["cache_key"])
            return matches[0]["cache_key"]
        return None

    def _write_hash_index(self, content_hash: str, key: str) -> None:
        index = self._hash_index_path(content_hash)
        try:
            index.parent.mkdir(parents=True, exist_ok=True)
            index.write_text(key)
        except OSError:
            pass  # the index is an accelerator; the scan path still works

    def _result_from_meta(
        self,
        meta: Dict[str, Any],
        spec: Optional[ScenarioSpec] = None,
        arrays: Optional[Mapping[str, "np.ndarray"]] = None,
    ) -> ScenarioResult:
        # The requesting spec's name wins over the stored one: renames keep
        # cached results valid (the name is excluded from the content hash),
        # and the caller should see the name it asked for.
        return ScenarioResult(
            name=spec.name if spec is not None else meta["name"],
            kind=meta["kind"],
            spec_hash=meta["spec_hash"],
            scalars=meta["scalars"],
            arrays=arrays or {},
            rendered=meta["rendered"],
            runtime_seconds=meta["runtime_seconds"],
            from_cache=True,
        )

    def peek(self, spec: ScenarioSpec) -> Optional[ScenarioResult]:
        """The cached result for ``spec`` *without* its arrays, or ``None``.

        A metadata-only read: scalars, the rendered report and provenance
        come back, ``result.arrays`` stays empty.  Never imports numpy —
        this is the fast path the results service serves cache hits from.
        """
        meta = self.load_meta(self.key_for(spec))
        if meta is None:
            self.misses += 1
            _CACHE_REQUESTS.labels(store="result", outcome="miss").inc()
            return None
        self.hits += 1
        _CACHE_REQUESTS.labels(store="result", outcome="hit").inc()
        return self._result_from_meta(meta, spec=spec)

    def get(self, spec: ScenarioSpec) -> Optional[ScenarioResult]:
        """Load the cached result for ``spec``, or ``None`` on a miss.

        A corrupt ``meta.json`` or ``arrays.npz`` — any byte that differs
        from what :meth:`put` wrote — is a miss.  The arrays come back
        verified but unparsed (:meth:`load_arrays`).
        """
        key = self.key_for(spec)
        meta = self.load_meta(key)
        arrays = None if meta is None else self.load_arrays(key, meta)
        if arrays is None:
            self.misses += 1
            _CACHE_REQUESTS.labels(store="result", outcome="miss").inc()
            return None
        self.hits += 1
        _CACHE_REQUESTS.labels(store="result", outcome="hit").inc()
        return self._result_from_meta(meta, spec=spec, arrays=arrays)

    # -- maintenance -------------------------------------------------------

    def evict(self, spec: ScenarioSpec) -> bool:
        """Drop the entry for ``spec``; returns whether one existed."""
        key = self.key_for(spec)
        entry = self.entry_dir(key)
        if not entry.exists():
            return False
        shutil.rmtree(entry)
        index = self._hash_index_path(spec.content_hash)
        try:
            if index.read_text().strip() == key:
                index.unlink()
        except OSError:
            pass
        return True

    def clear(self) -> int:
        """Drop every entry; returns the number removed."""
        removed = len(self)
        if self.root.is_dir():
            shutil.rmtree(self.root)
        return removed
