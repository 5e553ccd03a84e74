"""Binary wire frames: the compact codec behind ``application/x-repro-frame``.

Block results are overwhelmingly lists of ``float64`` (completion-time
samples, exact-sum partials) wrapped in a thin JSON skeleton.  Rendering
those floats as decimal text — the JSON tax — costs ~3× the bytes and
~5-10× the decode time of the raw IEEE-754 words.  A *frame* splits the
payload accordingly:

* every homogeneous ``float`` list with at least :data:`MIN_F8_LEN`
  elements is hoisted into one shared little-endian ``float64`` pool,
  every long non-negative ``int`` list into a ``uint64`` pool;
* the remaining skeleton (the *tree*) is canonical JSON of a wrapper
  ``{"t": payload, "f": [[path, off, n], ...], "q": [...]}`` — hoisted
  lists are replaced in ``payload`` by a placeholder ``0`` and located by
  the ``f``/``q`` reference paths.  Keeping references *outside* the
  payload (instead of as in-tree marker objects) means decode is one
  plain C-speed ``json.loads`` plus a short patch loop — no per-object
  decoder hook — and payload dicts need no reserved keys;
* the byte layout is a fixed binary prefix followed by the three
  sections::

      "RPRF" | version u8 | flags u8 | tree_len u32 | f8_count u32 |
      u8_count u32 | tree bytes | f8 pool | u8 pool

Two optional, independently flagged compressions keep the frame small
without giving back the decode speed:

* ``FLAG_TREE_ZLIB`` — the tree text is zlib-deflated (JSON skeletons
  compress 3-4×; the pool floats are *not* in the text, so this is cheap
  to undo);
* ``FLAG_F8_P7Z`` — the float pool is stored as each value's low seven
  bytes contiguously (``7·n`` bytes) plus the zlib-deflated top
  byte-plane.  For simulation samples the top byte (sign + high exponent
  bits) is nearly constant, so the plane deflates to almost nothing —
  ~12% off the pool for one small zlib call, instead of the ~10× slower
  whole-pool deflate.

Float values round-trip bit-identically in either representation: raw
words by construction, inline text because ``repr``/``float`` round-trips
exactly.  ``uint64`` covers every integer this codebase ships (counts,
seed-block triples); int lists outside that range simply stay in the tree.

The module imports stdlib only — it sits on the numpy-free service path —
but resolves numpy lazily inside the pool codec when available (workers
and the engine always have it; the byte-plane transforms are ~2× faster).

Decoding is defensive: malformed input (bad magic, unknown version or
flags, truncation, out-of-range pool references) raises
:class:`FrameError`, never an uncaught ``struct``/``zlib``/``KeyError`` —
callers treat that as "not a frame" (store miss, HTTP 400).
"""

from __future__ import annotations

import json
import struct
import zlib
from time import perf_counter
from typing import Any, List, Tuple

from repro.obs.metrics import REGISTRY

#: MIME type of the worker board's claim/result bodies (Content-Type).
FRAME_CONTENT_TYPE = "application/x-repro-frame"

#: First bytes of every frame.
FRAME_MAGIC = b"RPRF"

#: Container layout version; bump on any incompatible change.
FRAME_VERSION = 1

#: Float lists shorter than this stay inline JSON: a reference costs
#: ~14 tree bytes plus 8 pool bytes per value, which only beats decimal
#: text for full-precision doubles once a few values share the overhead.
MIN_F8_LEN = 4

#: Int lists shorter than this stay inline JSON (small ints are cheap as
#: text, so the bar is higher than for floats).
MIN_U8_LEN = 16

#: Tree text below this many bytes is stored raw.  The threshold is
#: deliberately high: a typical result-batch tree is 1-3 KB and costs more
#: decode microseconds to inflate than its ~70% text saving is worth next
#: to the (far larger) float pool; genuinely tree-heavy payloads — claim
#: replies carrying many work items — still compress.
TREE_ZLIB_MIN = 8192

#: Float pools below this many values skip the byte-plane split.
P7Z_MIN_COUNT = 64

#: zlib level used for both tree and byte-plane deflate.
ZLIB_LEVEL = 6

FLAG_TREE_ZLIB = 0x01
FLAG_F8_P7Z = 0x02
_KNOWN_FLAGS = FLAG_TREE_ZLIB | FLAG_F8_P7Z

_PREFIX = struct.Struct("<4sBBIII")
_U32 = struct.Struct("<I")

_FRAME_BYTES = REGISTRY.counter(
    "repro_frame_bytes_total",
    "Frame bytes produced (encode) and consumed (decode).",
    labelnames=("op",),
)
_FRAME_SECONDS = REGISTRY.histogram(
    "repro_frame_codec_seconds",
    "Time spent encoding/decoding binary frames.",
    labelnames=("op",),
)
_ENCODE_BYTES = _FRAME_BYTES.labels(op="encode")
_DECODE_BYTES = _FRAME_BYTES.labels(op="decode")
_ENCODE_SECONDS = _FRAME_SECONDS.labels(op="encode")
_DECODE_SECONDS = _FRAME_SECONDS.labels(op="decode")

_np: Any = False  # False = not probed yet; None = unavailable


def _numpy() -> Any:
    """numpy if importable, else ``None`` — resolved lazily so merely
    importing this module keeps the service's request path numpy-free."""
    global _np
    if _np is False:
        try:
            import numpy
        except Exception:  # pragma: no cover - numpy-free deployments
            numpy = None
        _np = numpy
    return _np


class FrameError(ValueError):
    """The bytes are not a well-formed frame (wrong magic, unknown
    version/flags, truncated section, torn pool reference...)."""


def is_frame(data: Any) -> bool:
    """Cheap sniff: do these bytes start like a frame?"""
    return (
        isinstance(data, (bytes, bytearray, memoryview))
        and bytes(data[:4]) == FRAME_MAGIC
    )


def _extract(
    node: Any,
    path: List[Any],
    f8: List[float],
    f8_refs: List[list],
    u8: List[int],
    u8_refs: List[list],
) -> Any:
    """Rebuild ``node`` with long homogeneous numeric lists hoisted into
    the pools, recording each hoist as ``[path, offset, count]`` and
    leaving a placeholder ``0`` in its place."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            path.append(key)
            out[key] = _extract(value, path, f8, f8_refs, u8, u8_refs)
            path.pop()
        return out
    if isinstance(node, (list, tuple)):
        items = list(node)
        if len(items) >= MIN_F8_LEN and all(
            type(value) is float for value in items
        ):
            f8_refs.append([list(path), len(f8), len(items)])
            f8.extend(items)
            return 0
        if len(items) >= MIN_U8_LEN and all(
            type(value) is int and 0 <= value < (1 << 64) for value in items
        ):
            u8_refs.append([list(path), len(u8), len(items)])
            u8.extend(items)
            return 0
        out = []
        for index, value in enumerate(items):
            path.append(index)
            out.append(_extract(value, path, f8, f8_refs, u8, u8_refs))
            path.pop()
        return out
    return node


def _pack_f8_pool(values: List[float]) -> Tuple[int, bytes]:
    """The float pool section and its flag bit (0 or :data:`FLAG_F8_P7Z`)."""
    count = len(values)
    np = _numpy()
    if np is not None:
        raw = np.asarray(values, dtype="<f8").tobytes()
    else:
        raw = struct.pack("<%dd" % count, *values)
    if count >= P7Z_MIN_COUNT:
        low = bytearray(raw)
        del low[7::8]  # drop every top byte -> low 7 bytes, value-major
        packed = zlib.compress(raw[7::8], ZLIB_LEVEL)
        if len(low) + _U32.size + len(packed) < len(raw):
            return FLAG_F8_P7Z, b"".join(
                [_U32.pack(len(packed)), bytes(low), packed]
            )
    return 0, raw


def _unpack_f8_pool(
    view: Any, offset: int, count: int, p7z: bool
) -> Tuple[Any, int]:
    """The float pool as a sliceable sequence plus the consumed length."""
    np = _numpy()
    if not p7z:
        nbytes = count * 8
        if offset + nbytes > len(view):
            raise FrameError("frame truncated inside its float pool")
        if np is not None:
            return np.frombuffer(view, dtype="<f8", count=count, offset=offset), nbytes
        return struct.unpack_from("<%dd" % count, view, offset), nbytes
    if offset + _U32.size > len(view):
        raise FrameError("frame truncated before its float-pool plane")
    (packed_len,) = _U32.unpack_from(view, offset)
    low_len = count * 7
    nbytes = _U32.size + low_len + packed_len
    if offset + nbytes > len(view):
        raise FrameError("frame truncated inside its float pool")
    low_off = offset + _U32.size
    high = zlib.decompress(view[low_off + low_len : offset + nbytes])
    if len(high) != count:
        raise FrameError("float-pool top plane inflates to the wrong size")
    if np is not None:
        # Read each value's low seven bytes as a stride-7 u64 load (the
        # pad byte keeps the final load in bounds), mask off the stray
        # neighbour byte and graft the decompressed top plane back on.
        padded = np.empty(low_len + 1, dtype=np.uint8)
        padded[:low_len] = np.frombuffer(
            view, dtype=np.uint8, count=low_len, offset=low_off
        )
        words = np.ndarray(
            shape=(count,), dtype="<u8", buffer=padded, strides=(7,)
        )
        vals = (words & np.uint64((1 << 56) - 1)) | (
            np.frombuffer(high, dtype=np.uint8).astype("<u8") << np.uint64(56)
        )
        return vals.view("<f8"), nbytes
    low = bytes(view[low_off : low_off + low_len])
    raw = bytearray(count * 8)
    for plane in range(7):
        raw[plane::8] = low[plane::7]
    raw[7::8] = high
    return struct.unpack("<%dd" % count, bytes(raw)), nbytes


def encode_frame(payload: Any) -> bytes:
    """Encode any JSON-expressible payload into one frame."""
    started = perf_counter()
    f8: List[float] = []
    u8: List[int] = []
    f8_refs: List[list] = []
    u8_refs: List[list] = []
    tree = _extract(payload, [], f8, f8_refs, u8, u8_refs)
    wrapper: dict = {"t": tree}
    if f8_refs:
        wrapper["f"] = f8_refs
    if u8_refs:
        wrapper["q"] = u8_refs
    tree_bytes = json.dumps(
        wrapper, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    flags = 0
    if len(tree_bytes) >= TREE_ZLIB_MIN:
        packed = zlib.compress(tree_bytes, ZLIB_LEVEL)
        if len(packed) < len(tree_bytes):
            tree_bytes = packed
            flags |= FLAG_TREE_ZLIB
    sections = [tree_bytes]
    if f8:
        f8_flag, pool = _pack_f8_pool(f8)
        flags |= f8_flag
        sections.append(pool)
    if u8:
        np = _numpy()
        if np is not None:
            sections.append(np.asarray(u8, dtype="<u8").tobytes())
        else:
            sections.append(struct.pack("<%dQ" % len(u8), *u8))
    frame = b"".join(
        [
            _PREFIX.pack(
                FRAME_MAGIC,
                FRAME_VERSION,
                flags,
                len(tree_bytes),
                len(f8),
                len(u8),
            )
        ]
        + sections
    )
    _ENCODE_BYTES.inc(len(frame))
    _ENCODE_SECONDS.observe(perf_counter() - started)
    return frame


def _patch_refs(
    payload: Any, refs: Any, pool: Any, count: int, numpy_pool: bool
) -> Any:
    """Splice pool slices back into ``payload`` at each reference path.

    Returns the (possibly replaced) payload — a hoisted *root* list has an
    empty path and substitutes the payload itself.
    """
    if not isinstance(refs, list):
        raise FrameError(f"malformed frame reference table {refs!r}")
    for ref in refs:
        try:
            path, offset, length = ref
        except (TypeError, ValueError) as exc:
            raise FrameError(f"malformed pool reference {ref!r}") from exc
        if (
            type(offset) is not int
            or type(length) is not int
            or offset < 0
            or length < 0
            or offset + length > count
            or not isinstance(path, list)
        ):
            raise FrameError(f"pool reference {ref!r} is out of range")
        part = pool[offset : offset + length]
        values = part.tolist() if numpy_pool else list(part)
        try:
            if not path:
                payload = values
                continue
            parent = payload
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = values
        except (KeyError, IndexError, TypeError) as exc:
            raise FrameError(
                f"pool reference path {path!r} does not resolve"
            ) from exc
    return payload


def decode_frame(data: Any) -> Any:
    """Decode one frame back to its payload; :class:`FrameError` on any
    malformed input."""
    started = perf_counter()
    view = data if isinstance(data, bytes) else memoryview(data)
    try:
        if len(view) < _PREFIX.size:
            raise FrameError("frame shorter than its fixed prefix")
        magic, version, flags, tree_len, f8_count, u8_count = (
            _PREFIX.unpack_from(view, 0)
        )
        if magic != FRAME_MAGIC:
            raise FrameError(f"bad frame magic {bytes(magic)!r}")
        if version != FRAME_VERSION:
            raise FrameError(
                f"unsupported frame version {version} "
                f"(this codec speaks {FRAME_VERSION})"
            )
        if flags & ~_KNOWN_FLAGS:
            raise FrameError(f"unknown frame flags 0x{flags:02x}")
        offset = _PREFIX.size
        if offset + tree_len > len(view):
            raise FrameError("frame truncated inside its tree")
        tree_bytes = bytes(view[offset : offset + tree_len])
        offset += tree_len
        if flags & FLAG_TREE_ZLIB:
            tree_bytes = zlib.decompress(tree_bytes)

        if f8_count:
            f8_pool, consumed = _unpack_f8_pool(
                view, offset, f8_count, bool(flags & FLAG_F8_P7Z)
            )
            offset += consumed
        else:
            f8_pool = ()
        if u8_count:
            nbytes = u8_count * 8
            if offset + nbytes > len(view):
                raise FrameError("frame truncated inside its int pool")
            u8_pool: Any = struct.unpack_from("<%dQ" % u8_count, view, offset)
            offset += nbytes
        else:
            u8_pool = ()

        wrapper = json.loads(tree_bytes)
        if not isinstance(wrapper, dict) or "t" not in wrapper:
            raise FrameError("frame tree is not a {'t': ...} wrapper")
        payload = wrapper["t"]
        if f8_count:
            numpy_pool = _numpy() is not None
            payload = _patch_refs(
                payload, wrapper.get("f", []), f8_pool, f8_count, numpy_pool
            )
        if u8_count:
            payload = _patch_refs(
                payload, wrapper.get("q", []), u8_pool, u8_count, False
            )
        # Nothing retains the pools past this point: slices were copied
        # out by tolist()/list(), so a zero-copy source buffer (e.g. an
        # mmap) is free to close as soon as this function returns.
        del f8_pool, u8_pool
    except FrameError:
        raise
    except (struct.error, zlib.error, ValueError, OverflowError) as exc:
        raise FrameError(f"malformed frame: {exc}") from exc
    _DECODE_BYTES.inc(len(view))
    _DECODE_SECONDS.observe(perf_counter() - started)
    return payload
