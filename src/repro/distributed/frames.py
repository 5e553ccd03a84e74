"""Binary wire frames: the compact codec behind ``application/x-repro-frame``.

Block results are overwhelmingly lists of ``float64`` (completion-time
samples, exact-sum partials) wrapped in a thin JSON skeleton.  Rendering
those floats as decimal text — the JSON tax — costs ~3× the bytes and
~5-10× the decode time of the raw IEEE-754 words.  A *frame* splits the
payload accordingly:

* every homogeneous ``float`` list with at least :data:`MIN_F8_LEN`
  elements is hoisted into one shared little-endian ``float64`` pool;
* the remaining skeleton (the *tree*) is canonical JSON of a wrapper
  ``{"t": payload, "f": [[path, off, n], ...]}`` — hoisted lists are
  replaced in ``payload`` by a placeholder ``0`` and located by the
  ``f`` reference paths.  Keeping references *outside* the payload
  (instead of as in-tree marker objects) means decode is one plain
  C-speed ``json.loads`` plus a short patch loop — no per-object decoder
  hook — and payload dicts need no reserved keys;
* the byte layout is a fixed binary prefix, the two sections and a
  CRC-32 of every byte before it::

      "RPRF" | version u8 | tree_len u32 | f8_count u32 |
      tree bytes | float64 pool | CRC-32 u32

Float values round-trip bit-identically: raw words by construction,
inline text because ``repr``/``float`` round-trips exactly.  Integers
stay in the tree.

The module imports stdlib only — it sits on the numpy-free service path.

Decoding is defensive: the magic, the version, the exact length the
prefix implies and the CRC are all checked before ``json.loads`` sees a
byte, and a failing check (or a torn pool reference) raises
:class:`FrameError`, never an uncaught ``struct``/``KeyError``.  Callers
treat that as "not a frame": a miss in the shard store, an HTTP 400 on
the worker board.  A changed byte is never decoded into a different
number.
"""

from __future__ import annotations

import json
import struct
import zlib
from time import perf_counter
from typing import Any, List

from repro.obs.metrics import REGISTRY

#: MIME type of the worker board's claim/result bodies (Content-Type).
FRAME_CONTENT_TYPE = "application/x-repro-frame"

#: First bytes of every frame.
FRAME_MAGIC = b"RPRF"

#: Container layout version; bump on any incompatible change.
#:
#: History: 2 — one fixed layout, ending in a CRC-32.
FRAME_VERSION = 2

#: Float lists shorter than this stay inline JSON: a reference costs
#: ~14 tree bytes plus 8 pool bytes per value, which only beats decimal
#: text for full-precision doubles once a few values share the overhead.
MIN_F8_LEN = 4

_PREFIX = struct.Struct("<4sBII")
_CRC = struct.Struct("<I")

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


class FrameError(ValueError):
    """The bytes are not a well-formed frame (wrong magic, unknown
    version, wrong length, checksum mismatch, torn pool reference...)."""


def _extract(node: Any, path: List[Any], pool: List[float], refs: List[list]) -> Any:
    """Rebuild ``node`` with long homogeneous float lists hoisted into
    ``pool``, recording each hoist as ``[path, offset, count]`` and
    leaving a placeholder ``0`` in its place."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            path.append(key)
            out[key] = _extract(value, path, pool, refs)
            path.pop()
        return out
    if isinstance(node, (list, tuple)):
        items = list(node)
        if len(items) >= MIN_F8_LEN and all(type(value) is float for value in items):
            refs.append([list(path), len(pool), len(items)])
            pool.extend(items)
            return 0
        out = []
        for index, value in enumerate(items):
            path.append(index)
            out.append(_extract(value, path, pool, refs))
            path.pop()
        return out
    return node


def encode_frame(payload: Any) -> bytes:
    """Encode any JSON-expressible payload into one frame."""
    started = perf_counter()
    pool: List[float] = []
    refs: List[list] = []
    wrapper: dict = {"t": _extract(payload, [], pool, refs)}
    if refs:
        wrapper["f"] = refs
    tree = json.dumps(wrapper, sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix = _PREFIX.pack(FRAME_MAGIC, FRAME_VERSION, len(tree), len(pool))
    floats = struct.pack("<%dd" % len(pool), *pool)
    crc = zlib.crc32(floats, zlib.crc32(tree, zlib.crc32(prefix)))
    frame = b"".join([prefix, tree, floats, _CRC.pack(crc)])
    _ENCODE_BYTES.inc(len(frame))
    _ENCODE_SECONDS.observe(perf_counter() - started)
    return frame


def _patch_refs(payload: Any, refs: Any, pool: Any) -> Any:
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
            or offset + length > len(pool)
            or not isinstance(path, list)
        ):
            raise FrameError(f"pool reference {ref!r} is out of range")
        values = list(pool[offset : offset + length])
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
    view = memoryview(data)
    try:
        if len(view) < _PREFIX.size + _CRC.size:
            raise FrameError("frame shorter than its fixed prefix")
        magic, version, tree_len, f8_count = _PREFIX.unpack_from(view, 0)
        if magic != FRAME_MAGIC:
            raise FrameError(f"bad frame magic {bytes(magic)!r}")
        if version != FRAME_VERSION:
            raise FrameError(
                f"unsupported frame version {version} "
                f"(this codec speaks {FRAME_VERSION})"
            )
        pool_at = _PREFIX.size + tree_len
        end = pool_at + 8 * f8_count
        if end + _CRC.size != len(view):
            raise FrameError(
                f"frame is {len(view)} bytes, its prefix says {end + _CRC.size}"
            )
        if zlib.crc32(view[:end]) != _CRC.unpack_from(view, end)[0]:
            raise FrameError("frame checksum mismatch")
        wrapper = json.loads(bytes(view[_PREFIX.size : pool_at]))
        if not isinstance(wrapper, dict) or "t" not in wrapper:
            raise FrameError("frame tree is not a {'t': ...} wrapper")
        payload = wrapper["t"]
        if f8_count:
            pool = struct.unpack_from("<%dd" % f8_count, view, pool_at)
            payload = _patch_refs(payload, wrapper.get("f", []), pool)
    except FrameError:
        raise
    except (struct.error, ValueError, OverflowError) as exc:
        raise FrameError(f"malformed frame: {exc}") from exc
    _DECODE_BYTES.inc(len(view))
    _DECODE_SECONDS.observe(perf_counter() - started)
    return payload
