"""The binary wire-frame codec: round-trip identity and defensive decode.

The frame format carries every block result on the wire (worker board)
and on disk (ShardStore v2 segments), so the gates here are exactness —
``decode(encode(x)) == x`` including bit-identical floats — and that no
malformed input, a frame with one changed bit included, ever escapes as
anything but :class:`FrameError`.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import pytest

import repro.distributed.frames as frames
from repro.distributed.frames import (
    FRAME_MAGIC,
    FRAME_VERSION,
    MIN_F8_LEN,
    FrameError,
    decode_frame,
    encode_frame,
)


def _sealed(body: bytes) -> bytes:
    """``body`` plus the CRC-32 trailer every frame ends with."""
    return body + struct.pack("<I", zlib.crc32(body))


def _block_payload(samples: int = 250, blocks: int = 2) -> dict:
    import numpy as np

    rng = np.random.default_rng(99)
    return {
        "results": [
            {
                "id": f"it-{i}",
                "shard": i,
                "blocks": [
                    {
                        "index": b,
                        "completion_times": [
                            float(t) for t in rng.normal(115.8, 38.6, samples)
                        ],
                        "stats": {"count": samples, "mean": 115.8},
                    }
                    for b in range(blocks)
                ],
            }
            for i in range(3)
        ]
    }


class TestRoundTrip:
    def test_block_result_payload_is_identity(self):
        payload = _block_payload()
        assert decode_frame(encode_frame(payload)) == payload

    def test_floats_round_trip_bit_identically(self):
        """Every representable double survives, including the awkward
        ones (denormals, -0.0, huge exponents, float precision edges)."""
        values = [
            0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, 2.2250738585072014e-308,
            math.pi, 1 / 3, 0.1, 115.82342196969803, float("inf"), -float("inf"),
        ]
        out = decode_frame(encode_frame({"v": values}))["v"]
        assert [struct.pack("<d", v) for v in out] == [
            struct.pack("<d", v) for v in values
        ]

    def test_short_lists_stay_inline(self):
        payload = {"few": [1.0, 2.0], "ints": [1, 2, 3]}
        frame = encode_frame(payload)
        # No pool: the count in the prefix is zero.
        _, _, _, f8_count = frames._PREFIX.unpack_from(frame, 0)
        assert f8_count == 0
        assert decode_frame(frame) == payload

    def test_root_list_payload_is_hoisted_and_restored(self):
        payload = [float(i) for i in range(MIN_F8_LEN)]
        assert decode_frame(encode_frame(payload)) == payload

    def test_int_pool_round_trip(self):
        """Long int lists (seed-block triples, counts) stay in the JSON
        tree and come back exactly, up to and past 64 bits."""
        payload = {"seeds": list(range(16)), "big": [(1 << 64) - 1] * 20}
        assert decode_frame(encode_frame(payload)) == payload

    def test_out_of_range_ints_stay_in_the_tree(self):
        payload = {"neg": [-1] * 20, "huge": [1 << 64] * 20}
        frame = encode_frame(payload)
        _, _, _, f8_count = frames._PREFIX.unpack_from(frame, 0)
        assert f8_count == 0
        assert decode_frame(frame) == payload

    def test_mixed_type_lists_stay_in_the_tree(self):
        payload = {"mixed": [1.0, 2.0, 3.0, "x"], "bools": [True] * 20}
        assert decode_frame(encode_frame(payload)) == payload

    def test_nested_hoists_under_dicts_and_lists(self):
        payload = {
            "a": [{"deep": [1.5] * 10}, {"deep": [2.5] * 10}],
            "b": {"c": {"d": [3.5] * 10}},
        }
        assert decode_frame(encode_frame(payload)) == payload

    def test_scalars_and_null_round_trip(self):
        for payload in (None, True, 0, 1.5, "text", {}, []):
            assert decode_frame(encode_frame(payload)) == payload

    def test_tuple_encodes_as_list(self):
        assert decode_frame(encode_frame({"t": (1.0, 2.0, 3.0, 4.0)})) == {
            "t": [1.0, 2.0, 3.0, 4.0]
        }


class TestCompressionPaths:
    def test_frames_beat_the_json_wire_rendering(self):
        payload = _block_payload()
        json_wire = (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()
        assert len(json_wire) / len(encode_frame(payload)) >= 3.0


class TestDefensiveDecode:
    def test_bad_magic(self):
        frame = bytearray(encode_frame({"a": 1}))
        frame[:4] = b"NOPE"
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(frame))

    def test_unsupported_version(self):
        frame = bytearray(encode_frame({"a": 1}))
        frame[4] = FRAME_VERSION + 1
        with pytest.raises(FrameError, match="version"):
            decode_frame(bytes(frame))

    def test_checksum_mismatch(self):
        frame = bytearray(encode_frame({"v": [1.5] * MIN_F8_LEN}))
        frame[-5] ^= 0x01  # the last pool byte: the float's sign
        with pytest.raises(FrameError, match="checksum"):
            decode_frame(bytes(frame))

    def test_every_single_bit_flip_is_frameerror(self):
        """One flipped bit anywhere — prefix, tree, pool or trailer — never
        decodes, so it can never become a different number."""
        frame = encode_frame({"v": [1.5, -2.25, 3e-300, 4.0], "n": [7, 8]})
        for index in range(len(frame)):
            for bit in range(8):
                flipped = bytearray(frame)
                flipped[index] ^= 1 << bit
                with pytest.raises(FrameError):
                    decode_frame(bytes(flipped))

    def test_trailing_bytes_are_frameerror(self):
        with pytest.raises(FrameError, match="prefix says"):
            decode_frame(encode_frame({"a": 1}) + b"\x00")

    def test_shorter_than_prefix(self):
        with pytest.raises(FrameError, match="prefix"):
            decode_frame(FRAME_MAGIC)

    @pytest.mark.parametrize("keep", [0.3, 0.6, 0.9, 0.99])
    def test_truncation_anywhere_raises_cleanly(self, keep):
        frame = encode_frame(_block_payload())
        with pytest.raises(FrameError):
            decode_frame(frame[: int(len(frame) * keep)])

    def test_every_prefix_length_is_frameerror_or_decodes(self):
        """Sweeping all truncations of a small frame: nothing escapes as
        struct/zlib/KeyError."""
        frame = encode_frame({"v": [1.5] * MIN_F8_LEN, "q": list(range(16))})
        for length in range(len(frame)):
            with pytest.raises(FrameError):
                decode_frame(frame[:length])

    def test_tree_that_is_not_a_wrapper(self):
        tree = json.dumps({"x": 1}).encode()
        frame = _sealed(frames._PREFIX.pack(FRAME_MAGIC, FRAME_VERSION, len(tree), 0) + tree)
        with pytest.raises(FrameError, match="wrapper"):
            decode_frame(frame)

    def test_tree_that_is_not_json(self):
        tree = b"not json"
        frame = _sealed(frames._PREFIX.pack(FRAME_MAGIC, FRAME_VERSION, len(tree), 0) + tree)
        with pytest.raises(FrameError):
            decode_frame(frame)

    def _hand_frame(self, wrapper: dict, f8_count: int, pool: bytes) -> bytes:
        tree = json.dumps(wrapper, separators=(",", ":")).encode()
        return _sealed(
            frames._PREFIX.pack(FRAME_MAGIC, FRAME_VERSION, len(tree), f8_count)
            + tree
            + pool
        )

    def test_out_of_range_pool_reference(self):
        pool = struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
        frame = self._hand_frame({"t": {"v": 0}, "f": [[["v"], 2, 4]]}, 4, pool)
        with pytest.raises(FrameError, match="out of range"):
            decode_frame(frame)

    def test_dangling_reference_path(self):
        pool = struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
        frame = self._hand_frame({"t": {"v": 0}, "f": [[["missing", 3], 0, 4]]}, 4, pool)
        with pytest.raises(FrameError, match="does not resolve"):
            decode_frame(frame)

    def test_malformed_reference_shape(self):
        pool = struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
        frame = self._hand_frame({"t": {"v": 0}, "f": [["v", 0]]}, 4, pool)
        with pytest.raises(FrameError, match="reference"):
            decode_frame(frame)

    def test_reference_table_not_a_list(self):
        pool = struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
        frame = self._hand_frame({"t": {"v": 0}, "f": {"v": 1}}, 4, pool)
        with pytest.raises(FrameError, match="reference table"):
            decode_frame(frame)

    def test_decode_does_not_retain_the_source_buffer(self, tmp_path):
        """An mmap-backed decode must release the buffer on return (the
        ShardStore closes the map immediately after)."""
        import mmap

        path = tmp_path / "one.seg"
        payload = _block_payload()
        path.write_bytes(encode_frame(payload))
        with open(path, "rb") as handle:
            with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
                with memoryview(mapped) as view:
                    out = decode_frame(view)
        # Leaving both context managers without BufferError is the test;
        # the decoded payload stays fully usable afterwards.
        assert out == payload
