"""Block-wise scale grids and shard quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qarsim.numerics import Codec, decode
from qarsim.quant import (
    GRID_BYTES,
    QuantizedShard,
    absmax_grid,
    dequantize_shard,
    quantize_shard,
    scales_from_absmax,
)


def test_two_chunk_shared_scale_example():
    # absmax 2 across both chunks at (0,0): scale 2/127, so 1 encodes to
    # rint(63.5) = 64 and returns as 128/127
    chunks = np.zeros((2, 8, 128), dtype=np.float32)
    chunks[0, 0, 0] = -2.0
    chunks[1, 0, 0] = 1.0
    q = quantize_shard(chunks, Codec.INT8)
    scale = q.grid[0, 0]
    assert scale == np.float32(2.0 / 127.0)
    codes = q.payload.view(np.int8)
    assert codes[0, 0, 0] == -127
    assert codes[1, 0, 0] == 64
    back = dequantize_shard(q)
    assert back[0, 0, 0] == np.float32(-2.0)
    assert back[1, 0, 0] == np.float32(64) * scale


def test_all_ones_scale():
    chunks = np.ones((4, 8, 128), dtype=np.float32)
    q = quantize_shard(chunks, Codec.INT8)
    assert np.all(q.grid == np.float32(1.0 / 127.0))
    assert np.all(q.payload.view(np.int8) == 127)


def test_zero_column_scale_is_one():
    chunks = np.zeros((2, 8, 128), dtype=np.float32)
    chunks[:, :, 64:] = 3.0
    q = quantize_shard(chunks, Codec.INT8)
    grid = q.grid
    assert np.all(grid[:, :64] == 1.0)  # empty positions quantize as identity
    assert np.all(grid[:, 64:] == np.float32(3.0 / 127.0))
    codes = q.payload.view(np.int8)
    assert np.all(codes[:, :, :64] == 0)
    assert np.all(codes[:, :, 64:] == 127)


def test_64_chunk_scan_example():
    # chunk c carries value c at position (0,0): absmax there is 63
    chunks = np.zeros((64, 8, 128), dtype=np.float32)
    chunks[:, 0, 0] = np.arange(64, dtype=np.float32)
    grid = quantize_shard(chunks, Codec.INT8).grid
    assert grid[0, 0] == np.float32(63.0 / 127.0)
    assert np.all(grid.reshape(-1)[1:] == 1.0)


def test_partial_scan_merge_matches_full_scan():
    rng = np.random.default_rng(3)
    chunks = rng.standard_normal((8, 8, 128)).astype(np.float32)
    chunks[:, 2, :] = 0.0  # a position that stays empty in every partial scan
    full = quantize_shard(chunks, Codec.INT8).grid
    partial = np.maximum(absmax_grid(chunks[:3]), absmax_grid(chunks[3:]))
    merged = scales_from_absmax(partial, Codec.INT8)
    assert np.array_equal(full, merged)
    # merging in a different split order changes nothing
    pieces = [absmax_grid(chunks[i : i + 2]) for i in range(0, 8, 2)]
    acc = pieces[2]
    for p in (pieces[0], pieces[3], pieces[1]):
        acc = np.maximum(acc, p)
    assert np.array_equal(scales_from_absmax(acc, Codec.INT8), full)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_int8_error_within_half_scale(seed):
    rng = np.random.default_rng(seed)
    chunks = (rng.standard_normal((4, 8, 128)) * rng.uniform(0.01, 100)).astype(np.float32)
    q = quantize_shard(chunks, Codec.INT8)
    back = dequantize_shard(q)
    # one f32 rounding of the quotient can push past the exact half-scale bound
    bound = q.grid * (0.5 + 1e-5)
    assert np.all(np.abs(back - chunks) <= bound)


def test_finer_blocks_do_not_hurt():
    rng = np.random.default_rng(11)
    # heavy-tailed data rewards finer scale granularity
    chunks = (rng.standard_normal((8, 8, 128)) ** 3).astype(np.float32)
    e = {}
    for m in (1, 2, 4):
        # one message, so one scale grid, per minishard
        back = np.concatenate([dequantize_shard(quantize_shard(mini, Codec.INT8))
                               for mini in np.split(chunks, m)])
        e[m] = float(np.mean((back - chunks) ** 2))
    assert e[2] <= e[1]
    assert e[4] <= e[2]


def test_block_independence():
    rng = np.random.default_rng(5)
    chunks = rng.standard_normal((4, 8, 128)).astype(np.float32)
    bumped = chunks.copy()
    bumped[0, 0, 0] = 1e4  # only minishard 0 sees this
    q1, q2 = ([quantize_shard(mini, Codec.INT8) for mini in np.split(x, 2)]
              for x in (chunks, bumped))
    assert np.array_equal(q1[1].payload, q2[1].payload)
    assert np.array_equal(q1[1].grid, q2[1].grid)
    assert not np.array_equal(q1[0].grid, q2[0].grid)


def test_wire_bytes_counts_payload_plus_grids():
    chunks = np.zeros((4, 8, 128), dtype=np.float32)
    q = quantize_shard(chunks, Codec.INT8)
    assert GRID_BYTES == 8 * 128 * 4
    assert q.wire_bytes == 4 * 1024 + GRID_BYTES


def test_fp8_grid_scales_normalize_to_codec_max():
    chunks = np.full((1, 8, 128), 7.0, dtype=np.float32)
    q = quantize_shard(chunks, Codec.F8E4M3)
    assert np.all(q.grid == np.float32(7.0 / 448.0))
    assert np.all(decode(q.payload, Codec.F8E4M3) == 448.0)
    back = dequantize_shard(q)
    assert np.allclose(back, 7.0, rtol=1e-6)


_GOOD = {"payload": np.zeros((2, 8, 128), np.uint8), "grid": np.ones((8, 128), np.float32)}
_BAD = [("payload", np.zeros((2, 8, 128), np.uint16)), ("payload", np.zeros((2, 8, 64), np.uint8)),
        ("grid", np.ones((8, 128), np.float64)), ("grid", np.ones((8, 64), np.float32))]


@pytest.mark.parametrize("field, value", _BAD,
                         ids=["u16-payload", "narrow-payload", "f64-grid", "narrow-grid"])
def test_quantized_shard_rejects_a_bad_payload_or_grid(field, value):
    QuantizedShard(Codec.INT8, **_GOOD)
    with pytest.raises(ValueError, match=f"bad {field} shape/dtype"):
        QuantizedShard(Codec.INT8, **dict(_GOOD, **{field: value}))
