"""Two-phase block-wise symmetric quantization of one minishard.

A quantized wire message is one minishard: its float32 8x128 scale grid
(GRID_BYTES) goes ahead of its codes, 1 byte per element, so a receiver
has the scales before the data arrives. The functional ring and the
simulator both send one such message per minishard per hop;
`tests/test_cross_half.py` holds the two byte accounts equal.

Phase 1 scans the minishard's chunks into the scale grid: the abs-max
over the chunk axis at each (i, j), divided by the codec's max magnitude.
Phase 2 divides every chunk by the grid and encodes. Scales stay float32
end to end; a position whose abs-max is exactly 0 gets scale 1.0 (its
codes are all 0, and division stays defined).

Phase 1 may run per-microshard: partial grids merge by elementwise max.
The merge must happen on raw abs-max values, before the zero -> 1.0
fixup, or a position that is zero in one microshard but not another
would merge to the wrong scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import CHUNK_COLS, CHUNK_ELEMS, CHUNK_ROWS
from .numerics import Codec, decode, encode

GRID_BYTES = CHUNK_ELEMS * 4  # one float32 scale grid


def absmax_grid(chunks: np.ndarray) -> np.ndarray:
    """Raw 8x128 abs-max over the chunk axis (-3). Mergeable by np.maximum."""
    return np.max(np.abs(chunks), axis=-3)


def scales_from_absmax(absmax: np.ndarray, codec: Codec) -> np.ndarray:
    scales = (absmax / np.float32(codec.max_magnitude)).astype(np.float32)
    return np.where(absmax == 0.0, np.float32(1.0), scales)


@dataclass(frozen=True)
class QuantizedShard:
    """One minishard's wire message: its scale grid, then its codes.

    grid: float32 (8, 128), sent first; payload: uint8 (chunks, 8, 128),
    1 byte per element, microshards in order.
    """

    codec: Codec
    payload: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        if self.payload.dtype != np.uint8 or self.payload.shape[1:] != (CHUNK_ROWS, CHUNK_COLS):
            raise ValueError(f"bad payload shape/dtype: {self.payload.shape} {self.payload.dtype}")
        if self.grid.shape != (CHUNK_ROWS, CHUNK_COLS) or self.grid.dtype != np.float32:
            raise ValueError(f"bad grid shape/dtype: {self.grid.shape} {self.grid.dtype}")

    @property
    def wire_bytes(self) -> int:
        return self.payload.size + GRID_BYTES


def quantize_shard(blocks: np.ndarray, codec: Codec) -> QuantizedShard:
    """Scan and encode one minishard's float32 chunks under one scale grid."""
    grid = scales_from_absmax(absmax_grid(blocks), codec)
    return QuantizedShard(codec, encode(blocks / grid, codec), grid)


def dequantize_shard(q: QuantizedShard) -> np.ndarray:
    """Restore float32 chunks: decode(code) * scale at every position."""
    # decode returns a fresh float32 array, so the scale multiplies in place.
    out = decode(q.payload, q.codec)
    out *= q.grid
    return out
