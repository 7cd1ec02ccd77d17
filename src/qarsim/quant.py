"""Two-phase block-wise symmetric quantization over minishards.

Phase 1 scans a minishard's chunks into one 8x128 scale grid: the abs-max
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
    """One shard's codes plus its per-minishard scale grids.

    payload: uint8 (chunks, 8, 128); grids: float32 (m, 8, 128). On the
    wire the metadata (all grids, in minishard order) precedes the payload
    (microshards in order): receivers need scales before data arrives.
    """

    codec: Codec
    payload: np.ndarray
    grids: np.ndarray

    def __post_init__(self):
        if self.payload.dtype != np.uint8 or self.payload.shape[1:] != (CHUNK_ROWS, CHUNK_COLS):
            raise ValueError(f"bad payload shape/dtype: {self.payload.shape} {self.payload.dtype}")
        if self.grids.shape[1:] != (CHUNK_ROWS, CHUNK_COLS) or self.grids.dtype != np.float32:
            raise ValueError(f"bad grids shape/dtype: {self.grids.shape} {self.grids.dtype}")
        if self.payload.shape[0] % self.grids.shape[0]:
            raise ValueError("chunk count must divide evenly across minishard grids")

    @property
    def minishards(self) -> int:
        return self.grids.shape[0]

    @property
    def wire_bytes(self) -> int:
        return self.payload.size + self.grids.shape[0] * GRID_BYTES


def quantize_shard(blocks: np.ndarray, codec: Codec, minishards: int = 1) -> QuantizedShard:
    """Scan and encode a whole shard, one scale grid per minishard."""
    c = blocks.shape[0]
    if c % minishards:
        raise ValueError(f"{c} chunks do not split across {minishards} minishards")
    grouped = blocks.reshape(minishards, c // minishards, CHUNK_ROWS, CHUNK_COLS)
    grids = scales_from_absmax(absmax_grid(grouped), codec)
    codes = encode(grouped / grids[:, None], codec)
    return QuantizedShard(codec, codes.reshape(c, CHUNK_ROWS, CHUNK_COLS), grids)


def dequantize_shard(q: QuantizedShard) -> np.ndarray:
    """Restore float32 chunks: decode(code) * scale at every position."""
    c = q.payload.shape[0]
    # decode returns a fresh float32 array, so the scales multiply in place.
    grouped = decode(q.payload, q.codec).reshape(q.minishards, -1, CHUNK_ROWS, CHUNK_COLS)
    grouped *= q.grids[:, None]
    return grouped.reshape(c, CHUNK_ROWS, CHUNK_COLS)
