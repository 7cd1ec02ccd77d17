"""Tensor layout: device shards, minishards, microshards, 8x128 chunks.

A tensor is linearized row-major and cut into N contiguous equal shards
(shard i lives on device i). Each shard is a run of 8x128 chunks, grouped
into m minishards (the quantization-block granularity: one scale grid per
minishard, so one scale covers position (i, j) of every chunk in it) and
each minishard into u microshards (the pipelining granularity). Shapes
that do not divide evenly are rejected, never padded.

A device's input to a collective is BF16 (`Bf16Tensor`, made by
`numerics.bf16_bits`), as in the paper's BF16 AllReduce; a collective's
output is a float32 `TensorBuf` holding BF16 values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHUNK_ROWS = 8
CHUNK_COLS = 128
CHUNK_ELEMS = CHUNK_ROWS * CHUNK_COLS


class DivisibilityError(ValueError):
    """Element count does not divide across chunks/devices/minishards/microshards."""


class ShapeMismatchError(ValueError):
    """Tensor data disagrees with the shape it is declared or compared with."""


@dataclass(frozen=True)
class PartitionSpec:
    num_devices: int
    minishards_per_shard: int = 1
    microshards_per_minishard: int = 1

    def __post_init__(self):
        if self.num_devices < 2:
            raise ValueError(f"num_devices must be >= 2, got {self.num_devices}")
        if self.minishards_per_shard < 1 or self.microshards_per_minishard < 1:
            raise ValueError("minishard/microshard counts must be >= 1")

    def validate_element_count(self, n: int) -> None:
        """Raise DivisibilityError naming the first factor that fails to divide."""
        if n <= 0 or n % CHUNK_ELEMS:
            raise DivisibilityError(
                f"element count {n} is not a multiple of the {CHUNK_ROWS}x{CHUNK_COLS} "
                f"chunk size ({CHUNK_ELEMS})"
            )
        chunks = n // CHUNK_ELEMS
        if chunks % self.num_devices:
            raise DivisibilityError(
                f"{chunks} chunks do not split across num_devices={self.num_devices}"
            )
        per_shard = chunks // self.num_devices
        if per_shard % self.minishards_per_shard:
            raise DivisibilityError(
                f"{per_shard} chunks per shard do not split across "
                f"minishards_per_shard={self.minishards_per_shard}"
            )
        per_mini = per_shard // self.minishards_per_shard
        if per_mini % self.microshards_per_minishard:
            raise DivisibilityError(
                f"{per_mini} chunks per minishard do not split across "
                f"microshards_per_minishard={self.microshards_per_minishard}"
            )


@dataclass(frozen=True)
class TensorBuf:
    """A collective's output: flat float32 holding BF16 values, nominal shape (rows, cols)."""

    data: np.ndarray
    rows: int
    cols: int

    def __post_init__(self):
        if self.data.ndim != 1 or self.data.dtype != np.float32:
            raise ValueError("TensorBuf.data must be a flat float32 array")
        if self.data.size != self.rows * self.cols:
            raise ShapeMismatchError(
                f"data length {self.data.size} != rows*cols = {self.rows * self.cols}"
            )


@dataclass(frozen=True)
class Bf16Tensor:
    """Flat BF16 tensor held as its uint16 bit patterns, with a nominal (rows, cols) shape.

    `numerics.bf16_bits` makes the bits. The one read is `values`, which
    widens to float32 (exactly: a BF16 value is a float32 with its low 16
    bits zero) into a fresh array, so writing to what it returns never
    changes the tensor.
    """

    bits: np.ndarray
    rows: int
    cols: int

    def __post_init__(self):
        if self.bits.ndim != 1 or self.bits.dtype != np.uint16:
            raise ValueError("Bf16Tensor.bits must be a flat uint16 array")
        if self.bits.size != self.rows * self.cols:
            raise ShapeMismatchError(
                f"bits length {self.bits.size} != rows*cols = {self.rows * self.cols}"
            )

    def values(self, part: slice = slice(None)) -> np.ndarray:
        """The elements in `part` as a new float32 array."""
        out = self.bits[part].astype(np.uint32)
        out <<= 16
        return out.view(np.float32)
