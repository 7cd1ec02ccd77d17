"""Value-level ring collectives: baseline, quantized, and naive low-precision.

AllReduce = reduce-scatter then all-gather on a ring of N devices. The
reduce-scatter runs the arcs of `schedule` on values: the arc's head puts
its local part of the shard on the wire, every later device folds its own
part into what arrives and forwards it, and the owner merges the arriving
partials into its local value in the order the schedule gives. The full
loop runs two counter-rotating rings, each carrying half of every shard,
which only permutes hop order functionally; the semi loop (N even) meets
two arcs at the owner, a balanced adder tree with at most N/2
quantize/dequantize pairs on any path. `schedule` defines the arcs.

One loop walks every arc; only the hop kind (the wire format) differs:

  quantized  one message per minishard, its scale grid ahead of its codes
             (`quant`): each receiver dequantizes to FP32, adds its local
             part and re-quantizes.
  BF16       raw partials, rounded to BF16 after every addition (the
             baseline).
  cast       the naive low-precision strawman: codes cast elementwise with
             no scaling; each receiver decodes, adds in FP32 and
             re-encodes, saturating at the codec's range. That sum depends
             only on the two codes, so a hop encodes its local part and
             looks the sum up (`numerics.cast_add_table`).

The ring walks one minishard-sized tile at a time: each arc's part of a
shard is cut at minishard boundaries (and where the arc starts or ends, as
at the full loop's CW/CCW element midpoint), and every tile runs all of the
arc's hops before the next starts, so a hop's arrays stay cache-sized. The
kernels are elementwise and quantization keeps one scale grid per
minishard, so tiling only reorders work: every output bit is the same for
every minishard count the unquantized rings can take. Each shard's result
is written into one preallocated buffer; in the semi loop the CCW arc's
owner merge reads the CW result from there.

Inputs are BF16 (`layout.Bf16Tensor`), made by `numerics.bf16_bits`. Each
device's part of a tile is widened to float32 where the arc reads it, into
a fresh array, so a hop adds into it in place and no input is ever written
or rounded again. The all-gather quantizes each shard once at its source
(or forwards it raw), one minishard at a time, and every device, the
source included, decodes the same codes, so outputs are bit-identical
across devices. Final outputs are BF16-rounded float32 `TensorBuf`s.

`reduce_scatter` is the first stage on its own. Its result depends only on
the variant, `quantize_rs` and the codec, so collectives that agree on
those can share it. `gather_blocks` is the all-gather: it yields the output
one BF16-rounded minishard at a time, in output order, each made from its
own minishard of the reduce-scatter alone, so a caller that reads the
output once can take the blocks as they come and build none. A collective
writes those blocks over its own reduce-scatter's buffer, so it never holds
a second tensor, and hands that one read-only buffer to every device.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from . import schedule
from .layout import (
    CHUNK_COLS,
    CHUNK_ROWS,
    Bf16Tensor,
    DivisibilityError,
    MissingShardError,
    PartitionSpec,
    ShapeMismatchError,
    TensorBuf,
)
from .numerics import Codec, cast_add_table, decode, encode, round_to_bf16
from .quant import dequantize_shard, quantize_shard
from .schedule import Variant


class SemiLoopOddNError(ValueError):
    """Semi-loop pairs the ring into two arcs and needs an even device count."""


@dataclass(frozen=True)
class CollectiveConfig:
    variant: Variant
    spec: PartitionSpec
    quantize_rs: bool = False
    quantize_ag: bool = False
    codec: Codec = Codec.INT8

    def __post_init__(self):
        if self.variant is Variant.SEMI_LOOP and self.spec.num_devices % 2:
            raise SemiLoopOddNError(
                f"semi-loop requires an even ring, got num_devices={self.spec.num_devices}"
            )


Inputs = Sequence[Bf16Tensor]


def _check(inputs: Inputs, spec: PartitionSpec) -> None:
    """Reject inputs that are not one layout-legal BF16 tensor per device, all one shape."""
    n = spec.num_devices
    if len(inputs) != n:
        raise ValueError(f"expected {n} device inputs, got {len(inputs)}")
    for d, t in enumerate(inputs):
        if not isinstance(t, Bf16Tensor):
            raise TypeError(f"device {d} input is a {type(t).__name__}, not a Bf16Tensor")
    rows, cols = inputs[0].rows, inputs[0].cols
    spec.validate_element_count(rows * cols)
    for d, t in enumerate(inputs):
        if (t.rows, t.cols) != (rows, cols):
            raise ShapeMismatchError(
                f"device {d} input shape {(t.rows, t.cols)} != {(rows, cols)}")


class _QuantHop:
    """One quantized message (`quant.QuantizedShard`) per minishard of `unit` elements."""

    def __init__(self, codec: Codec, unit: int):
        self.codec, self.unit = codec, unit

    def send(self, local):
        return quantize_shard(local.reshape(-1, CHUNK_ROWS, CHUNK_COLS), self.codec)

    def hop(self, wire, local):
        return self.send(self.merge(local, wire))

    def merge(self, acc, wire):
        # In place into dequantize's fresh output, the wire operand first as in
        # `wire + acc`, so the same NaN payload survives.
        out = dequantize_shard(wire).reshape(-1)
        out += acc
        return out


class _Bf16Hop:
    """BF16 partials, rounded after every addition; a unit is one element."""

    unit = 1

    def send(self, local):
        return local

    def hop(self, wire, local):
        return self.merge(local, wire)

    def merge(self, acc, wire):
        # In place into the accumulator (a fresh widened input, or the owner's
        # result tile it is written back to), the wire operand first as in
        # `wire + acc`, so the same NaN payload survives.
        return round_to_bf16(np.add(wire, acc, out=acc))


class _CastHop:
    """Unscaled codes: each hop decodes, adds in FP32 and re-encodes (saturating).

    The re-encoded sum depends only on the wire code and the local value's
    code, so a hop encodes its local part and looks the sum up in
    `numerics.cast_add_table`, with the wire operand first as in
    `decode(wire) + decode(encode(local))`.
    """

    unit = 1

    def __init__(self, codec: Codec):
        self.codec, self.table = codec, cast_add_table(codec)

    def send(self, local):
        return encode(local, self.codec)

    def hop(self, wire, local):
        index = wire.astype(np.uint16)
        index <<= 8
        index |= encode(local, self.codec)
        return np.take(self.table, index, mode="wrap")  # every uint16 is in range

    def merge(self, acc, wire):
        return decode(self.hop(wire, acc), self.codec)


def _reduce_scatter(inputs: Sequence[Bf16Tensor], variant: Variant,
                    kind: _QuantHop | _Bf16Hop | _CastHop, minishards: int) -> np.ndarray:
    """Run every shard's arcs through one hop kind into one flat buffer; shard s
    at its owner is `_shards` of it, the buffer's s-th of N equal parts.

    Arcs are walked one tile of `shard // minishards` elements at a time, cut
    where an arc starts or ends inside a tile. Each device's part of a tile is
    widened from its input where the arc reads it; no copy is staged. An arc
    that merges `after` another reads that arc's result from the output buffer.
    """
    n, u = len(inputs), kind.unit
    shard = inputs[0].bits.size // n
    tile = shard // minishards
    flat = np.empty(n * shard, np.float32)
    for s, arcs in enumerate(schedule.rs_arcs(variant, n, shard // u)):
        base = s * shard
        result = flat[base:base + shard]
        for arc in arcs:
            head, *mid, owner = arc.devices
            lo, stop = arc.units.start * u, arc.units.stop * u
            while lo < stop:
                hi = min((lo // tile + 1) * tile, stop)
                part = slice(base + lo, base + hi)
                local = lambda d, part=part: inputs[d].values(part)
                wire = kind.send(local(head))
                for dev in mid:
                    wire = kind.hop(wire, local(dev))
                acc = result[lo:hi] if arc.after else local(owner)
                result[lo:hi] = kind.merge(acc, wire)
                lo = hi
    return flat


def _shards(flat: np.ndarray, n: int) -> list[np.ndarray]:
    """The N shards of a flat reduce-scatter buffer, as (chunks, 8, 128) views."""
    return [b.reshape(-1, CHUNK_ROWS, CHUNK_COLS) for b in np.split(flat, n)]


def gather_blocks(shards: Sequence[np.ndarray], quantize: bool, codec: Codec,
                  spec: PartitionSpec) -> Iterator[tuple[slice, np.ndarray]]:
    """The all-gather's output one minishard at a time: (part, values) in output order.

    `values` are the BF16-rounded float32 elements at `part` of the flat
    output. With quantize set each minishard is encoded once at its source
    and every device, the source included, decodes the same codes, so every
    device's output is these blocks. Block k is made from minishard k of
    `shards` alone. The shards, one (chunks, 8, 128) shape per device with
    chunks a multiple of the minishard count, are checked here; each block
    is made when it is taken.
    """
    n, m = spec.num_devices, spec.minishards_per_shard
    if len(shards) != n or any(b is None for b in shards):
        raise MissingShardError(f"need shard results from all {n} devices")
    shape = shards[0].shape
    if shape[1:] != (CHUNK_ROWS, CHUNK_COLS) or any(b.shape != shape for b in shards):
        raise ShapeMismatchError(f"shards need one (chunks, {CHUNK_ROWS}, {CHUNK_COLS}) shape, "
                                 f"got {[b.shape for b in shards]}")
    if shape[0] % m:
        raise DivisibilityError(
            f"{shape[0]} chunks per shard do not split across minishards_per_shard={m}")
    return _gathered(shards, quantize, codec, m)


def _gathered(shards, quantize, codec, m):
    end = 0
    for shard in shards:
        for block in np.split(shard, m):
            with np.errstate(invalid="ignore", over="ignore"):  # as in _reduced
                if quantize:
                    block = dequantize_shard(quantize_shard(block, codec))
                block = round_to_bf16(block).reshape(-1)
            start, end = end, end + block.size
            yield slice(start, end), block


def _gather_over(flat: np.ndarray, quantize: bool, codec: Codec, spec: PartitionSpec,
                 inputs: Inputs) -> list[TensorBuf]:
    """`gather_blocks` of a reduce-scatter buffer no one else holds, written over it
    and given to every device, read-only, shaped as the inputs. Block k is made
    from block k of the buffer alone before it is written back there."""
    for part, block in gather_blocks(_shards(flat, spec.num_devices), quantize, codec, spec):
        flat[part] = block
    flat.setflags(write=False)
    return [TensorBuf(flat, inputs[0].rows, inputs[0].cols) for _ in range(spec.num_devices)]


def _reduced(inputs: Inputs, spec: PartitionSpec, variant: Variant, kind) -> np.ndarray:
    """Check the inputs, then `_reduce_scatter` them into one flat buffer through
    the hop kind `kind(unit)` makes from the minishard size in elements."""
    _check(inputs, spec)
    m = spec.minishards_per_shard
    # NaN and inf inputs have defined results (README "Non-finite values"), so the
    # invalid/overflow flags of their adds, scale divisions and multiplies are expected.
    with np.errstate(invalid="ignore", over="ignore"):
        return _reduce_scatter(inputs, variant,
                               kind(inputs[0].bits.size // (spec.num_devices * m)), m)


def _rs_buffer(inputs: Inputs, cfg: CollectiveConfig) -> np.ndarray:
    """`_reduced` through cfg's reduce-scatter hop kind: its one flat buffer."""
    kind = partial(_QuantHop, cfg.codec) if cfg.quantize_rs else lambda _: _Bf16Hop()
    return _reduced(inputs, cfg.spec, cfg.variant, kind)


def reduce_scatter(inputs: Inputs, cfg: CollectiveConfig) -> list[np.ndarray]:
    """The reduce-scatter stage of `all_reduce`: result[s] is shard s reduced at device s.

    The result depends on cfg.variant, cfg.quantize_rs and cfg.codec only,
    so collectives that agree on those can share it and stream each one's
    all-gather through `gather_blocks`.
    """
    return _shards(_rs_buffer(inputs, cfg), cfg.spec.num_devices)


def all_reduce(inputs: Inputs, cfg: CollectiveConfig) -> list[TensorBuf]:
    """Reduce-scatter (per cfg.variant) then all-gather, each optionally quantized.

    The all-gather is written over the reduce-scatter's own buffer.
    """
    return _gather_over(_rs_buffer(inputs, cfg), cfg.quantize_ag, cfg.codec, cfg.spec, inputs)


def baseline_allreduce_bf16(inputs: Inputs, spec: PartitionSpec) -> list[TensorBuf]:
    """Full-loop AllReduce with no quantization: the MSE reference."""
    return all_reduce(inputs, CollectiveConfig(Variant.FULL_LOOP, spec))


def naive_lowp_allreduce(inputs: Inputs, codec: Codec, spec: PartitionSpec) -> list[TensorBuf]:
    """Cast-without-scaling strawman: saturating adds in the codec's range."""
    flat = _reduced(inputs, spec, Variant.FULL_LOOP, lambda _: _CastHop(codec))
    return _gather_over(flat, False, codec, spec, inputs)
