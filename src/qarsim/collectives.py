"""Value-level ring collectives: baseline, quantized and naive, each a `CollectiveConfig`.

AllReduce = reduce-scatter then all-gather on a ring of N devices. The
reduce-scatter runs the arcs of `schedule` on values: the arc's head puts
its local part of the shard on the wire, every later device folds its own
part into what arrives and forwards it, and the owner merges the arriving
partials into its local value in the order the schedule gives. The full
loop runs two counter-rotating rings, each carrying half of every shard,
which only permutes hop order functionally; the semi loop (N even) meets
two arcs at the owner, a balanced adder tree with at most N/2
quantize/dequantize pairs on any path. `schedule` defines the arcs.

One loop walks every arc; only the hop kind (the wire format) differs,
picked by the config's `quantize_rs`, else its `cast`, else BF16:

  quantized  one message per minishard, its scale grid ahead of its codes
             (`quant`): each receiver dequantizes to FP32, adds its local
             part and re-quantizes.
  BF16       raw partials, rounded to BF16 after every addition (the
             baseline).
  cast       the naive low-precision strawman, a full loop with no
             quantized stage: codes cast elementwise with no scaling; each
             receiver decodes, adds in FP32 and re-encodes, saturating at
             the codec's range. That sum depends only on the two codes, so
             a hop encodes its local part and looks the sum up
             (`numerics.cast_add_table`).

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
across devices. Outputs are float32 `TensorBuf`s of BF16 values, rounded in
the all-gather only if a stage is quantized: any other ring's reduce-scatter,
the naive ring's included, is BF16 already and is its output as it stands.

`reduce_scatter` is the first stage on its own: one flat float32 buffer
whose s-th of N equal parts is shard s. It depends only on the variant,
`quantize_rs`, `cast` and the codec, so collectives that agree on those can
share it. `gather_blocks`, the all-gather, reads that buffer as it is and yields
the output one minishard at a time, in output order, each made from its
own minishard of the buffer alone, so a caller that reads the output once
builds none. A quantized `all_reduce` writes the blocks over its own
reduce-scatter's buffer; each collective gives its one buffer to every device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import schedule
from .layout import (
    CHUNK_COLS,
    CHUNK_ROWS,
    Bf16Tensor,
    PartitionSpec,
    ShapeMismatchError,
    TensorBuf,
)
from .numerics import Codec, cast_add_table, decode, encode, round_to_bf16
from .quant import dequantize_shard, quantize_shard
from .schedule import Variant


class SemiLoopOddNError(ValueError):
    """Semi-loop pairs the ring into two arcs and needs an even device count."""


# What a collective's stages carry, by tag: the `CollectiveConfig` fields the tag
# sets, each of the others unset. `cast` is the naive ring, a full loop.
STAGES = {"none": {}, "rs": {"quantize_rs": True}, "ag": {"quantize_ag": True},
          "both": {"quantize_rs": True, "quantize_ag": True}, "cast": {"cast": True}}


@dataclass(frozen=True)
class CollectiveConfig:
    variant: Variant
    spec: PartitionSpec
    quantize_rs: bool = False
    quantize_ag: bool = False
    codec: Codec = Codec.INT8
    cast: bool = False  # the unscaled stages carry codes cast to `codec` with no scale

    @property
    def stages(self) -> str:
        """The `STAGES` tag of what this config's stages carry."""
        carried = {f: True for f in ("quantize_rs", "quantize_ag", "cast") if getattr(self, f)}
        return next(tag for tag, kw in STAGES.items() if kw == carried)

    def __post_init__(self):
        if self.variant is Variant.SEMI_LOOP and self.spec.num_devices % 2:
            raise SemiLoopOddNError(
                f"semi-loop requires an even ring, got num_devices={self.spec.num_devices}"
            )
        if self.cast and (self.variant is Variant.SEMI_LOOP
                          or self.quantize_rs or self.quantize_ag):
            raise ValueError("cast needs the full loop and no quantized stage")


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
    """One quantized message (`quant.QuantizedShard`) per minishard, so arcs run in minishards."""

    per_minishard = True

    def __init__(self, codec: Codec):
        self.codec = codec

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

    per_minishard = False

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

    per_minishard = False

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


def _reduce_scatter(inputs: Inputs, spec: PartitionSpec, variant: Variant,
                    kind: _QuantHop | _Bf16Hop | _CastHop) -> np.ndarray:
    """Check the inputs, then run every shard's arcs through one hop kind into one
    flat float32 buffer, shard s at its owner the buffer's s-th of N equal parts.

    Arcs (in minishards if `kind.per_minishard`, else elements) are walked one
    minishard tile at a time, cut where an arc starts or ends inside a tile.
    Each device's part of a tile is widened from its input where the arc reads
    it. An arc that merges `after` another reads that arc's result from the buffer.
    """
    _check(inputs, spec)
    n = spec.num_devices
    shard = inputs[0].bits.size // n
    tile = shard // spec.minishards_per_shard
    u = tile if kind.per_minishard else 1
    flat = np.empty(n * shard, np.float32)
    # NaN and inf inputs have defined results (README "Non-finite values"), so the
    # invalid/overflow flags of their adds, scale divisions and multiplies are expected.
    with np.errstate(invalid="ignore", over="ignore"):
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


def gather_blocks(reduced: np.ndarray,
                  cfg: CollectiveConfig) -> Iterator[tuple[slice, np.ndarray]]:
    """The all-gather's output one minishard at a time: (part, values) in output order.

    `reduced` is `reduce_scatter`'s flat float32 buffer, checked here. Block k
    is the output at `part`, made when it is taken from minishard k of the N·m
    in `reduced` alone. With cfg.quantize_ag it is encoded once at its source
    and every device, the source included, decodes the same codes. A block is
    rounded to BF16 only if a stage is quantized; else it is a read-only view
    of `reduced`, whose every sum the ring has rounded already.
    """
    if reduced.ndim != 1 or reduced.dtype != np.float32:
        raise ShapeMismatchError(f"a reduce-scatter is one flat float32 buffer, got "
                                 f"{reduced.dtype} of shape {reduced.shape}")
    cfg.spec.validate_element_count(reduced.size)
    view = reduced.view()
    view.setflags(write=False)  # a shared reduce-scatter is only read
    return _gathered(view, cfg, reduced.size // (cfg.spec.num_devices
                                                 * cfg.spec.minishards_per_shard))


def _gathered(reduced, cfg, tile):
    for lo in range(0, reduced.size, tile):
        block = reduced[lo:lo + tile]
        with np.errstate(invalid="ignore", over="ignore"):  # as in _reduce_scatter
            if cfg.quantize_ag:
                block = dequantize_shard(_QuantHop(cfg.codec).send(block)).reshape(-1)
            if cfg.quantize_rs or cfg.quantize_ag:  # else BF16 already
                block = round_to_bf16(block)
        yield slice(lo, lo + tile), block


def reduce_scatter(inputs: Inputs, cfg: CollectiveConfig) -> np.ndarray:
    """The reduce-scatter stage of `all_reduce`: one flat float32 buffer whose
    s-th of N equal parts is shard s, reduced at device s.

    The result depends on cfg.variant, cfg.quantize_rs, cfg.cast and
    cfg.codec only, so collectives that agree on those can share it and
    stream each one's all-gather through `gather_blocks`.
    """
    kind = (_QuantHop(cfg.codec) if cfg.quantize_rs else _CastHop(cfg.codec) if cfg.cast
            else _Bf16Hop())
    return _reduce_scatter(inputs, cfg.spec, cfg.variant, kind)


def all_reduce(inputs: Inputs, cfg: CollectiveConfig) -> list[TensorBuf]:
    """Reduce-scatter (per cfg.variant) then all-gather, each optionally quantized.

    If a stage is quantized, the all-gather is written over the reduce-scatter's
    own buffer, block k made from block k alone; else that buffer is the output.
    """
    flat = reduce_scatter(inputs, cfg)
    if cfg.quantize_rs or cfg.quantize_ag:  # else gather_blocks' blocks are the buffer's own
        for part, block in gather_blocks(flat, cfg):
            flat[part] = block
    flat.setflags(write=False)  # the one buffer is every device's output
    return [TensorBuf(flat, inputs[0].rows, inputs[0].cols) for _ in inputs]


def baseline_allreduce_bf16(inputs: Inputs, spec: PartitionSpec) -> list[TensorBuf]:
    """Full-loop AllReduce with no quantization: the MSE reference."""
    return all_reduce(inputs, CollectiveConfig(Variant.FULL_LOOP, spec))


def naive_lowp_allreduce(inputs: Inputs, codec: Codec, spec: PartitionSpec) -> list[TensorBuf]:
    """Cast-without-scaling strawman: saturating adds in the codec's range."""
    return all_reduce(inputs, CollectiveConfig(Variant.FULL_LOOP, spec, codec=codec, cast=True))
