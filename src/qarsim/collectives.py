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
             re-encodes, saturating at the codec's range.

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
those can share it: `all_reduce` and `baseline_allreduce_bf16` take it as
`reduced=` and then run only the all-gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import schedule
from .layout import (
    CHUNK_COLS,
    CHUNK_ROWS,
    Bf16Tensor,
    MissingShardError,
    PartitionSpec,
    ShapeMismatchError,
    TensorBuf,
)
from .numerics import Codec, decode, encode, round_to_bf16
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
    """Unscaled codes: each hop decodes, adds in FP32 and re-encodes (saturating)."""

    unit = 1

    def __init__(self, codec: Codec):
        self.codec = codec

    def send(self, local):
        return encode(local, self.codec)

    def hop(self, wire, local):
        c = self.codec
        # In place into the wire's fresh decode, the wire operand first as in
        # `decode(wire) + decode(encode(local))`, so the same NaN payload survives.
        acc = decode(wire, c)
        acc += decode(encode(local, c), c)
        return encode(acc, c)

    def merge(self, acc, wire):
        return decode(self.hop(wire, acc), self.codec)


def _reduce_scatter(inputs: Sequence[Bf16Tensor], variant: Variant,
                    kind: _QuantHop | _Bf16Hop | _CastHop, minishards: int) -> list[np.ndarray]:
    """Run every shard's arcs through one hop kind; result[s] is shard s at its owner.

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
    return [b.reshape(-1, CHUNK_ROWS, CHUNK_COLS) for b in np.split(flat, n)]


def all_gather(
    shards: Sequence[np.ndarray],
    quantize: bool,
    codec: Codec,
    spec: PartitionSpec,
    rows: int,
    cols: int,
) -> list[TensorBuf]:
    """Broadcast shard s from device s to everyone; outputs are BF16-rounded.

    With quantize set each shard is encoded once at its source and forwarded
    unchanged, so every device (the source included) decodes identical codes.
    Each shard is handled one minishard at a time. All returned TensorBufs
    share one read-only buffer; outputs are bit-identical across devices by
    construction.
    """
    n, m = spec.num_devices, spec.minishards_per_shard
    if len(shards) != n or any(b is None for b in shards):
        raise MissingShardError(f"need shard results from all {n} devices")
    flat = np.empty(sum(b.size for b in shards), np.float32)
    end = 0
    for shard in shards:
        for block in np.split(shard, m):
            if quantize:
                block = dequantize_shard(quantize_shard(block, codec))
            start, end = end, end + block.size
            flat[start:end] = round_to_bf16(block).reshape(-1)
    flat.setflags(write=False)
    return [TensorBuf(flat, rows, cols) for _ in range(n)]


def reduce_scatter(inputs: Inputs, cfg: CollectiveConfig) -> list[np.ndarray]:
    """The reduce-scatter stage of `all_reduce`: result[s] is shard s reduced at device s.

    The result depends on cfg.variant, cfg.quantize_rs and cfg.codec only,
    so collectives that agree on those can share it through `reduced=`.
    """
    spec = cfg.spec
    _check(inputs, spec)
    m = spec.minishards_per_shard
    if cfg.quantize_rs:
        kind = _QuantHop(cfg.codec, inputs[0].bits.size // (spec.num_devices * m))
    else:
        kind = _Bf16Hop()
    # NaN and inf inputs have defined results (README "Non-finite values"), so the
    # invalid/overflow flags of their adds, scale divisions and multiplies are expected.
    with np.errstate(invalid="ignore", over="ignore"):
        return _reduce_scatter(inputs, cfg.variant, kind, m)


def all_reduce(inputs: Inputs, cfg: CollectiveConfig,
               reduced: Sequence[np.ndarray] | None = None) -> list[TensorBuf]:
    """Reduce-scatter (per cfg.variant) then all-gather, each optionally quantized.

    `reduced`, if given, is this collective's `reduce_scatter(inputs, cfg)`,
    already computed; only the all-gather then runs.
    """
    if reduced is None:
        reduced = reduce_scatter(inputs, cfg)
    with np.errstate(invalid="ignore", over="ignore"):  # as in reduce_scatter
        return all_gather(reduced, cfg.quantize_ag, cfg.codec, cfg.spec,
                          inputs[0].rows, inputs[0].cols)


def baseline_allreduce_bf16(inputs: Inputs, spec: PartitionSpec,
                            reduced: Sequence[np.ndarray] | None = None):
    """Full-loop AllReduce with no quantization: the MSE reference.

    `reduced` is as in `all_reduce`: the BF16 full-loop reduce-scatter.
    """
    return all_reduce(inputs, CollectiveConfig(Variant.FULL_LOOP, spec), reduced)


def naive_lowp_allreduce(inputs: Inputs, codec: Codec, spec: PartitionSpec):
    """Cast-without-scaling strawman: saturating adds in the codec's range."""
    _check(inputs, spec)
    with np.errstate(invalid="ignore", over="ignore"):  # as in reduce_scatter
        rs = _reduce_scatter(inputs, Variant.FULL_LOOP, _CastHop(codec), spec.minishards_per_shard)
        return all_gather(rs, False, codec, spec, inputs[0].rows, inputs[0].cols)
