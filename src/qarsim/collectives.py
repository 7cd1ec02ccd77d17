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

  quantized  codes plus a scale grid per minishard: each receiver
             dequantizes to FP32, adds its local part and re-quantizes.
  BF16       raw partials, rounded to BF16 after every addition (the
             baseline).
  cast       the naive low-precision strawman: codes cast elementwise with
             no scaling; each receiver decodes, adds in FP32 and
             re-encodes, saturating at the codec's range.

Inputs are read in place: each device's part of an arc is rounded to BF16
where the arc reads it, so every element is rounded exactly once. The
all-gather quantizes each shard once at its source (or forwards it raw)
and every device, the source included, decodes the same codes, so outputs
are bit-identical across devices. Final outputs are BF16-rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import schedule
from .layout import CHUNK_COLS, CHUNK_ROWS, MissingShardError, PartitionSpec, TensorBuf
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


def _check(inputs: Sequence[TensorBuf], spec: PartitionSpec) -> None:
    """Reject inputs that do not cover every device with one layout-legal shape."""
    n = spec.num_devices
    if len(inputs) != n:
        raise ValueError(f"expected {n} device inputs, got {len(inputs)}")
    rows, cols = inputs[0].rows, inputs[0].cols
    spec.validate_element_count(inputs[0].data.size)
    for d, t in enumerate(inputs):
        if (t.rows, t.cols) != (rows, cols):
            raise ValueError(f"device {d} input shape {(t.rows, t.cols)} != {(rows, cols)}")


class _QuantHop:
    """Codes plus one scale grid per minishard; a unit is a minishard of `unit` elements."""

    def __init__(self, codec: Codec, unit: int):
        self.codec, self.unit = codec, unit

    def send(self, local):
        blocks = local.reshape(-1, CHUNK_ROWS, CHUNK_COLS)
        return quantize_shard(blocks, self.codec, local.size // self.unit)

    def hop(self, wire, local):
        return self.send(dequantize_shard(wire).reshape(-1) + local)

    def merge(self, acc, wire):
        return dequantize_shard(wire).reshape(-1) + acc


class _Bf16Hop:
    """BF16 partials, rounded after every addition; a unit is one element."""

    unit = 1

    def send(self, local):
        return local

    def hop(self, wire, local):
        return round_to_bf16(wire + local)

    def merge(self, acc, wire):
        return round_to_bf16(wire + acc)


class _CastHop:
    """Unscaled codes: each hop decodes, adds in FP32 and re-encodes (saturating)."""

    unit = 1

    def __init__(self, codec: Codec):
        self.codec = codec

    def send(self, local):
        return encode(local, self.codec)

    def hop(self, wire, local):
        c = self.codec
        return encode(decode(wire, c) + decode(encode(local, c), c), c)

    def merge(self, acc, wire):
        return decode(self.hop(wire, acc), self.codec)


def _reduce_scatter(inputs: Sequence[TensorBuf], variant: Variant,
                    kind: _QuantHop | _Bf16Hop | _CastHop) -> list[np.ndarray]:
    """Run every shard's arcs through one hop kind; result[s] is shard s at its owner.

    Each device's part of an arc is read from its input and BF16-rounded
    there, so every element is rounded exactly once and no copy is staged.
    """
    n, u = len(inputs), kind.unit
    shard = inputs[0].data.size // n
    out = []
    for s, arcs in enumerate(schedule.rs_arcs(variant, n, shard // u)):
        merged: dict[str, np.ndarray] = {}
        for arc in arcs:
            part = slice(s * shard + arc.units.start * u, s * shard + arc.units.stop * u)
            local = lambda d, part=part: round_to_bf16(inputs[d].data[part])
            head, *mid, owner = arc.devices
            wire = kind.send(local(head))
            for dev in mid:
                wire = kind.hop(wire, local(dev))
            acc = merged.pop(arc.after) if arc.after else local(owner)
            merged[arc.direction] = kind.merge(acc, wire)
        out.append(np.concatenate(list(merged.values())).reshape(-1, CHUNK_ROWS, CHUNK_COLS))
    return out


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
    All returned TensorBufs share one read-only buffer; outputs are
    bit-identical across devices by construction.
    """
    n = spec.num_devices
    if len(shards) != n or any(b is None for b in shards):
        raise MissingShardError(f"need shard results from all {n} devices")
    gathered = []
    for s in range(n):
        if quantize:
            q = quantize_shard(shards[s], codec, spec.minishards_per_shard)
            gathered.append(round_to_bf16(dequantize_shard(q)).reshape(-1))
        else:
            gathered.append(round_to_bf16(shards[s]).reshape(-1))
    flat = np.concatenate(gathered)
    flat.setflags(write=False)
    return [TensorBuf(flat, rows, cols) for _ in range(n)]


def all_reduce(inputs: Sequence[TensorBuf], cfg: CollectiveConfig) -> list[TensorBuf]:
    """Reduce-scatter (per cfg.variant) then all-gather, each optionally quantized."""
    spec = cfg.spec
    _check(inputs, spec)
    if cfg.quantize_rs:
        minishard = inputs[0].data.size // (spec.num_devices * spec.minishards_per_shard)
        kind = _QuantHop(cfg.codec, minishard)
    else:
        kind = _Bf16Hop()
    # NaN and inf inputs have defined results (README "Non-finite values"), so the
    # invalid/overflow flags of their adds, scale divisions and multiplies are expected.
    with np.errstate(invalid="ignore", over="ignore"):
        rs = _reduce_scatter(inputs, cfg.variant, kind)
        return all_gather(rs, cfg.quantize_ag, cfg.codec, spec, inputs[0].rows, inputs[0].cols)


def baseline_allreduce_bf16(inputs: Sequence[TensorBuf], spec: PartitionSpec):
    """Full-loop AllReduce with no quantization: the MSE reference."""
    return all_reduce(inputs, CollectiveConfig(Variant.FULL_LOOP, spec))


def naive_lowp_allreduce(inputs: Sequence[TensorBuf], codec: Codec, spec: PartitionSpec):
    """Cast-without-scaling strawman: saturating adds in the codec's range."""
    _check(inputs, spec)
    with np.errstate(invalid="ignore", over="ignore"):  # as in all_reduce
        rs = _reduce_scatter(inputs, Variant.FULL_LOOP, _CastHop(codec))
        return all_gather(rs, False, codec, spec, inputs[0].rows, inputs[0].cols)
