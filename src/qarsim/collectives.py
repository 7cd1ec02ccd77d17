"""Value-level ring collectives: baseline, quantized, and naive low-precision.

AllReduce = reduce-scatter then all-gather on a ring of N devices. The
reduce-scatter runs the arcs of `schedule` on values: each arc's head
quantizes its local part of the shard, every later device dequantizes,
adds its own part and re-quantizes, and the owner merges the arriving
partials into its local value in the order the schedule gives. The full
loop runs two counter-rotating rings, each carrying half of every shard,
which only permutes hop order functionally; the semi loop (N even) meets
two arcs at the owner, a balanced adder tree with at most N/2
quantize/dequantize pairs on any path. `schedule` defines the arcs.

Inputs are rounded to BF16 on ingest (the wire format of the baseline).
Quantized hops carry codes plus scale grids; the receiver dequantizes to
FP32, adds its local shard, and re-quantizes for the next hop. Raw hops
carry BF16-rounded partials (round after every addition). The all-gather
quantizes each shard once at its source and every device, the source
included, decodes the same codes, so outputs are bit-identical across
devices. Final outputs are BF16-rounded.

The naive low-precision AllReduce is the overflow-prone strawman: inputs
are cast elementwise to the codec with no scaling, each hop decodes, adds
in FP32 and re-encodes (saturating), and the all-gather forwards codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import schedule
from .layout import (
    CHUNK_COLS,
    CHUNK_ELEMS,
    CHUNK_ROWS,
    MissingShardError,
    PartitionSpec,
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


LocalFn = Callable[[int], np.ndarray]


def _ingest(inputs: Sequence[TensorBuf], spec: PartitionSpec) -> np.ndarray:
    """BF16-round every input and shard it: result[d, s] = device d's shard s."""
    n = spec.num_devices
    if len(inputs) != n:
        raise ValueError(f"expected {n} device inputs, got {len(inputs)}")
    rows, cols = inputs[0].rows, inputs[0].cols
    size = inputs[0].data.size
    spec.validate_element_count(size)
    per = spec.chunks_per_shard(size)
    out = np.empty((n, n, per, CHUNK_ROWS, CHUNK_COLS), dtype=np.float32)
    for d, t in enumerate(inputs):
        if (t.rows, t.cols) != (rows, cols):
            raise ValueError(f"device {d} input shape {(t.rows, t.cols)} != {(rows, cols)}")
        out[d] = round_to_bf16(t.data).reshape(n, per, CHUNK_ROWS, CHUNK_COLS)
    return out


def _quant_arc(local: LocalFn, devices: Sequence[int], codec: Codec, minishards: int):
    """Partial after the last arc device: quantize at the head, then Dq+add+Q per hop."""
    q = quantize_shard(local(devices[0]), codec, minishards)
    for dev in devices[1:]:
        q = quantize_shard(dequantize_shard(q) + local(dev), codec, minishards)
    return q


def _bf16_arc(local: LocalFn, devices: Sequence[int]) -> np.ndarray:
    """Raw partial after the last arc device, rounded to BF16 after every add."""
    wire = local(devices[0])
    for dev in devices[1:]:
        wire = round_to_bf16(wire + local(dev))
    return wire


def _reduce_scatter(ing: np.ndarray, cfg: CollectiveConfig) -> list[np.ndarray]:
    """Run every shard's arcs on values; result[s] is shard s, reduced at its owner."""
    n, m = cfg.spec.num_devices, cfg.spec.minishards_per_shard
    per = ing.shape[2]
    quant, semi = cfg.quantize_rs, cfg.variant is Variant.SEMI_LOOP
    c = per // m  # chunks per minishard
    out = []
    for s, arcs in enumerate(schedule.rs_arcs(cfg.variant, n, m if quant else per * CHUNK_ELEMS)):
        merged: dict[str, np.ndarray] = {}
        for arc in arcs:
            r = arc.units
            if quant:
                loc = lambda d, s=s, r=r: ing[d, s, r.start * c : r.stop * c]
            else:
                loc = lambda d, s=s, r=r: ing[d, s].reshape(-1)[r.start : r.stop]
            acc = merged.pop(arc.after) if arc.after else loc(s)
            if quant:
                q = _quant_arc(loc, arc.devices[:-1], cfg.codec, len(r))
                merged[arc.direction] = dequantize_shard(q) + acc
            else:
                wire = _bf16_arc(loc, arc.devices[:-1])
                # Operand order decides which NaN payload survives; each variant keeps its own.
                merged[arc.direction] = round_to_bf16(acc + wire if semi else wire + acc)
        parts = list(merged.values())
        res = parts[0] if len(parts) == 1 else np.concatenate(parts)
        out.append(res.reshape(per, CHUNK_ROWS, CHUNK_COLS))
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
    ing = _ingest(inputs, cfg.spec)
    rs = _reduce_scatter(ing, cfg)
    return all_gather(rs, cfg.quantize_ag, cfg.codec, cfg.spec, inputs[0].rows, inputs[0].cols)


def baseline_allreduce_bf16(inputs: Sequence[TensorBuf], spec: PartitionSpec):
    """Full-loop AllReduce with no quantization: the MSE reference."""
    return all_reduce(inputs, CollectiveConfig(Variant.FULL_LOOP, spec))


def naive_lowp_allreduce(inputs: Sequence[TensorBuf], codec: Codec, spec: PartitionSpec):
    """Cast-without-scaling strawman: saturating adds in the codec's range."""
    ing = _ingest(inputs, spec)
    n = spec.num_devices
    per = ing.shape[2]
    elems = per * CHUNK_ELEMS
    codes = np.empty(ing.shape, dtype=np.uint8)
    for d in range(n):
        codes[d] = encode(ing[d], codec)
    out_shards = []
    # The full-loop raw split: each ring carries half of every shard's elements.
    for s, arcs in enumerate(schedule.rs_arcs(Variant.FULL_LOOP, n, elems)):
        halves = []
        for arc in arcs:
            loc = lambda d, s=s, r=arc.units: codes[d, s].reshape(elems)[r.start : r.stop]
            cur = loc(arc.devices[0])
            for dev in arc.devices[1:]:
                cur = encode(decode(cur, codec) + decode(loc(dev), codec), codec)
            halves.append(cur)
        out_shards.append(round_to_bf16(decode(np.concatenate(halves), codec)))
    flat = np.concatenate(out_shards)
    flat.setflags(write=False)
    rows, cols = inputs[0].rows, inputs[0].cols
    return [TensorBuf(flat, rows, cols) for _ in range(n)]
