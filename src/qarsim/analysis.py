"""Experiment harnesses: error/speedup trade-off studies and size sweeps.

Each returns one dataclass per table row (`FlavorResult`, `SweepPoint`),
whose fields are the table's columns in order; `qarsim.cli` writes the rows
as CSV or JSON.

Per-device inputs are BF16 tensors: device d's are the BF16 roundings
(`numerics.bf16_bits`) of float32 standard normals from numpy's PCG64
(np.random.default_rng) with seed = base_seed + d, so every reported
number is exactly reproducible from (seed, shape, N, flavor). They are
drawn and rounded one tile at a time, so no float32 copy of an input is
ever made, and the devices are drawn on one thread per usable CPU (at
most N, started and joined within the call). A device's bits depend on
its own stream alone, so they are the same whatever the thread count.
MSE against the BF16 baseline accumulates in float64 in a fixed order (see
`blockwise_mse`), the same wherever its input is split into blocks of whole
lane rows, so `flavor_mses`, through which both the tradeoff study and
`qarsim simulate` measure, streams each all-gather into it one minishard at
a time against the baseline, which it keeps as BF16 bits.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from itertools import starmap

import numpy as np

# all_reduce and naive_lowp_allreduce are not called here, but stay bound in
# this module: perfbench/harness.py binds its output checks to them here.
from .collectives import (  # noqa: F401
    STAGES,
    CollectiveConfig,
    Variant,
    all_reduce,
    baseline_allreduce_bf16,
    gather_blocks,
    naive_lowp_allreduce,
    reduce_scatter,
)
from .layout import CHUNK_ELEMS, Bf16Tensor, PartitionSpec, ShapeMismatchError, TensorBuf
from .numerics import Codec, bf16_bits
from .presets import DEFAULT_PRESET, load_preset
from .simnet import ComputeParams, LinkParams, bf16_elements, simulate, simulate_naive

# flavor -> (variant, its `STAGES` tag)
_FLAVOR_DEFS = {
    "full_rs": (Variant.FULL_LOOP, "rs"),
    "full_ag": (Variant.FULL_LOOP, "ag"),
    "full_both": (Variant.FULL_LOOP, "both"),
    "semi_rs": (Variant.SEMI_LOOP, "rs"),
    "semi_ag": (Variant.SEMI_LOOP, "ag"),
    "semi_both": (Variant.SEMI_LOOP, "both"),
}

FLAVORS = ("baseline", "naive", *_FLAVOR_DEFS)

_DEFAULT_LINK, _DEFAULT_COMPUTE = load_preset(DEFAULT_PRESET)

# mse's one float64 buffer (128 Ki elements, 1 MiB) and its summation lanes.
_MSE_BUF_ELEMS = 128 * 1024
_MSE_LANES = 1024
# device_inputs draws and rounds this many elements at a time.
_INGEST_TILE = 64 * 1024

# The most input bytes (N*rows*cols BF16 elements) `device_inputs` allocates: 2 GiB.
# A run holds its inputs whole and peaks at about 1.5x them (391 MiB for the
# 256 MiB of the shipped 4096x4096, N=8 study), so this keeps any run near 3 GiB,
# where a larger one would exhaust the memory of a typical host; the shipped
# study sits 8x under it, the perfbench workloads 32x or more.
INPUT_BUDGET = 1 << 31


class InputBudgetError(ValueError):
    """Inputs whose N*rows*cols*2 bytes pass `INPUT_BUDGET`."""


def mse(a, b) -> float:
    """Mean squared elementwise difference, summed in float64 in a fixed order.

    Each input is a TensorBuf or an array; this is `blockwise_mse` of the
    one pair (a, b).
    """
    return blockwise_mse([tuple(x.data if isinstance(x, TensorBuf) else np.asarray(x)
                                for x in (a, b))])


def blockwise_mse(pairs) -> float:
    """`mse` of two arrays given as consecutive block pairs (a_k, b_k), in order.

    The blocks stream through one float64 buffer of _MSE_BUF_ELEMS, so the
    memory does not grow with their size. Element k's square
    (a[k] - b[k])**2, computed in float64, goes to lane k % _MSE_LANES; each
    lane adds its squares in index order, and `math.fsum` adds the lanes
    exactly. Every block but the last holds a whole number of _MSE_LANES
    elements, so the lanes and their order, and with them the result, do not
    depend on where the blocks split. No step depends on the build's SIMD
    paths, so the result is the same on every NumPy build.

    A NaN difference (a NaN input, or the same infinity in both) gives NaN;
    otherwise an infinite difference, or a square or sum past the float64
    range, gives inf. No NumPy warning is raised. Empty inputs raise
    ValueError.
    """
    # Row 0 carries the lane sums; each pass fills rows 1.. with the next
    # squares and adds the rows down each lane, row 0 first.
    buf = np.empty((_MSE_BUF_ELEMS // _MSE_LANES, _MSE_LANES))
    buf[0] = 0.0
    flat = buf[1:].reshape(-1)
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in pairs:
            if a.shape != b.shape:
                raise ShapeMismatchError(f"shapes {a.shape} and {b.shape} differ")
            if n % _MSE_LANES:
                raise ValueError(f"only the last block may end inside a lane row; one ended "
                                 f"{n % _MSE_LANES} elements into row {n // _MSE_LANES}")
            a, b = a.reshape(-1), b.reshape(-1)
            for i in range(0, a.size, flat.size):
                c = min(flat.size, a.size - i)
                np.subtract(a[i:i + c], b[i:i + c], out=flat[:c], dtype=np.float64)
                rows = -(-c // _MSE_LANES)
                flat[c:rows * _MSE_LANES] = 0.0
                sq = flat[:rows * _MSE_LANES]
                sq *= sq
                buf[0] = np.add.reduce(buf[:rows + 1], axis=0)
            n += a.size
            del a, b  # dropped before the next pair is made
    if n == 0:
        raise ValueError("mse of empty inputs")
    lanes = buf[0].tolist()
    try:
        total = math.fsum(lanes)
    except OverflowError:  # an exact partial sum is past float64; NaN lanes still win
        total = math.nan if any(map(math.isnan, lanes)) else math.inf
    return total / n


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def device_inputs(rows: int, cols: int, num_devices: int, seed: int) -> list[Bf16Tensor]:
    """BF16 standard-normal tensors; device d's are the BF16 roundings of the
    float32 normals PCG64(seed + d) draws.

    The devices are dealt round-robin to k = min(num_devices, usable CPUs)
    threads, the calling thread among them; PCG64's fill and the rounding
    release the GIL, so the threads draw at once. Each thread draws its
    devices' normals _INGEST_TILE at a time into its own reused float32
    buffer, the same stream as one draw of them all, and rounds each tile
    straight into that device's bits. A device's bits depend only on
    PCG64(seed + d), so they are the same for every k. The devices' bits
    are rows of one array: one large allocation, which NumPy backs with
    huge pages where the OS allows, so writing it first costs fewer page
    faults. Every thread is joined before the call returns, and then the
    first error a drawing thread raised is raised here. Inputs past
    `INPUT_BUDGET` raise `InputBudgetError` before anything is allocated.
    """
    n = rows * cols
    if num_devices * n * 2 > INPUT_BUDGET:
        raise InputBudgetError(f"inputs of N*rows*cols*2 = {num_devices * n * 2} bytes (N="
                               f"{num_devices}, rows={rows}, cols={cols}) pass the input budget "
                               f"of {INPUT_BUDGET} bytes")
    block = np.empty((num_devices, n), np.uint16)
    k = max(1, min(num_devices, _usable_cpus()))  # one thread even for no devices

    errors = []

    def draw(first: int) -> None:
        try:
            buf = np.empty(min(n, _INGEST_TILE), np.float32)
            scratch = np.empty(buf.size, np.uint32)
            for d in range(first, num_devices, k):
                bits = block[d]
                rng = np.random.default_rng(seed + d)
                for i in range(0, n, _INGEST_TILE):
                    c = min(_INGEST_TILE, n - i)
                    rng.standard_normal(dtype=np.float32, out=buf[:c])
                    bf16_bits(buf[:c], bits[i:i + c], scratch[:c])
        except BaseException as e:  # raised in the caller once every thread is joined
            errors.append(e)

    workers = []
    try:
        for first in range(1, k):
            t = threading.Thread(target=draw, args=(first,))
            t.start()
            workers.append(t)
        draw(0)
    finally:
        for t in workers:
            t.join()
    if errors:
        raise errors[0]
    return [Bf16Tensor(bits, rows, cols) for bits in block]


def auto_minishards(total_elems: int, num_devices: int) -> int:
    """gcd(p, max(1, p // 64)) for p chunks per shard: equal minishards of at
    least 64 chunks when p >= 64, but not the most of them (p = 200 gives 1)."""
    per_shard = total_elems // CHUNK_ELEMS // num_devices
    return math.gcd(per_shard, max(1, per_shard // 64))


def partition(elements: int, num_devices: int, minishards: int | None = None,
              microshards: int = 2) -> PartitionSpec:
    """`elements` cut over `num_devices` into `minishards` per shard (unset:
    `auto_minishards`) of `microshards`, checked before any input or walk."""
    m = minishards if minishards is not None else auto_minishards(elements, num_devices)
    spec = PartitionSpec(num_devices, m, microshards)
    spec.validate_element_count(elements)
    return spec


@dataclass(frozen=True)
class FlavorResult:
    """One row of the tradeoff table; its fields are the table's columns, in order."""

    flavor: str
    variant: str
    stages: str
    codec: str
    N: int
    rows: int
    cols: int
    m: int
    u: int
    seed: int
    mse: float
    predicted_speedup: float


def flavor_mses(inputs: list[Bf16Tensor], spec: PartitionSpec,
                cfgs: list[CollectiveConfig]) -> list[float]:
    """Each config's MSE against the baseline (the BF16 full loop over `spec`), in
    `cfgs` order.

    Configs that agree on variant, quantize_rs and cast, and on codec when
    a reduce-scatter stage is quantized or cast, share one reduce-scatter.
    These run one at a time, the baseline's first (`baseline_allreduce_bf16`,
    whose output is its own reduce-scatter), and each is dropped after its
    group. The baseline's all-gather is kept as BF16 bits; every other
    all-gather streams one minishard at a time (`gather_blocks`) into
    `blockwise_mse` against it, so no output is built. Beyond the inputs,
    this holds at most one reduce-scatter, the baseline's bits (half a
    float32 tensor) and the MSE's fixed buffer.
    """
    base = CollectiveConfig(Variant.FULL_LOOP, spec)
    groups = {base: [None]}  # None is the baseline: every MSE compares with its output
    for i, cfg in enumerate(cfgs):
        rs_cfg = replace(cfg, quantize_ag=False,
                         codec=cfg.codec if cfg.quantize_rs or cfg.cast else base.codec)
        groups.setdefault(rs_cfg, []).append(i)

    errs = [0.0] * len(cfgs)
    for rs_cfg, members in groups.items():
        reduced = (baseline_allreduce_bf16(inputs, spec)[0].data if rs_cfg == base
                   else reduce_scatter(inputs, rs_cfg))
        for i in members:
            if i is None:  # each block's bits written where it goes
                bits = np.empty(inputs[0].bits.size, np.uint16)
                for part, block in gather_blocks(reduced, base):
                    bf16_bits(block, bits[part])
                del block  # a view of reduced, which must not outlive its group
                baseline = Bf16Tensor(bits, inputs[0].rows, inputs[0].cols)
            else:  # starmap keeps no block alive while it makes the next pair
                errs[i] = blockwise_mse(starmap(lambda part, block: (baseline.values(part), block),
                                                gather_blocks(reduced, cfgs[i])))
        del reduced  # freed before the next reduce-scatter
    return errs


def tradeoff_study(
    rows: int,
    cols: int,
    num_devices: int = 8,
    codec: Codec = Codec.INT8,
    seed: int = 0,
    minishards: int | None = None,
    microshards: int = 2,
    link: LinkParams = _DEFAULT_LINK,
    compute: ComputeParams = _DEFAULT_COMPUTE,
) -> list[FlavorResult]:
    """Run all 8 flavors on identical inputs; MSE vs baseline plus predicted speedup.

    The times come first, so no input is drawn for a run they refuse; the
    MSEs come from one `flavor_mses` call, the naive ring's in F8E5M2, so no
    flavor output is built. Rows come out in FLAVORS order. The naive ring
    is timed through `simulate_naive`, whose timeline perfbench checks.
    """
    spec = partition(rows * cols, num_devices, minishards, microshards)
    m = spec.minishards_per_shard
    cfgs = [CollectiveConfig(Variant.FULL_LOOP, spec, codec=Codec.F8E5M2, cast=True),
            *(CollectiveConfig(variant, spec, codec=codec, **STAGES[stages])
              for variant, stages in _FLAVOR_DEFS.values())]
    tensor_bytes = rows * cols * 2
    base = CollectiveConfig(Variant.FULL_LOOP, spec)
    t_base = simulate(base, tensor_bytes, link, compute).total_time
    times = [simulate_naive(spec, tensor_bytes, link, compute).total_time,
             *(simulate(cfg, tensor_bytes, link, compute).total_time for cfg in cfgs[1:])]
    errs = flavor_mses(device_inputs(rows, cols, num_devices, seed), spec, cfgs)
    return [FlavorResult("baseline", base.variant.value, base.stages, "bf16", num_devices, rows,
                         cols, m, microshards, seed, 0.0, 1.0),
            *(FlavorResult(flavor, cfg.variant.value, cfg.stages, cfg.codec.value,
                           num_devices, rows, cols, m, microshards, seed, err, t_base / t)
              for flavor, cfg, err, t in zip(FLAVORS[1:], cfgs, errs, times))]


@dataclass(frozen=True)
class SweepPoint:
    """One row of the size sweep; its fields are the sweep's columns, in order."""

    size_bytes: int
    flavor_time_s: float
    baseline_time_s: float
    ratio: float


def size_sweep(
    sizes: list[int],
    variant: Variant = Variant.FULL_LOOP,
    codec: Codec = Codec.INT8,
    num_devices: int = 8,
    stages: str = "both",
    minishards: int | None = None,
    microshards: int = 2,
    link: LinkParams = _DEFAULT_LINK,
    compute: ComputeParams = _DEFAULT_COMPUTE,
) -> list[SweepPoint]:
    """Predicted flavor-vs-baseline time ratio per tensor size (BF16 bytes), the
    flavor's stages carrying `stages`, a `STAGES` tag.

    Each size is cut by `partition`, so with minishards unset it picks its
    own block-preserving count, the same rule tradeoff_study uses.
    """
    out = []
    for size in sizes:
        spec = partition(bf16_elements(size), num_devices, minishards, microshards)
        cfg = CollectiveConfig(variant, spec, codec=codec, **STAGES[stages])
        t_base = simulate(CollectiveConfig(Variant.FULL_LOOP, spec), size, link, compute).total_time
        t_flavor = simulate(cfg, size, link, compute).total_time
        out.append(SweepPoint(size, t_flavor, t_base, t_flavor / t_base))
    return out
