"""Experiment harnesses: error/speedup trade-off studies and size sweeps.

Per-device inputs are standard normal, generated by numpy's PCG64
(np.random.default_rng) with seed = base_seed + device_index, so every
reported number is exactly reproducible from (seed, shape, N, flavor).
MSE against the BF16 baseline accumulates in float64 in a fixed order (see
`mse`).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .collectives import (
    CollectiveConfig,
    Variant,
    all_reduce,
    baseline_allreduce_bf16,
    naive_lowp_allreduce,
    reduce_scatter,
)
from .layout import CHUNK_ELEMS, PartitionSpec, ShapeMismatchError, TensorBuf
from .numerics import Codec
from .presets import DEFAULT_PRESET, load_preset
from .simnet import ComputeParams, LinkParams, simulate, simulate_naive

# flavor -> (variant, quantize_rs, quantize_ag)
_FLAVOR_DEFS = {
    "full_rs": (Variant.FULL_LOOP, True, False),
    "full_ag": (Variant.FULL_LOOP, False, True),
    "full_both": (Variant.FULL_LOOP, True, True),
    "semi_rs": (Variant.SEMI_LOOP, True, False),
    "semi_ag": (Variant.SEMI_LOOP, False, True),
    "semi_both": (Variant.SEMI_LOOP, True, True),
}

FLAVORS = ("baseline", "naive", *_FLAVOR_DEFS)

CSV_COLUMNS = (
    "flavor",
    "variant",
    "stages",
    "codec",
    "N",
    "rows",
    "cols",
    "m",
    "u",
    "seed",
    "mse",
    "predicted_speedup",
)

SWEEP_COLUMNS = ("size_bytes", "flavor_time_s", "baseline_time_s", "ratio")

# mse's one float64 buffer (128 Ki elements, 1 MiB) and its summation lanes.
_MSE_BUF_ELEMS = 128 * 1024
_MSE_LANES = 1024


def stages_tag(quantize_rs: bool, quantize_ag: bool) -> str:
    """Which ring stages are quantized: none, rs, ag or both."""
    return {(False, False): "none", (True, False): "rs",
            (False, True): "ag", (True, True): "both"}[(quantize_rs, quantize_ag)]


def mse(a, b) -> float:
    """Mean squared elementwise difference, summed in float64 in a fixed order.

    The inputs stream through one float64 buffer of _MSE_BUF_ELEMS, so
    the memory does not grow with their size. Element k's square
    (a[k] - b[k])**2, computed in float64, goes to lane k % _MSE_LANES; each
    lane adds its squares in index order, and `math.fsum` adds the lanes
    exactly. No step depends on the build's SIMD paths, so the result is
    the same on every NumPy build.

    A NaN difference (a NaN input, or the same infinity in both) gives NaN;
    otherwise an infinite difference, or a square or sum past the float64
    range, gives inf. No NumPy warning is raised. Empty inputs raise
    ValueError.
    """
    da = a.data if isinstance(a, TensorBuf) else np.asarray(a)
    db = b.data if isinstance(b, TensorBuf) else np.asarray(b)
    if da.shape != db.shape:
        raise ShapeMismatchError(f"shapes {da.shape} and {db.shape} differ")
    n = da.size
    if n == 0:
        raise ValueError("mse of empty inputs")
    da, db = da.reshape(-1), db.reshape(-1)
    # Row 0 carries the lane sums; each pass fills rows 1.. with the next
    # squares and adds the rows down each lane, row 0 first.
    buf = np.empty((_MSE_BUF_ELEMS // _MSE_LANES, _MSE_LANES))
    buf[0] = 0.0
    flat = buf[1:].reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, n, flat.size):
            c = min(flat.size, n - i)
            np.subtract(da[i:i + c], db[i:i + c], out=flat[:c], dtype=np.float64)
            rows = -(-c // _MSE_LANES)
            flat[c:rows * _MSE_LANES] = 0.0
            sq = flat[:rows * _MSE_LANES]
            sq *= sq
            buf[0] = np.add.reduce(buf[:rows + 1], axis=0)
    lanes = buf[0].tolist()
    try:
        total = math.fsum(lanes)
    except OverflowError:  # an exact partial sum is past float64; NaN lanes still win
        total = math.nan if any(map(math.isnan, lanes)) else math.inf
    return total / n


def device_inputs(rows: int, cols: int, num_devices: int, seed: int) -> list[TensorBuf]:
    """Standard-normal float32 tensors; device d draws from PCG64(seed + d)."""
    out = []
    for d in range(num_devices):
        rng = np.random.default_rng(seed + d)
        out.append(TensorBuf(rng.standard_normal(rows * cols, dtype=np.float32), rows, cols))
    return out


def _fill_params(link: LinkParams | None,
                 compute: ComputeParams | None) -> tuple[LinkParams, ComputeParams]:
    """Take a missing link or compute model from DEFAULT_PRESET."""
    if link is None or compute is None:
        p_link, p_compute = load_preset(DEFAULT_PRESET)
        link, compute = link or p_link, compute or p_compute
    return link, compute


def auto_minishards(total_elems: int, num_devices: int) -> int:
    """gcd(p, max(1, p // 64)) for p chunks per shard: equal minishards of at
    least 64 chunks when p >= 64, but not the most of them (p = 200 gives 1)."""
    per_shard = total_elems // CHUNK_ELEMS // num_devices
    return math.gcd(per_shard, max(1, per_shard // 64))


@dataclass(frozen=True)
class FlavorResult:
    # The fields are in CSV_COLUMNS order.
    flavor: str
    variant: str
    stages: str
    codec: str
    num_devices: int
    rows: int
    cols: int
    minishards: int
    microshards: int
    seed: int
    mse: float
    predicted_speedup: float

    def to_row(self) -> dict:
        return dict(zip(CSV_COLUMNS, astuple(self)))


def tradeoff_study(
    rows: int,
    cols: int,
    num_devices: int = 8,
    codec: Codec = Codec.INT8,
    seed: int = 0,
    minishards: int | None = None,
    microshards: int = 2,
    link: LinkParams | None = None,
    compute: ComputeParams | None = None,
) -> list[FlavorResult]:
    """Run all 8 flavors on identical inputs; MSE vs baseline plus predicted speedup.

    Flavors that agree on (variant, quantize_rs) share one reduce-scatter:
    the baseline and full_ag share the BF16 full loop, full_rs and full_both
    the quantized full loop, semi_rs and semi_both the quantized semi loop.
    The work runs group by group, and each shared result is dropped after
    its last flavor's collective, before that flavor's MSE, so at most one
    is live; each flavor's output is dropped right after its MSE. Beyond the
    inputs, the study holds at most three tensors at once (the baseline's
    output, one shared reduce-scatter and one flavor's output) plus the
    MSE's fixed buffer. Rows come out in FLAVORS order.
    """
    link, compute = _fill_params(link, compute)
    m = minishards if minishards is not None else auto_minishards(rows * cols, num_devices)
    spec = PartitionSpec(num_devices, m, microshards)
    inputs = device_inputs(rows, cols, num_devices, seed)
    tensor_bytes = rows * cols * 2

    base_cfg = CollectiveConfig(Variant.FULL_LOOP, spec)
    t_base = simulate(base_cfg, tensor_bytes, link, compute).total_time

    def result(flavor, variant, stages, codec_name, err, t_flavor):
        return FlavorResult(
            flavor, variant.value, stages, codec_name, num_devices, rows, cols,
            m, microshards, seed, err, t_base / t_flavor,
        )

    out = {"baseline": result("baseline", Variant.FULL_LOOP, "none", "bf16", 0.0, t_base)}
    cfgs = {flavor: CollectiveConfig(variant, spec, quantize_rs=q_rs, quantize_ag=q_ag, codec=codec)
            for flavor, (variant, q_rs, q_ag) in _FLAVOR_DEFS.items()}
    # The baseline's group runs first: every MSE compares with its output.
    groups = {(Variant.FULL_LOOP, False): ["baseline"]}
    for flavor, cfg in cfgs.items():
        groups.setdefault((cfg.variant, cfg.quantize_rs), []).append(flavor)

    for (variant, q_rs), flavors in groups.items():
        reduced = reduce_scatter(inputs, CollectiveConfig(variant, spec, quantize_rs=q_rs,
                                                          codec=codec))
        for flavor in flavors:
            if flavor == "baseline":
                base_out = baseline_allreduce_bf16(inputs, spec, reduced=reduced)[0]
                continue
            cfg = cfgs[flavor]
            flavor_out = all_reduce(inputs, cfg, reduced=reduced)[0]
            if flavor == flavors[-1]:
                reduced = None  # freed before the MSE
            err = mse(base_out, flavor_out)
            del flavor_out  # freed before the next collective
            t_flavor = simulate(cfg, tensor_bytes, link, compute).total_time
            out[flavor] = result(flavor, variant, stages_tag(q_rs, cfg.quantize_ag), codec.value,
                                 err, t_flavor)

    err = mse(base_out, naive_lowp_allreduce(inputs, Codec.F8E5M2, spec)[0])
    t_naive = simulate_naive(spec, tensor_bytes, link, compute).total_time
    out["naive"] = result("naive", Variant.FULL_LOOP, "cast", Codec.F8E5M2.value, err, t_naive)
    return [out[flavor] for flavor in FLAVORS]


@dataclass(frozen=True)
class SweepPoint:
    size_bytes: int
    flavor_time_s: float
    baseline_time_s: float
    ratio: float

    def to_row(self) -> dict:
        return asdict(self)


def size_sweep(
    sizes: list[int],
    variant: Variant = Variant.FULL_LOOP,
    codec: Codec = Codec.INT8,
    num_devices: int = 8,
    quantize_rs: bool = True,
    quantize_ag: bool = True,
    minishards: int | None = None,
    microshards: int = 2,
    link: LinkParams | None = None,
    compute: ComputeParams | None = None,
) -> list[SweepPoint]:
    """Predicted flavor-vs-baseline time ratio per tensor size (BF16 bytes).

    With minishards unset each size picks its own block-preserving count, the
    same rule tradeoff_study uses.
    """
    link, compute = _fill_params(link, compute)
    out = []
    for size in sizes:
        elems = size // 2
        m = minishards if minishards is not None else auto_minishards(elems, num_devices)
        spec = PartitionSpec(num_devices, m, microshards)
        cfg = CollectiveConfig(variant, spec, quantize_rs=quantize_rs,
                               quantize_ag=quantize_ag, codec=codec)
        t_base = simulate(CollectiveConfig(Variant.FULL_LOOP, spec), size, link, compute).total_time
        t_flavor = simulate(cfg, size, link, compute).total_time
        out.append(SweepPoint(size, t_flavor, t_base, t_flavor / t_base))
    return out


def render_csv(rows: list[dict], columns) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


def render_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2) + "\n"
