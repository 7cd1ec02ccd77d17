"""Command-line front end.

One JSON config document drives every subcommand; individual flags override
config-file fields, which override the named preset. Unknown keys anywhere in
the config are rejected rather than ignored.

Exit codes: 0 success, 2 config/validation problems (bad JSON, unknown or
ill-typed fields, bad enum values), 3 domain errors from the collective
itself (divisibility, odd-N semi loop, missing or mismatched shards).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import (
    CSV_COLUMNS,
    SWEEP_COLUMNS,
    auto_minishards,
    device_inputs,
    mse,
    render_csv,
    render_json,
    size_sweep,
    stages_tag,
    tradeoff_study,
)
from .collectives import (
    CollectiveConfig,
    SemiLoopOddNError,
    Variant,
    all_reduce,
    baseline_allreduce_bf16,
    naive_lowp_allreduce,
)
from .layout import (
    DivisibilityError,
    MissingShardError,
    PartitionSpec,
    ShapeMismatchError,
)
from .numerics import Codec
from .presets import DEFAULT_PRESET, available_presets, load_preset
from .simnet import (
    ComputeParams,
    LinkParams,
    Timeline,
    idle_time,
    lower_bound,
    simulate,
    simulate_naive,
)

MIB = 1 << 20

TIMELINE_COLUMNS = ("device", "resource", "start_s", "end_s", "label")


class ConfigError(ValueError):
    """Raised for malformed, unknown, or ill-typed configuration."""


@dataclass
class RunConfig:
    variant: str = "full_loop"
    quantize_rs: bool = True
    quantize_ag: bool = True
    codec: str = "int8"
    naive: bool = False
    num_devices: int = 8
    rows: int = 4096
    cols: int = 4096
    minishards_per_shard: int | None = None
    microshards_per_minishard: int = 2
    seed: int = 0
    preset: str = DEFAULT_PRESET
    link: dict = field(default_factory=dict)
    compute: dict = field(default_factory=dict)
    sizes: list = field(default_factory=lambda: [MIB << i for i in range(9)])
    output: str | None = None
    format: str | None = None  # per-command default: JSONL for timeline, CSV otherwise
    timestamp: bool = False


# Each setting's name and type live only in its dataclass annotation.
_CONFIG_TYPES = typing.get_type_hints(RunConfig)
_LINK_TYPES = typing.get_type_hints(LinkParams)
_COMPUTE_TYPES = typing.get_type_hints(ComputeParams)
_SCOPES = (("link", _LINK_TYPES), ("compute", _COMPUTE_TYPES))

_VARIANTS = {v.value for v in Variant}
_CODECS = {c.value for c in Codec}
_FORMATS = {"csv", "json"}
# Smallest legal value of each count field; an unset minishard count is chosen later.
_MINIMUM = {"num_devices": 2, "rows": 1, "cols": 1, "minishards_per_shard": 1,
            "microshards_per_minishard": 1}


def parse_size(token) -> int:
    """Byte count from an int or a string like '4MiB', '512KiB', '1GiB'."""
    if isinstance(token, bool):
        raise ConfigError(f"bad size value {token!r}")
    if isinstance(token, int):
        return token
    text = str(token).strip()
    mult = 1
    for suffix, m in (("KiB", 1 << 10), ("MiB", 1 << 20), ("GiB", 1 << 30)):
        if text.endswith(suffix):
            text, mult = text[: -len(suffix)], m
            break
    try:
        return int(text) * mult
    except ValueError:
        raise ConfigError(f"bad size value {token!r}") from None


def _size_tokens(text: str) -> list[str]:
    """Split a --sizes comma list; parse_size reads each token later."""
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _check_type(name, value, hint):
    """Raise unless value fits hint; ints pass for float, bools only for bool."""
    kinds = typing.get_args(hint) or (hint,)
    if float in kinds:
        kinds += (int,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ConfigError(f"field '{name}' has wrong type {type(value).__name__}")


def _validate(cfg: RunConfig) -> RunConfig:
    for name, hint in _CONFIG_TYPES.items():
        _check_type(name, getattr(cfg, name), hint)
    for scope, types in _SCOPES:
        for key, val in getattr(cfg, scope).items():
            if key not in types:
                raise ConfigError(f"unknown {scope} field '{key}'")
            _check_type(f"{scope}.{key}", val, types[key])
    for name, allowed in (("variant", _VARIANTS), ("codec", _CODECS), ("format", _FORMATS),
                          ("preset", available_presets())):
        val = getattr(cfg, name)
        if val is not None and val not in allowed:
            raise ConfigError(f"field '{name}' must be one of {sorted(allowed)}, got {val!r}")
    for name, low in _MINIMUM.items():
        val = getattr(cfg, name)
        if val is not None and val < low:
            raise ConfigError(f"field '{name}' must be >= {low}, got {val}")
    cfg.sizes = [parse_size(s) for s in cfg.sizes]
    return cfg


def load_config_file(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config JSON parse error at line {e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    for key in doc:
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"unknown config field '{key}'")
    return doc


def build_config(args: argparse.Namespace) -> RunConfig:
    """Flags (argparse dests named after fields) override the config file."""
    cfg = RunConfig(**load_config_file(args.config)) if args.config else RunConfig()
    for key, val in vars(args).items():
        if val is None or key in ("command", "config"):
            continue
        scope = next((name for name, types in _SCOPES if key in types), None)
        if scope is None:
            setattr(cfg, key, val)
        else:
            _check_type(scope, getattr(cfg, scope), _CONFIG_TYPES[scope])
            setattr(cfg, scope, {**getattr(cfg, scope), key: val})
    return _validate(cfg)


def resolve_params(cfg: RunConfig) -> tuple[LinkParams, ComputeParams]:
    link, compute = load_preset(cfg.preset)
    try:
        return dataclasses.replace(link, **cfg.link), dataclasses.replace(compute, **cfg.compute)
    except ValueError as e:  # the dataclasses reject out-of-range rates and latencies
        raise ConfigError(str(e)) from None


def _partition_spec(cfg: RunConfig) -> PartitionSpec:
    m = cfg.minishards_per_shard
    if m is None:
        m = auto_minishards(cfg.rows * cfg.cols, cfg.num_devices)
    return PartitionSpec(cfg.num_devices, m, cfg.microshards_per_minishard)


def _collective_config(cfg: RunConfig, spec: PartitionSpec) -> CollectiveConfig:
    return CollectiveConfig(Variant(cfg.variant), spec, quantize_rs=cfg.quantize_rs,
                            quantize_ag=cfg.quantize_ag, codec=Codec(cfg.codec))


def _timeline(cfg: RunConfig, spec: PartitionSpec, link: LinkParams,
              compute: ComputeParams) -> Timeline:
    tensor_bytes = cfg.rows * cfg.cols * 2
    if cfg.naive:
        return simulate_naive(spec, tensor_bytes, link, compute)
    return simulate(_collective_config(cfg, spec), tensor_bytes, link, compute)


def _render(rows: list[dict], columns, cfg: RunConfig) -> str:
    if cfg.timestamp:
        now = time.time()
        rows = [dict(r, timestamp=now) for r in rows]
        columns = (*columns, "timestamp")
    if cfg.format == "json":
        return render_json(rows)
    return render_csv(rows, columns)


def cmd_simulate(cfg: RunConfig) -> str:
    link, compute = resolve_params(cfg)
    spec = _partition_spec(cfg)
    inputs = device_inputs(cfg.rows, cfg.cols, cfg.num_devices, cfg.seed)
    base_out = baseline_allreduce_bf16(inputs, spec)[0]
    if cfg.naive:
        out = naive_lowp_allreduce(inputs, Codec(cfg.codec), spec)[0]
    else:
        out = all_reduce(inputs, _collective_config(cfg, spec))[0]
    tl = _timeline(cfg, spec, link, compute)
    row = {
        "variant": cfg.variant,
        "stages": "cast" if cfg.naive else stages_tag(cfg.quantize_rs, cfg.quantize_ag),
        "codec": cfg.codec,
        "N": cfg.num_devices,
        "rows": cfg.rows,
        "cols": cfg.cols,
        "m": spec.minishards_per_shard,
        "u": spec.microshards_per_minishard,
        "seed": cfg.seed,
        "mse": mse(base_out, out),
        "total_time_s": tl.total_time,
        "idle_time_s": idle_time(tl),
    }
    return _render([row], tuple(row), cfg)


def cmd_tradeoff(cfg: RunConfig) -> str:
    link, compute = resolve_params(cfg)
    results = tradeoff_study(
        cfg.rows, cfg.cols, cfg.num_devices, codec=Codec(cfg.codec), seed=cfg.seed,
        minishards=cfg.minishards_per_shard, microshards=cfg.microshards_per_minishard,
        link=link, compute=compute,
    )
    return _render([r.to_row() for r in results], CSV_COLUMNS, cfg)


def cmd_sweep(cfg: RunConfig) -> str:
    link, compute = resolve_params(cfg)
    points = size_sweep(
        cfg.sizes, variant=Variant(cfg.variant), codec=Codec(cfg.codec),
        num_devices=cfg.num_devices, quantize_rs=cfg.quantize_rs, quantize_ag=cfg.quantize_ag,
        minishards=cfg.minishards_per_shard, microshards=cfg.microshards_per_minishard,
        link=link, compute=compute,
    )
    return _render([p.to_row() for p in points], SWEEP_COLUMNS, cfg)


def cmd_timeline(cfg: RunConfig) -> str:
    tl = _timeline(cfg, _partition_spec(cfg), *resolve_params(cfg))
    if cfg.format == "csv":
        rows = [dict(zip(TIMELINE_COLUMNS, r)) for r in zip(*tl.columns)]
        return _render(rows, TIMELINE_COLUMNS, cfg)
    return tl.to_jsonl()


def cmd_bounds(cfg: RunConfig) -> str:
    link, _ = resolve_params(cfg)
    d_bytes = cfg.rows * cfg.cols * 2
    row = {
        "N": cfg.num_devices,
        "tensor_bytes": d_bytes,
        "bandwidth_bytes_per_s": link.bandwidth_bytes_per_s,
        "full_loop_bound_s": lower_bound(Variant.FULL_LOOP, cfg.num_devices,
                                         d_bytes, link.bandwidth_bytes_per_s),
        "semi_loop_bound_s": lower_bound(Variant.SEMI_LOOP, cfg.num_devices,
                                         d_bytes, link.bandwidth_bytes_per_s),
    }
    return _render([row], tuple(row), cfg)


COMMANDS = {
    "simulate": cmd_simulate,
    "tradeoff": cmd_tradeoff,
    "sweep": cmd_sweep,
    "timeline": cmd_timeline,
    "bounds": cmd_bounds,
}


def _build_parser() -> argparse.ArgumentParser:
    # Each flag's dest is the RunConfig, LinkParams or ComputeParams field it sets.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config document")
    common.add_argument("--seed", type=int)
    common.add_argument("--preset")
    common.add_argument("--output", help="result file path (default: stdout)")
    common.add_argument("--format", choices=sorted(_FORMATS))
    common.add_argument("--timestamp", action=argparse.BooleanOptionalAction)
    common.add_argument("--variant", choices=sorted(_VARIANTS))
    common.add_argument("--codec", choices=sorted(_CODECS))
    common.add_argument("--quantize-rs", action=argparse.BooleanOptionalAction)
    common.add_argument("--quantize-ag", action=argparse.BooleanOptionalAction)
    common.add_argument("--naive", action=argparse.BooleanOptionalAction)
    common.add_argument("--num-devices", type=int)
    common.add_argument("--rows", type=int)
    common.add_argument("--cols", type=int)
    common.add_argument("--minishards", type=int, dest="minishards_per_shard",
                        metavar="MINISHARDS")
    common.add_argument("--microshards", type=int, dest="microshards_per_minishard",
                        metavar="MICROSHARDS")
    common.add_argument("--bandwidth", type=float, dest="bandwidth_bytes_per_s",
                        metavar="BANDWIDTH")
    common.add_argument("--hop-latency", type=float, dest="hop_latency_s", metavar="HOP_LATENCY")
    common.add_argument("--dequant-rate", type=float)
    common.add_argument("--add-rate", type=float)
    common.add_argument("--scan-rate", type=float)
    common.add_argument("--encode-rate", type=float)
    common.add_argument("--cast-rate", type=float)
    common.add_argument("--fuse-recv-pass", action=argparse.BooleanOptionalAction)
    common.add_argument("--sizes", type=_size_tokens,
                        help="comma list of sizes for sweep, e.g. '1MiB,4MiB,64MiB'")

    parser = argparse.ArgumentParser(
        prog="qarsim",
        description="Quantized ring AllReduce: functional reference plus performance simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common],
                   help="one flavor end to end: MSE vs baseline, total and idle time")
    sub.add_parser("tradeoff", parents=[common],
                   help="all flavors on identical inputs: MSE and predicted speedup")
    sub.add_parser("sweep", parents=[common],
                   help="flavor-vs-baseline time ratio across tensor sizes")
    sub.add_parser("timeline", parents=[common],
                   help="per-event schedule of one simulated run (JSONL by default)")
    sub.add_parser("bounds", parents=[common],
                   help="bandwidth lower bounds for both ring variants")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = build_config(args)
        if cfg.format is None:
            cfg.format = "json" if args.command == "timeline" else "csv"
        text = COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DivisibilityError, SemiLoopOddNError, MissingShardError, ShapeMismatchError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3
    if cfg.output:
        Path(cfg.output).write_text(text)
    else:
        print(text, end="")
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
