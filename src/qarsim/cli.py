"""Command-line front end.

One JSON config document drives every subcommand; individual flags override
config-file fields, which override the named preset. Unknown keys anywhere in
the config are rejected rather than ignored. A collective is `variant`,
`stages` and `codec`, the columns of the `tradeoff` table: `stages` is a tag of
`collectives.STAGES`, and `cast`, the naive ring's, needs the full loop.

Exit codes: 0 success, 2 config/validation problems (bad JSON, unknown or
ill-typed fields, bad enum values, a config file that cannot be read or an
output file that cannot be written, link and compute parameters under which
simulated times or bounds overflow, a schedule past the simulator's walk
budget, inputs past the input budget or too large to allocate, `cast`
stages on the semi loop, a sweep with no sizes), 3 domain errors from the
collective itself (divisibility, odd-N semi loop, mismatched shapes).
`simulate` and `tradeoff` check the cut, the configs and the simulated
times before they draw any input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import (
    FlavorResult,
    InputBudgetError,
    SweepPoint,
    device_inputs,
    flavor_mses,
    partition,
    size_sweep,
    tradeoff_study,
)
from .collectives import STAGES, CollectiveConfig, SemiLoopOddNError, Variant
from .layout import DivisibilityError, ShapeMismatchError
from .numerics import Codec
from .presets import DEFAULT_PRESET, available_presets, load_preset
# simulate_naive is not called here, but perfbench/harness.py binds its checks to it here.
from .simnet import (  # noqa: F401
    ComputeParams,
    LinkParams,
    TimelineEvent,
    WalkBudgetError,
    idle_time,
    lower_bound,
    simulate,
    simulate_naive,
)

MIB = 1 << 20

TIMELINE_COLUMNS = tuple(f.name for f in dataclasses.fields(TimelineEvent))


class ConfigError(ValueError):
    """Raised for malformed, unknown, or ill-typed configuration."""


@dataclass
class RunConfig:
    variant: str = "full_loop"
    stages: str = "both"
    codec: str = "int8"
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
_SCOPES = {"link": typing.get_type_hints(LinkParams),
           "compute": typing.get_type_hints(ComputeParams)}

# Allowed values of each enum field; the preset names come from the presets module.
_ALLOWED = {"variant": {v.value for v in Variant}, "stages": set(STAGES),
            "codec": {c.value for c in Codec}, "format": {"csv", "json"}}
# A flag is its field's name with dashes, apart from these shorter spellings.
_SHORT_FLAGS = {"minishards_per_shard": "--minishards",
                "microshards_per_minishard": "--microshards",
                "bandwidth_bytes_per_s": "--bandwidth", "hop_latency_s": "--hop-latency"}
_HELP = {"stages": "what the stages carry: " + ", ".join(STAGES),
         "output": "result file path (default: stdout)",
         "sizes": "comma list of sizes for sweep, e.g. '1MiB,4MiB,64MiB'"}
# Smallest legal value of each integer field; an unset minishard count is chosen later.
_MINIMUM = {"num_devices": 2, "rows": 1, "cols": 1, "minishards_per_shard": 1,
            "microshards_per_minishard": 1, "seed": 0}


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
    for scope, types in _SCOPES.items():
        for key, val in getattr(cfg, scope).items():
            if key not in types:
                raise ConfigError(f"unknown {scope} field '{key}'")
            _check_type(f"{scope}.{key}", val, types[key])
    for name, allowed in (*_ALLOWED.items(), ("preset", available_presets())):
        val = getattr(cfg, name)
        if val is not None and val not in allowed:
            raise ConfigError(f"field '{name}' must be one of {sorted(allowed)}, got {val!r}")
    if STAGES[cfg.stages].get("cast") and cfg.variant != Variant.FULL_LOOP.value:
        raise ConfigError(f"field 'variant' must be 'full_loop' with stages {cfg.stages!r}, "
                          f"got {cfg.variant!r}")
    for name, low in _MINIMUM.items():
        val = getattr(cfg, name)
        if val is not None and val < low:
            raise ConfigError(f"field '{name}' must be >= {low}, got {val}")
    cfg.sizes = [parse_size(s) for s in cfg.sizes]
    if min(cfg.sizes, default=1) < 1:
        raise ConfigError(f"field 'sizes' must hold sizes >= 1, got {min(cfg.sizes)}")
    return cfg


def load_config_file(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config JSON parse error at line {e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    for key in doc:
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"unknown config field '{key}'")
    return doc


def _write_output(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise ConfigError(f"cannot write output file {path}: {e.strerror or e}") from None


def build_config(args: argparse.Namespace) -> RunConfig:
    """Flags (argparse dests named after fields) override the config file."""
    cfg = RunConfig(**load_config_file(args.config)) if args.config else RunConfig()
    for key, val in vars(args).items():
        if val is None or key in ("command", "config"):
            continue
        scope = next((name for name, types in _SCOPES.items() if key in types), None)
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


def _collective_config(cfg: RunConfig) -> CollectiveConfig:
    spec = partition(cfg.rows * cfg.cols, cfg.num_devices, cfg.minishards_per_shard,
                     cfg.microshards_per_minishard)
    return CollectiveConfig(Variant(cfg.variant), spec, codec=Codec(cfg.codec),
                            **STAGES[cfg.stages])


def _render(rows: list[dict], columns, cfg: RunConfig) -> str:
    if cfg.timestamp:
        now = time.time()
        rows = [dict(r, timestamp=now) for r in rows]
        columns = (*columns, "timestamp")
    if cfg.format == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


def cmd_simulate(cfg: RunConfig) -> str:
    link, compute = resolve_params(cfg)
    ccfg = _collective_config(cfg)
    tl = simulate(ccfg, cfg.rows * cfg.cols * 2, link, compute)
    idle = idle_time(tl)  # first, so that `total_time` reads the columns it records
    total = tl.total_time  # the walk's budget and overflow checks run before any draw
    (err,) = flavor_mses(device_inputs(cfg.rows, cfg.cols, cfg.num_devices, cfg.seed),
                         ccfg.spec, [ccfg])
    row = {
        "variant": cfg.variant,
        "stages": ccfg.stages,
        "codec": cfg.codec,
        "N": cfg.num_devices,
        "rows": cfg.rows,
        "cols": cfg.cols,
        "m": ccfg.spec.minishards_per_shard,
        "u": ccfg.spec.microshards_per_minishard,
        "seed": cfg.seed,
        "mse": err,
        "total_time_s": total,
        "idle_time_s": idle,
    }
    return _render([row], tuple(row), cfg)


def cmd_tradeoff(cfg: RunConfig) -> str:
    link, compute = resolve_params(cfg)
    results = tradeoff_study(
        cfg.rows, cfg.cols, cfg.num_devices, codec=Codec(cfg.codec), seed=cfg.seed,
        minishards=cfg.minishards_per_shard, microshards=cfg.microshards_per_minishard,
        link=link, compute=compute,
    )
    return _render([dataclasses.asdict(r) for r in results],
                   [f.name for f in dataclasses.fields(FlavorResult)], cfg)


def cmd_sweep(cfg: RunConfig) -> str:
    link, compute = resolve_params(cfg)
    if not cfg.sizes:  # only the sweep reads sizes; it needs at least one
        raise ConfigError("field 'sizes' must hold at least one size")
    points = size_sweep(
        cfg.sizes, variant=Variant(cfg.variant), codec=Codec(cfg.codec),
        num_devices=cfg.num_devices, stages=cfg.stages,
        minishards=cfg.minishards_per_shard, microshards=cfg.microshards_per_minishard,
        link=link, compute=compute,
    )
    return _render([dataclasses.asdict(p) for p in points],
                   [f.name for f in dataclasses.fields(SweepPoint)], cfg)


def cmd_timeline(cfg: RunConfig) -> str:
    link, compute = resolve_params(cfg)
    tl = simulate(_collective_config(cfg), cfg.rows * cfg.cols * 2, link, compute)
    if cfg.format != "csv":
        return tl.to_jsonl()
    # `_render`'s header, then the rows it would write, straight from device 0's columns.
    constants = [time.time()] if cfg.timestamp else []
    return _render([], TIMELINE_COLUMNS, cfg) + tl.to_csv(*constants)


def cmd_bounds(cfg: RunConfig) -> str:
    """Each variant's reduce-scatter bound on its wire bytes (`lower_bound`),
    raw and quantized. On an odd ring, where the semi loop cannot run, both
    semi-loop cells are empty (CSV) or null (JSON)."""
    link, _ = resolve_params(cfg)
    spec = partition(cfg.rows * cfg.cols, cfg.num_devices, cfg.minishards_per_shard,
                     cfg.microshards_per_minishard)
    tensor_bytes = cfg.rows * cfg.cols * 2

    def bound(variant: Variant, quantized: bool) -> float | None:
        try:
            return lower_bound(CollectiveConfig(variant, spec, quantize_rs=quantized),
                               tensor_bytes, link)
        except SemiLoopOddNError:
            return None

    row = {
        "N": cfg.num_devices,
        "tensor_bytes": tensor_bytes,
        "bandwidth_bytes_per_s": link.bandwidth_bytes_per_s,
        "full_loop_bound_s": bound(Variant.FULL_LOOP, False),
        "semi_loop_bound_s": bound(Variant.SEMI_LOOP, False),
        "full_loop_quant_bound_s": bound(Variant.FULL_LOOP, True),
        "semi_loop_quant_bound_s": bound(Variant.SEMI_LOOP, True),
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
    # One flag per RunConfig, LinkParams and ComputeParams field, with the field as its dest.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config document")
    for types in (_CONFIG_TYPES, *_SCOPES.values()):
        for name, hint in types.items():
            if name in _SCOPES:
                continue
            kind = (typing.get_args(hint) or (hint,))[0]  # X from an `X | None` annotation
            kw = {bool: {"action": argparse.BooleanOptionalAction},
                  list: {"type": _size_tokens}}.get(kind, {"type": kind})
            flag = _SHORT_FLAGS.get(name, "--" + name.replace("_", "-"))
            common.add_argument(flag, dest=name, help=_HELP.get(name), **kw)

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
                   help="bandwidth lower bounds on both ring variants' reduce-scatter, "
                        "raw and quantized")
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
        out = cfg.output and Path(cfg.output)  # checked before the command runs
        try:
            why = out and ("it is a directory" if out.is_dir() else
                           not out.parent.is_dir() and f"{out.parent} is not a directory")
        except OSError as e:  # such as a name too long for the file system
            why = e.strerror or str(e)
        if why:
            raise ConfigError(f"cannot write output file {out}: {why}")
        text = COMMANDS[args.command](cfg)
        if cfg.output:
            _write_output(cfg.output, text)
        else:
            print(text, end="")
    # Times overflow, a walk or the inputs pass their budget, inputs do not fit.
    except (ConfigError, OverflowError, WalkBudgetError, InputBudgetError, MemoryError) as e:
        print(f"config error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2
    except (DivisibilityError, SemiLoopOddNError, ShapeMismatchError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
