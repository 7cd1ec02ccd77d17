"""Named link/compute calibration profiles, declared as constants.

The "v5e-like" profile is calibrated at ratio level only: per-direction
bandwidth, hop latency, and VPU pass rates are chosen so the baseline
BF16 AllReduce is latency-bound below a few MiB and bandwidth-bound
above, matching the regime boundaries the quantized variants are judged
against. Absolute hardware rates are not modeled.
"""

from __future__ import annotations

from .simnet import ComputeParams, LinkParams

DEFAULT_PRESET = "v5e-like"

_PRESETS = {
    "v5e-like": (
        LinkParams(bandwidth_bytes_per_s=4.5e10, hop_latency_s=1.5e-5),
        ComputeParams(dequant_rate=8e11, add_rate=1.6e12, scan_rate=1.6e12,
                      encode_rate=8e11, cast_rate=1.6e12, fuse_recv_pass=False),
    ),
}


def available_presets() -> list[str]:
    return sorted(_PRESETS)


def load_preset(name: str) -> tuple[LinkParams, ComputeParams]:
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(available_presets())}")
