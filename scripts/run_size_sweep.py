#!/usr/bin/env python3
"""Predicted quantized-vs-baseline time ratio across tensor sizes.

Sweeps 1 MiB through 1 GiB on the v5e-like profile at 8 devices and writes
size_sweep_n8.csv next to this script unless --output is given. The ratio
starts near 1.0 in the latency-bound regime and settles toward the halved
wire time once payload dominates.

With --check the sweep is rerun into a temporary file instead, and the exit
status is 0 only if that CSV is byte-identical to the shipped one (1 if it
differs), so one command gates a change that must keep every output bit.
"""

import pathlib
import sys
import tempfile

from qarsim.cli import main

SIZES = ",".join(f"{1 << i}MiB" for i in range(11))
SHIPPED = pathlib.Path(__file__).parent / "size_sweep_n8.csv"


def run(args: list[str]) -> int:
    return main(["sweep", "--sizes", SIZES, "--num-devices", "8"] + args)


def check(args: list[str]) -> int:
    if any(a.startswith("--output") for a in args):
        sys.exit("--check writes its own temporary CSV; drop --output")
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / SHIPPED.name
        rc = run(["--output", str(out)] + args)
        if rc:
            return rc
        same = out.read_bytes() == SHIPPED.read_bytes()
    print(f"{'identical to' if same else 'DIFFERS from'} {SHIPPED}")
    return 0 if same else 1


if __name__ == "__main__":
    args = sys.argv[1:]
    if "--check" in args:
        sys.exit(check([a for a in args if a != "--check"]))
    if not any(a.startswith("--output") for a in args):
        print(f"writing {SHIPPED}")
        args = ["--output", str(SHIPPED)] + args
    sys.exit(run(args))
