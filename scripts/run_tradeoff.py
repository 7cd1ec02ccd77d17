#!/usr/bin/env python3
"""Reproduce the headline error/speedup table: 4096x4096, 8 devices, INT8.

Writes tradeoff_4096x4096_n8.csv next to this script unless --output is given.
Pass --rows/--cols/--seed etc. to vary the setup; see `qarsim tradeoff -h`.

With --check the study is rerun into a temporary file instead, and the exit
status is 0 only if that CSV is byte-identical to the shipped one (1 if it
differs), so one command gates a change that must keep every output bit.
"""

import pathlib
import sys
import tempfile

from qarsim.cli import main

SHIPPED = pathlib.Path(__file__).parent / "tradeoff_4096x4096_n8.csv"


def run(args: list[str]) -> int:
    return main(["tradeoff", "--rows", "4096", "--cols", "4096",
                 "--num-devices", "8", "--seed", "0"] + args)


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
