#!/usr/bin/env python3
"""Check that the held-out seed gives inputs of the same size class as the default.

    python3 perfbench/heldout.py

A claim made while tuning on the default seed can then be rechecked on the
held-out seed with inputs of the same kind.  For oracle and closed the graphs
are G(M, E) with M and E fixed, so the size class must match exactly; verify
and figures send fixed flags and differ only in the seed the program draws
from.  Exit code 0 when every workload matches, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def size_class(name: str, seed: int, workdir: str) -> dict:
    ops = [
        workloads.prepare(name, seed, i, workdir, lambda counts, p, theta: None)
        for i in range(workloads.POOL)
    ]
    return workloads.describe(name, ops)


def main() -> int:
    workroot = os.path.join(HERE, "_work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=workroot)
    mismatched = []
    try:
        for name in workloads.NAMES:
            default = size_class(name, workloads.DEFAULT_SEED, workdir)
            heldout = size_class(name, workloads.HELDOUT_SEED, workdir)
            status = "same" if default == heldout else "DIFFERENT"
            print(f"{name}: seed {workloads.DEFAULT_SEED} {default}; "
                  f"seed {workloads.HELDOUT_SEED} {heldout}: {status}")
            if default != heldout:
                mismatched.append(name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:
            pass
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
