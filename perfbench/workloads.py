"""The four benchmark workloads: seeded inputs, one operation each, and its check.

An operation is one in-process call of ``graphent.cli.main(argv)`` with stdout
captured or, for ``figures``, FIGURE_REPEATS calls of ``main`` of
``scripts/make_figure_data.py``.  The inputs of operation ``index`` are a pure
function of (run seed, index), so the same seed always sends the same inputs.
Every check uses the other route from the one the operation exercises, and its
expected value is computed before timing starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

NAMES = ("oracle", "verify", "closed", "figures")
DEFAULT_SEED = 1
HELDOUT_SEED = 2  # never used while the benchmark or a change is tuned

# Distinct inputs prepared per run process; a program fast enough to exhaust
# them cycles through the pool again.
POOL = 16
WARMUP_INDEX = 1_000_000  # warm-up inputs come from their own seed stream

# oracle: G(M, E) graphs at the default 22-qubit cap with edge density 0.4.
ORACLE_M = 22
ORACLE_E = round(0.4 * ORACLE_M * (ORACLE_M - 1) / 2)
ORACLE_TOL = 1e-10  # the acceptance tolerance of oracle vs closed form
# closed: graphs far past the cap, read from JSON and reported per vertex.
CLOSED_M = 2000
CLOSED_E = 20000
CLOSED_P = 0.3
CLOSED_TOL = 1e-12
# verify and figures ops are sized to take over a second, as the oracle and
# closed ops do: the host CPU alternates between a fast and a slow phase about
# once a second, and the median of ops shorter than a phase flips between them.
VERIFY_ARGV = ["verify", "--random-graphs", "120", "--max-vertices", "12", "--samples", "5"]
FIGURE_SCRIPT = os.path.join("scripts", "make_figure_data.py")
FIGURE_REPEATS = 10  # regenerations of the figure set per op, each into a fresh directory
FIGURE_FILES = (
    "fig1_hs2.csv",
    "fig2_entropy.csv",
    "fig3_yf_N3.csv",
    "fig3_yf_N5.csv",
    "fig3_yf_N10.csv",
    "fig3_yf_limit.csv",
    "fig5_btree_N2.csv",
    "fig5_btree_N4.csv",
    "fig5_btree_limit.csv",
)


@dataclass(frozen=True)
class Op:
    """One operation: the argv it sends and what its check expects."""

    argv: list[str]
    expected: float | None = None
    size: dict = field(default_factory=dict)


def write_random_graph(rng: np.random.Generator, m: int, e: int, path: str) -> dict[int, int]:
    """Write a G(m, e) graph JSON: e distinct unordered vertex pairs, each
    oriented by a fair coin.  Returns its degree counts {degree: vertices}."""
    keys = rng.choice(m * (m - 1) // 2, size=e, replace=False)
    # Row-major upper-triangle index -> pair (a, b) with a < b.
    offsets = np.concatenate(([0], np.cumsum(np.arange(m - 1, 0, -1))))
    a = np.searchsorted(offsets, keys, side="right") - 1
    b = keys - offsets[a] + a + 1
    flip = rng.random(e) < 0.5
    edges = np.column_stack((np.where(flip, b, a), np.where(flip, a, b)))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"num_vertices": m, "edges": edges.tolist()}, fh)
    degrees = np.bincount(np.concatenate((a, b)), minlength=m)
    return dict(Counter(degrees.tolist()))


def prepare(name: str, seed: int, index: int, workdir: str, ed_closed_general) -> Op:
    """Inputs of operation `index` of workload `name`; graph files go to workdir.

    `ed_closed_general(counts, p, theta)` gives the expected ED by the
    degree-distribution route; the degree counts come from the generated
    edges, not from the program's graph code.
    """
    rng = np.random.default_rng([seed, index])
    if name in ("oracle", "closed"):
        m, e = (ORACLE_M, ORACLE_E) if name == "oracle" else (CLOSED_M, CLOSED_E)
        path = os.path.join(workdir, f"{name}-{index}.json")
        counts = write_random_graph(rng, m, e, path)
        theta = float(rng.uniform(0.2, math.pi - 0.2))
        argv = ["ed", "--graph", path, f"--theta={theta!r}"]
        if name == "oracle":
            p = float(rng.uniform(0.1, 0.9))
            psi = float(rng.uniform(-math.pi, math.pi))
            argv += ["--method", "simulate", f"--p={p!r}", f"--psi={psi!r}"]
        else:
            p = CLOSED_P
            argv += ["--method", "closed", f"--p={p!r}"]
        return Op(argv, ed_closed_general(counts, p, theta), {"M": m, "E": e})
    if name == "verify":
        return Op(VERIFY_ARGV + ["--seed", str(int(rng.integers(2**31)))])
    if name == "figures":
        return Op(["--outdir", os.path.join(workdir, "figures")])
    raise ValueError(f"unknown workload {name!r}")


def describe(name: str, ops: list[Op]) -> dict:
    """Size class of a set of inputs, for comparing seeds."""
    if name == "verify":
        return {"argv": VERIFY_ARGV, "distinct_seeds": len({op.argv[-1] for op in ops})}
    if name == "figures":
        return {"script": FIGURE_SCRIPT, "repeats": FIGURE_REPEATS}
    edges = [op.size["E"] for op in ops]
    return {"M": sorted({op.size["M"] for op in ops}), "E_min": min(edges), "E_max": max(edges)}


def figure_digest(outdir: str) -> str:
    """sha256 over the CSV names and bytes in outdir, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Executes and checks operations of one workload in this process."""

    def __init__(self, name: str, cli, figure_script) -> None:
        self.name = name
        self.cli = cli
        self.script = figure_script
        self.digest: str | None = None  # set by the first figures op (the warm-up)

    def reset(self, op: Op) -> None:
        """Untimed: remove the previous figure files so the check sees fresh ones."""
        if self.name == "figures":
            shutil.rmtree(op.argv[1], ignore_errors=True)

    def _figures(self, outdir: str) -> int:
        saved = sys.argv
        try:
            for r in range(FIGURE_REPEATS):
                sys.argv = [self.script.__file__, "--outdir", os.path.join(outdir, str(r))]
                code = self.script.main()
                if code != 0:
                    return code
            return 0
        finally:
            sys.argv = saved

    def execute(self, op: Op) -> tuple[int | None, str]:
        """The timed operation: exit code (None if it raised) and captured stdout."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                if self.name == "figures":
                    code = self._figures(op.argv[1])
                else:
                    code = self.cli.main(op.argv)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            code = None
        return code, out.getvalue()

    def check(self, op: Op, code: int | None, out: str) -> bool:
        if code != 0:
            return False
        if self.name == "verify":
            return any(line.startswith("result: PASS") for line in out.splitlines())
        if self.name == "figures":
            for r in range(FIGURE_REPEATS):
                outdir = os.path.join(op.argv[1], str(r))
                if sorted(os.listdir(outdir)) != sorted(FIGURE_FILES):
                    return False
                digest = figure_digest(outdir)
                if self.digest is None:
                    self.digest = digest
                if digest != self.digest:
                    return False
            return True
        key = "simulate: " if self.name == "oracle" else "closed: "
        values = [line[len(key):] for line in out.splitlines() if line.startswith(key)]
        if len(values) != 1:
            return False
        tol = ORACLE_TOL if self.name == "oracle" else CLOSED_TOL
        return abs(float(values[0]) - op.expected) <= tol
