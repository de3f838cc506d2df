#!/usr/bin/env python3
"""Generate the standard figure datasets as CSV files.

Usage:
    python scripts/make_figure_data.py [--outdir figure_data]

Produces:
  fig1_hs2.csv           squared Hilbert-Schmidt distance to I/2 over (theta, p)
  fig2_entropy.csv       reduced-state von Neumann entropy over (theta, p)
  fig3_yf_N{3,5,10}.csv  layered triangular-graph ED vs theta, plus the
  fig3_yf_limit.csv      infinite-layer curve
  fig5_btree_N{2,4}.csv  full binary tree ED vs theta, plus the
  fig5_btree_limit.csv   infinite-depth curve

Everything goes through the CLI, so the files are byte-reproducible.  The
script imports graphent from the src directory of its own checkout, so it
runs from any working directory without an installed package.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from graphent.cli import main as cli_main  # noqa: E402

JOBS = {
    "fig1_hs2.csv": ["sweep", "--quantity", "hs2", "--theta-steps", "101", "--p-steps", "101"],
    "fig2_entropy.csv": ["sweep", "--quantity", "entropy", "--theta-steps", "101", "--p-steps", "101"],
    "fig3_yf_N3.csv": ["sweep", "--quantity", "ed", "--topology", "yf", "--layers", "3", "--theta-steps", "201"],
    "fig3_yf_N5.csv": ["sweep", "--quantity", "ed", "--topology", "yf", "--layers", "5", "--theta-steps", "201"],
    "fig3_yf_N10.csv": ["sweep", "--quantity", "ed", "--topology", "yf", "--layers", "10", "--theta-steps", "201"],
    "fig3_yf_limit.csv": ["sweep", "--quantity", "ed", "--topology", "yf", "--limit", "--theta-steps", "201"],
    "fig5_btree_N2.csv": ["sweep", "--quantity", "ed", "--topology", "btree", "--depth", "2", "--theta-steps", "201"],
    "fig5_btree_N4.csv": ["sweep", "--quantity", "ed", "--topology", "btree", "--depth", "4", "--theta-steps", "201"],
    "fig5_btree_limit.csv": ["sweep", "--quantity", "ed", "--topology", "btree", "--limit", "--theta-steps", "201"],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="figure_data")
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    for name, job in JOBS.items():
        code = cli_main(job + ["--out", os.path.join(args.outdir, name)])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
