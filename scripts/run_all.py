#!/usr/bin/env python3
"""Run every registered experiment and merge the results into one table.

Each experiment lands in <root>/<name>, the merged anchor table in
<root>/report.csv. Exit status is the number of failed runs, so 0 means
every registered tolerance held across the whole sweep.
"""

import argparse
from pathlib import Path

import numpy as np

from ldpma.cli import main as cli_main
from ldpma.experiments import EXPERIMENTS
from ldpma.measures import DiscreteMeasure, GridMeasure, save_csv, torus_domain


def write_fixtures(root: Path, seed: int) -> dict:
    """Input files for the experiments that read measures from disk."""
    rng = np.random.default_rng(seed)
    mu_path = root / "cloud_mu.csv"
    nu_path = root / "cloud_nu.csv"
    save_csv(DiscreteMeasure(points=rng.random((6, 1)),
                             weights=np.full(6, 1.0 / 6.0),
                             domain=torus_domain(1)), mu_path)
    save_csv(DiscreteMeasure(points=rng.random((5, 1)),
                             weights=np.full(5, 1.0 / 5.0),
                             domain=torus_domain(1)), nu_path)
    k = 64
    xs = np.arange(k) / k
    density = 1.0 + 0.4 * np.cos(2.0 * np.pi * xs) + 0.15 * np.sin(4.0 * np.pi * xs)
    bump_path = root / "bump_mu0.csv"
    save_csv(GridMeasure.from_density_values(density), bump_path)
    return {
        "ot": {"mu": str(mu_path), "nu": str(nu_path)},
        "solve-ma": {"beta": "1.0", "mu0": str(bump_path), "k": str(k)},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default="runs/sweep",
                        help="directory collecting all runs (default runs/sweep)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    root = Path(args.root)
    root.mkdir(parents=True, exist_ok=True)
    overrides = write_fixtures(root, args.seed)

    failures = 0
    rundirs = []
    for name in EXPERIMENTS:
        outdir = root / name
        rundirs.append(str(outdir))
        tokens = [f"{key}={value}"
                  for key, value in overrides.get(name, {}).items()]
        code = cli_main(["run", name, *tokens,
                         f"seed={args.seed}", f"out={outdir}"])
        if code != 0:
            failures += 1
            print(f"{name}: exit {code}")
    report_path = root / "report.csv"
    cli_main(["report", *rundirs, "--out", str(report_path)])
    print(f"sweep done: {len(rundirs)} experiments, {failures} failed, "
          f"anchor table at {report_path}")
    return failures


if __name__ == "__main__":
    raise SystemExit(main())
