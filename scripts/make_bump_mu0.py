#!/usr/bin/env python3
"""Write a smooth nonuniform base measure to CSV for solver demos.

The density 1 + a cos(2 pi x) + b sin(4 pi x) stays strictly positive
for the default amplitudes, which keeps every entropy term finite and
gives the master-equation solver a fixed point away from zero.
"""

import argparse

import numpy as np

from ldpma.measures import GridMeasure, save_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=64,
                        help="grid resolution (default 64)")
    parser.add_argument("--a", type=float, default=0.4,
                        help="cos(2 pi x) amplitude")
    parser.add_argument("--b", type=float, default=0.15,
                        help="sin(4 pi x) amplitude")
    parser.add_argument("--out", default="bump_mu0.csv",
                        help="output CSV path")
    args = parser.parse_args()
    if abs(args.a) + abs(args.b) >= 1.0:
        parser.error("amplitudes must sum below 1 to keep the density positive")
    xs = np.arange(args.k) / args.k
    density = (1.0 + args.a * np.cos(2.0 * np.pi * xs)
               + args.b * np.sin(4.0 * np.pi * xs))
    measure = GridMeasure.from_density_values(density)
    save_csv(measure, args.out)
    print(f"wrote k={args.k} torus density to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
