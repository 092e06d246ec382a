#!/usr/bin/env python3
"""Empirical map of the gap count across r for a fixed k.

For each r on a grid, runs the census up to the bound and prints the
number of closure intervals at the chosen resolution together with the
certified first-level gaps.  Exploratory evidence for the open question
of which r produce exactly L gaps; nothing here is a proof.
"""

import argparse
import math
import sys

from sigma_density import cli, explorer, primes, solver
from sigma_density.errors import SigmaDensityError


def positive_float(text: str) -> float:
    """argparse type: a finite float above 0."""
    value = cli.finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = cli.Parser(description=__doc__)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--r-min", type=cli.finite_float, default=1.5)
    parser.add_argument("--r-max", type=cli.finite_float, default=2.6)
    parser.add_argument("--r-step", type=positive_float, default=0.1)
    parser.add_argument("--bound", type=int, default=100_000)
    parser.add_argument("--resolution", type=cli.finite_float, default=0.01)
    parser.add_argument("--prime-limit", type=int, default=primes.DEFAULT_LIMIT)
    args = parser.parse_args(argv)

    # The grid is indexed, not accumulated, so a step too small to move r
    # still ends after the points it asks for.
    span = (args.r_max - args.r_min) / args.r_step
    if not math.isfinite(span):
        parser.error("the r grid has too many points to count")
    points = max(0, math.floor(span + 1e-9) + 1)
    try:
        table = primes.load_or_sieve(args.prime_limit)
        threshold = solver.eta(table, args.k, 1e-8).value.mid
        print(f"# k={args.k}, density threshold ~ {threshold:.7f}")
        print("r\tintervals\twide_gaps\tanalytic_gaps")
        for i in range(points):
            r = args.r_min + i * args.r_step
            census = explorer.range_census(
                table, args.k, r, args.bound, resolution=args.resolution
            )
            analytic = ";".join(
                f"m={m}:({lo:.6f},{hi:.6f})" for m, lo, hi in census.analytic_gaps
            )
            print(f"{r:.3f}\t{census.estimated_intervals}\t{len(census.gaps)}\t{analytic or '-'}")
    except SigmaDensityError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return cli.EXIT_ERROR
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
