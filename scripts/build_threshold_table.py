#!/usr/bin/env python3
"""Print the threshold table for k = 1..kmax as TSV.

Columns: k, selector m, the three per-m thresholds (midpoints; 2 marks
the boundary case), and the density constant with its bracket.
"""

import sys

from sigma_density import cli, primes, solver
from sigma_density.errors import SigmaDensityError


def main(argv=None) -> int:
    parser = cli.Parser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=10)
    parser.add_argument("--eps", type=cli.finite_float, default=1e-10)
    args = parser.parse_args(argv)

    try:
        table = primes.load_or_sieve()
        result = solver.eta_table(table, args.kmax, args.eps)
    except SigmaDensityError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return cli.EXIT_ERROR
    print("k\tm\tR(1)\tR(2)\tR(4)\teta_lo\teta_hi")
    for row in result.rows:
        cells = [str(row.k), str(row.m_min)]
        for m in (1, 2, 4):
            root = row.thresholds[m]
            cells.append("2" if root.boundary else f"{root.value.mid:.12f}")
        cells.append(f"{row.eta.value.lo:.12f}")
        cells.append(f"{row.eta.value.hi:.12f}")
        print("\t".join(cells))
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
