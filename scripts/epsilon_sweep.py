"""Sweep the approximation bound over an (n, k) grid.

Prints a table of alpha, delta, epsilon, the two-symbol reference bound, and
the validity flag for every grid cell, optionally as CSV.  Illustrates how
epsilon decays roughly like sqrt(k/sqrt(n)) * log(n/k) and how slowly k may
grow before the bound goes vacuous.

    python scripts/epsilon_sweep.py --n 100,200,400,800,1600,3200 --k 1,2,3
    python scripts/epsilon_sweep.py --m 3 --format csv > sweep.csv
"""

from __future__ import annotations

import argparse
import sys

from finetti.bound import theorem_constants
from finetti.definetti import binary_reference_bound


def parse_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", default="100,200,400,800,1600,3200,6400")
    ap.add_argument("--k", default="1,2,3")
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--format", choices=("table", "csv"), default="table")
    args = ap.parse_args(argv)

    n_grid = parse_ints(args.n)
    k_grid = parse_ints(args.k)
    rows = []
    for n in n_grid:
        for k in k_grid:
            if k > n:
                continue
            p = theorem_constants(n, k, args.m)
            ref = binary_reference_bound(n, k) if args.m == 2 and k < n else None
            rows.append((n, k, p.alpha, p.delta, p.epsilon, ref, p.in_validity_range))

    if args.format == "csv":
        print("n,k,alpha,delta,epsilon,binary_reference,valid_range")
        for n, k, a, d, e, ref, valid in rows:
            ref_s = "" if ref is None else repr(ref)
            print(f"{n},{k},{a!r},{d!r},{e!r},{ref_s},{valid}")
    else:
        head = f"{'n':>6} {'k':>3} {'alpha':>10} {'delta':>10} {'epsilon':>12} {'binary ref':>12} {'valid':>6}"
        print(head)
        print("-" * len(head))
        for n, k, a, d, e, ref, valid in rows:
            ref_s = "-" if ref is None else f"{ref:12.6f}"
            eps_s = f"{e:12.6f}" if e != float("inf") else "         inf"
            print(f"{n:>6} {k:>3} {a:10.6f} {d:10.6f} {eps_s} {ref_s:>12} {str(valid):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
