#!/usr/bin/env python3
"""Wider parameter sweep for the third-order exponential sum.

The shipped suite checks four candidate parameters; this experiment
sweeps a larger grid (rational multiples of the base scalar times the
roots of unity in the field) and tabulates which residuals vanish.
Expected outcome: none do, for every odd degree tried.

Usage: python scripts/third_order_sweep.py [--lambda L] [--n-list 3,5,7]
"""

import argparse
from fractions import Fraction

from ncbinom.cli import run_case
from ncbinom.scalars import IMAG, OMEGA, ONE, CycloScalar, format_scalar, parse_scalar


def candidate_grid(lam):
    units = [ONE, -ONE, IMAG, -IMAG, OMEGA, OMEGA * OMEGA]
    ratios = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)]
    seen = set()
    for unit in units:
        for ratio in ratios:
            mu = CycloScalar.of(ratio) * unit * lam
            if mu not in seen:
                seen.add(mu)
                yield mu


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lambda", dest="lam", default="1")
    parser.add_argument("--n-list", default="3,5")
    args = parser.parse_args()

    lam = parse_scalar(args.lam)
    n_list = [int(x) for x in args.n_list.split(",")]
    mus = list(candidate_grid(lam))
    reports = [run_case({"suite": "third-order", "n": n, "lambda": format_scalar(lam),
                         "mu": format_scalar(mu)}) for n in n_list for mu in mus]

    vanish = 0
    for rep in reports:
        mark = "nonzero" if rep.passed else "VANISHES"
        vanish += 0 if rep.passed else 1
        print(f"n={rep.params['n']:>2}  mu={rep.params['mu']:<16} {mark}")
    print(f"\nchecked {len(reports)} cases, {vanish} vanishing residuals")
    return 1 if vanish else 0


if __name__ == "__main__":
    raise SystemExit(main())
