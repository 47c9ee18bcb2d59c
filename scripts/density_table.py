#!/usr/bin/env python3
"""Tabulate the density constant C0(r, eps) with its upper bound.

Example:
    python scripts/density_table.py --r-max 5 --eps 0.05 0.1 0.2 0.3
"""

import argparse

from primegaps.density import c0, c0_upper_bound


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r-max", type=int, default=4)
    ap.add_argument("--eps", type=float, nargs="+", default=[0.05, 0.1, 0.2, 0.3])
    args = ap.parse_args()

    print("r,eps,value,abs_error_estimate,upper_bound")
    for r in range(2, args.r_max + 1):
        for eps in args.eps:
            res = c0(r, eps)
            print(
                f"{r},{eps:g},{res.value:.12g},"
                f"{res.abs_error_estimate:.3g},{c0_upper_bound(r, eps):.12g}"
            )


if __name__ == "__main__":
    main()
