#!/usr/bin/env python3
"""Scan the star-set count over [N, 2N) against C0(r, eps) * N / ln N.

The ratio drifts toward its asymptotic value as N grows; this script
prints the drift across a ladder of window sizes.  The counts come from the
primes of the star interval alone, with no window table, so N reaches 1e13.

Example:
    python scripts/star_density_scan.py --r 2 --eps 0.3 --exp-max 6
"""

import argparse

from primegaps.balanced import StarSetSpec, count_star


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r", type=int, default=2)
    ap.add_argument("--eps", type=float, default=0.3)
    ap.add_argument("--exp-min", type=int, default=3)
    ap.add_argument("--exp-max", type=int, default=6, help="largest N = 10^exp (up to 13)")
    args = ap.parse_args()

    print("N,count,predicted,ratio")
    for e in range(args.exp_min, args.exp_max + 1):
        N = 10**e
        count, predicted = count_star(StarSetSpec(N=N, r=args.r, eps=args.eps))
        ratio = count / predicted if predicted else float("nan")
        print(f"{N},{count},{predicted:.6g},{ratio:.6f}")


if __name__ == "__main__":
    main()
