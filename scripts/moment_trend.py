#!/usr/bin/env python3
"""Track the empirical/predicted ratio of the squared-weight moment in N.

With R = N^(1/4) the first-order main term carries large lower-order
corrections at small N; the ratio should climb toward 1 as N grows.

Example:
    python scripts/moment_trend.py --k 3 --l 1 --exp-max 6
"""

import argparse

from primegaps.sieve import build_factor_table
from primegaps.tuples import generate_tuple
from primegaps.weights import WeightConfig, moment_lemma1, moment_lemma2


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--l", type=int, default=1)
    ap.add_argument("--exp-min", type=int, default=4)
    ap.add_argument("--exp-max", type=int, default=6, help="largest N = 10^exp")
    ap.add_argument("--with-prime-indicator", action="store_true")
    args = ap.parse_args()

    H = generate_tuple(args.k)
    print("N,variant,empirical,predicted,ratio")
    for e in range(args.exp_min, args.exp_max + 1):
        N = 10**e
        cfg = WeightConfig(H=H, l=args.l, R=N**0.25)
        table = build_factor_table(N, 2 * N + max(H.offsets))
        rep = moment_lemma1(N, cfg, table)
        print(f"{N},{rep.variant},{rep.empirical:.8g},{rep.predicted_main_term:.8g},{rep.ratio:.6f}")
        if args.with_prime_indicator:
            rep2 = moment_lemma2(N, cfg, H.offsets[0], table)
            print(
                f"{N},{rep2.variant},{rep2.empirical:.8g},"
                f"{rep2.predicted_main_term:.8g},{rep2.ratio:.6f}"
            )


if __name__ == "__main__":
    main()
