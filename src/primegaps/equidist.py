"""Discrepancy sums over arithmetic progressions, computed exactly.

For each modulus q up to a cutoff, the target set (primes up to N, or the
star-set members of a window [N, 2N)) is counted in every residue class;
the report records, per q, the worst deviation over classes coprime to q
from the expected main term, and the sum of those maxima over q.  A third
variant weights the inner prime counts by a bounded coefficient f(m) over
products m * p <= N.

All three run through one kernel, `_discrepancy`: integer targets with
optional weights (the weighted variant folds f into g(n) = sum f(m) over
n = m * p) against a scalar main term M / phi(q).  Class totals mod q are
the two halves of those mod 2q added, so only q in (q_max/2, q_max] takes
a pass over the targets; each smaller q is reached by halving from one.

The cutoffs that theory phrases through log powers, such as
q_max = sqrt(N) / ln^C N, are explicit parameters here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import balanced, density
from .sieve import FactorTable, log_integral

PRIMES_LE_N = "primes_le_N"
STAR_SET_WINDOW = "star_set_window"


@dataclass(frozen=True)
class DiscrepancyConfig:
    N: int
    q_max: int
    target: str = PRIMES_LE_N
    spec: balanced.StarSetSpec | None = None

    def __post_init__(self):
        if self.q_max < 1:
            raise ValueError(f"need q_max >= 1, got {self.q_max}")
        if self.target not in (PRIMES_LE_N, STAR_SET_WINDOW):
            raise ValueError(f"unknown target {self.target!r}")
        if self.target == STAR_SET_WINDOW and self.spec is None:
            raise ValueError("star-set target needs a StarSetSpec")
        if self.target == PRIMES_LE_N and self.q_max >= self.N:
            raise ValueError(f"q_max={self.q_max} must stay below N={self.N}")


@dataclass(frozen=True)
class QRow:
    q: int
    worst_a: int
    max_abs_dev: float
    main_term: float  # expected per-class count for this q
    alt_max_abs_dev: float | None = None  # under the window-matched main term
    alt_main_term: float | None = None


@dataclass(frozen=True)
class DiscrepancyReport:
    per_q: tuple[QRow, ...]
    total: float
    main_term_used: float


def _per_class_counts(values: np.ndarray, q: int, weights: np.ndarray | None = None):
    return np.bincount(values % q, weights=weights, minlength=q)


def _discrepancy(
    values: np.ndarray, weights: np.ndarray | None, q_max: int, main: float,
    alt_main: float | None = None,
) -> DiscrepancyReport:
    """Worst coprime-class deviation from main / phi(q) for q = 1 .. q_max.

    With alt_main, each row also reports the deviation from alt_main / phi(q).
    """
    rows: list[QRow | None] = [None] * q_max
    # every q <= q_max is top / 2^k for exactly one top in (q_max/2, q_max]
    for top in range(q_max // 2 + 1, q_max + 1):
        counts = _per_class_counts(values, top, weights)
        q = top
        while True:
            coprime = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
            phi_q = coprime.size
            cop = counts[coprime]
            term = main / phi_q
            dev = np.abs(cop - term)
            i = int(np.argmax(dev))  # first maximum: the smallest worst class
            alt_dev = alt_term = None
            if alt_main is not None:
                alt_term = alt_main / phi_q
                alt_dev = float(np.abs(cop - alt_term).max())
            rows[q - 1] = QRow(q, int(coprime[i]), float(dev[i]), term, alt_dev, alt_term)
            if q % 2:
                break
            q //= 2
            counts = counts.reshape(2, q).sum(axis=0)
    total = math.fsum(r.max_abs_dev for r in rows)
    return DiscrepancyReport(per_q=tuple(rows), total=total, main_term_used=main)


def _target_values(cfg: DiscrepancyConfig, table: FactorTable) -> np.ndarray:
    if cfg.target == PRIMES_LE_N:
        if table.lo > 2 or table.hi <= cfg.N:
            raise ValueError(f"table must cover [2, {cfg.N}]")
        upto = cfg.N - table.lo + 1
        return table.lo + np.flatnonzero(table.omega[:upto] == 1)
    spec = cfg.spec
    if spec is None:
        raise ValueError("star-set target needs a StarSetSpec")
    mask = balanced.star_mask(spec, table)
    return spec.N + np.flatnonzero(mask)


def bv_prime_discrepancy(cfg: DiscrepancyConfig, table: FactorTable) -> DiscrepancyReport:
    """Worst-class prime-count deviation from Li(N)/phi(q), summed over q."""
    if cfg.target != PRIMES_LE_N:
        raise ValueError("config target must be primes_le_N")
    return _discrepancy(_target_values(cfg, table), None, cfg.q_max, log_integral(cfg.N))


def bv_star_discrepancy(cfg: DiscrepancyConfig, table: FactorTable) -> DiscrepancyReport:
    """Star-set analogue with main term C0(r, eps) * Li(N) / phi(q).

    The window-matched alternative C0 * (Li(2N) - Li(N)) / phi(q) is
    reported alongside, since the set is counted over [N, 2N).
    """
    if cfg.target != STAR_SET_WINDOW or cfg.spec is None:
        raise ValueError("config target must be star_set_window with a spec")
    spec = cfg.spec
    members = _target_values(cfg, table)
    c0v = density.c0(spec.r, spec.eps).value
    li_n = log_integral(spec.N)
    li_window = log_integral(2 * spec.N) - li_n
    return _discrepancy(members, None, cfg.q_max, c0v * li_n, c0v * li_window)


def weighted_discrepancy(
    cfg: DiscrepancyConfig, alpha: float, f: np.ndarray, table: FactorTable
) -> DiscrepancyReport:
    """Bounded-coefficient discrepancy over products m * p <= N.

    f is indexed so that f[m - 1] weights m, for m = 1 .. floor(N^(1-alpha));
    every |f(m)| must be <= 1.  The per-(q, a) deviation is

        | sum_m f(m) ( #{p <= N/m : m p == a mod q} - Li(N/m)/phi(q) ) |,

    maximized over a coprime to q; classes with gcd(m, q) > 1 contribute
    no primes but keep their main term, exactly as the sum is written.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"need alpha in (0, 1), got {alpha}")
    N = cfg.N
    m_max = int(N ** (1.0 - alpha))
    f = np.asarray(f, dtype=np.float64)
    if f.size < m_max:
        raise ValueError(f"need f values for m = 1..{m_max}, got {f.size}")
    if not np.all(np.isfinite(f[:m_max])) or np.abs(f[:m_max]).max(initial=0.0) > 1.0 + 1e-12:
        raise ValueError("f must be finite with |f(m)| <= 1")
    primes = _target_values(DiscrepancyConfig(N=N, q_max=cfg.q_max), table)
    # g(n) = sum_{n = m p} f(m); a product m p with gcd(m, q) > 1 falls in a
    # class that is not coprime to q, so it drops out of every row maximum
    g = np.zeros(N + 1)
    main_terms = []
    for m, fm in enumerate(f[:m_max].tolist(), start=1):
        main_terms.append(fm * log_integral(max(N / m, 2.0)))
        if fm:
            g[m * primes[: np.searchsorted(primes, N // m, side="right")]] += fm
    support = np.flatnonzero(g).astype(np.int32 if N < 2**31 else np.int64)
    g_vals = g[support]
    del g  # keep only the support of g through the per-q passes
    rep = _discrepancy(support, g_vals, cfg.q_max, math.fsum(main_terms))
    return replace(rep, main_term_used=log_integral(N))
