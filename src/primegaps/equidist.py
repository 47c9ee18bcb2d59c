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
The passes take int32 residues below 2^31, as values - (values // q) * q:
numpy divides by a scalar through libdivide, and has no such route for
%.  When the passes cover more than sieve.SEGMENT residues in all,
the tops are shared between the caller and one forked child when two
cores are free (sieve._in_two); each process holds the residues of its
own pass.  The rows come back by q and the total is summed in q order, so
the report is the same either way.  The weighted variant's main terms
sum Li(N/m) one sieve.BLOCK of m at a time, and its g is scattered one
sieve.BLOCK of pairs (m, p) at a time.

The cutoffs that theory phrases through log powers, such as
q_max = sqrt(N) / ln^C N, are explicit parameters here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import balanced, density, sieve
from .sieve import FactorTable, log_integral, window_dtype

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
        if self.target == STAR_SET_WINDOW and self.spec.N != self.N:
            raise ValueError(f"spec window base {self.spec.N} != N={self.N}")
        if self.q_max >= self.N:
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
    """Totals of the positive values (or of their weights) in each class mod q.

    The residues are values - (values // q) * q, equal to values % q for
    positive values, in one buffer reused in place: numpy divides by a
    scalar through libdivide but has no such route for %.
    """
    res = np.floor_divide(values, q)
    res *= q
    np.subtract(values, res, out=res)
    return np.bincount(res, weights=weights, minlength=q)


def _discrepancy(
    values: np.ndarray, weights: np.ndarray | None, q_max: int, main: float,
    alt_main: float | None = None,
) -> DiscrepancyReport:
    """Worst coprime-class deviation from main / phi(q) for q = 1 .. q_max.

    values are in window_dtype, whose residues each pass takes: int32 ones
    are cheaper than int64.  With alt_main, each row also reports the
    deviation from alt_main / phi(q).
    """
    def chain(top: int) -> list[QRow]:
        """Rows of top, top / 2, ... down to the first odd q, from one pass over values."""
        counts = _per_class_counts(values, top, weights)
        out, q = [], top
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
            out.append(QRow(q, int(coprime[i]), float(dev[i]), term, alt_dev, alt_term))
            if q % 2:
                return out
            q //= 2
            counts = counts.reshape(2, q).sum(axis=0)

    # every q <= q_max is top / 2^k for exactly one top in (q_max/2, q_max]
    tops = range(q_max // 2 + 1, q_max + 1)
    if values.size * len(tops) > sieve.SEGMENT:
        chains = sieve._in_two(chain, tops)
    else:
        chains = [chain(top) for top in tops]
    rows = sorted((row for chain_rows in chains for row in chain_rows), key=lambda row: row.q)
    total = math.fsum(r.max_abs_dev for r in rows)
    return DiscrepancyReport(per_q=tuple(rows), total=total, main_term_used=main)


def _target_values(cfg: DiscrepancyConfig, table: FactorTable) -> np.ndarray:
    """The primes <= N or the star-set members, ascending, in window_dtype.

    The members are collected one sieve.CHUNK of the window at a time.
    """
    N = cfg.N
    if cfg.target == PRIMES_LE_N:
        return (2 + np.flatnonzero(table.omega[table.span(2, N + 1)] == 1)).astype(window_dtype(N + 1))
    rows = ((a, balanced._star_rows(cfg.spec, table, a, b)) for a, b in balanced._chunks(N, table))
    return np.concatenate([(N + a + np.flatnonzero(star)).astype(window_dtype(2 * N)) for a, star in rows])


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
    c0v = density.c0(spec.r, spec.eps).value  # checks r before the window scan
    members = _target_values(cfg, table)
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
    if cfg.target != PRIMES_LE_N:
        raise ValueError("config target must be primes_le_N")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"need alpha in (0, 1), got {alpha}")
    N = cfg.N
    m_max = int(N ** (1.0 - alpha))
    f = np.asarray(f, dtype=np.float64)
    if f.size < m_max:
        raise ValueError(f"need f values for m = 1..{m_max}, got {f.size}")
    if not np.all(np.isfinite(f[:m_max])) or np.abs(f[:m_max]).max(initial=0.0) > 1.0 + 1e-12:
        raise ValueError("f must be finite with |f(m)| <= 1")
    primes = _target_values(cfg, table).astype(np.int64)  # int64 indices scatter faster
    # g(n) = sum_{n = m p} f(m); a product m p with gcd(m, q) > 1 falls in a
    # class that is not coprime to q, so it drops out of every row maximum;
    # the pairs (m, p <= N/m) with f(m) != 0, listed by ascending m, are
    # added sieve.BLOCK at a time; np.add.at adds repeated products in list
    # order, so each g(n) gets its f(m) in ascending m from 0.0
    ms = np.flatnonzero(f[:m_max]) + 1
    ends = np.cumsum(np.searchsorted(primes, N // ms, side="right"))  # pi(N/m) pairs per m, accumulated
    starts = np.concatenate(([0], ends[:-1]))
    g = np.zeros(N + 1)
    for k0 in range(0, int(ends[-1]) if ends.size else 0, sieve.BLOCK):
        k1 = min(k0 + sieve.BLOCK, int(ends[-1]))
        i0, i1 = np.searchsorted(ends, [k0, k1 - 1], side="right")  # the m of the first and last pair
        lens = np.minimum(ends[i0 : i1 + 1], k1) - np.maximum(starts[i0 : i1 + 1], k0)
        i = np.repeat(np.arange(i0, i1 + 1), lens)  # the m of each pair
        m = ms[i]
        np.add.at(g, m * primes[np.arange(k0, k1) - starts[i]], f[m - 1])
    del ms, ends, starts
    support = np.flatnonzero(g).astype(window_dtype(N + 1))
    g_vals = g[support]
    del g  # keep only the support of g through the per-q passes
    # one sieve.BLOCK of m at a time bounds Li's temporaries; Li gives each
    # element the same value in any array, and fsum is exactly rounded
    main_terms = np.empty(m_max)
    for a in range(0, m_max, sieve.BLOCK):
        b = min(a + sieve.BLOCK, m_max)
        main_terms[a:b] = f[a:b] * log_integral(np.maximum(N / np.arange(a + 1, b + 1), 2.0))
    rep = _discrepancy(support, g_vals, cfg.q_max, math.fsum(main_terms))
    return replace(rep, main_term_used=log_integral(N))
