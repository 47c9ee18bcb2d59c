"""Discrepancy sums over arithmetic progressions, computed exactly.

For each modulus q up to a cutoff, the target set (primes up to N, or the
star-set members of a window [N, 2N)) is counted in every residue class;
the report records, per q, the worst deviation over classes coprime to q
from the expected main term, and the sum of those maxima over q.  A third
variant weights the inner prime counts by a bounded coefficient f(m) over
products m * p <= N.

All three run through one kernel, `_discrepancy`, against a scalar main
term M / phi(q).  It takes the class totals mod q from one of two
sources: the residue bincount of an integer target list (primes, star
members), or the class sums of the weighted variant's dense
g(n) = sum f(m) over n = m * p, which add each class in increasing n as
bincount does.  Class totals mod q are the two halves of those mod 2q
added, so only q in (q_max/2, q_max] takes a pass over the targets; each
smaller q is reached by halving from one.  Each row lists its coprime
classes by striking the multiples of q's prime factors.  The list passes
take int32 residues below 2^31, as values - (values // q) * q: numpy
divides by a scalar through libdivide, and has no such route for %.
When the passes cover more than sieve.SEGMENT targets in all, the tops
are shared between the caller and one forked child when two cores are
free (sieve._in_two); each process holds the residues of its own list
pass, while a weighted pass reads g in place and holds only its q totals.
The rows come back by q and the total is summed in q order, so the
report is the same either way.  No variant reads a factor table: the
primes <= N come from sieve.primes_up_to, and the star members are listed
from the primes of their interval (balanced).  The weighted variant's
main terms sum Li(N/m) one sieve.BLOCK of m at a time, and its g is
scattered one sieve.BLOCK of pairs (m, p) at a time.

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


def _per_class_counts(values: np.ndarray, q: int) -> np.ndarray:
    """Counts of the positive values in each class mod q.

    The residues are values - (values // q) * q, equal to values % q for
    positive values, in one buffer reused in place: numpy divides by a
    scalar through libdivide but has no such route for %.
    """
    res = np.floor_divide(values, q)
    res *= q
    np.subtract(values, res, out=res)
    return np.bincount(res, minlength=q)


def _class_sums(g: np.ndarray, q: int) -> np.ndarray:
    """Totals of g(n) over each class n mod q, for a dense g over n = 0 .. g.size - 1.

    Each class is added in increasing n, the order of np.bincount over n % q:
    the rows of q classes are summed down their columns and the short last
    row is added into the first classes.  numpy sums a single column
    pairwise, so q = 1 carries a running total through cumsums instead,
    one sieve.BLOCK at a time.
    """
    if q == 1:
        total = 0.0
        for a in range(0, g.size, sieve.BLOCK):
            total = np.cumsum(np.concatenate(([total], g[a : a + sieve.BLOCK])))[-1]
        return np.array([total])
    cut = g.size - g.size % q
    sums = g[:cut].reshape(-1, q).sum(axis=0)
    sums[: g.size - cut] += g[cut:]
    return sums


def _coprime_classes(q: int) -> np.ndarray:
    """The classes a mod q coprime to q, ascending: a mask struck at the multiples of each prime factor of q."""
    keep = np.ones(q, dtype=bool)
    d, rest = 2, q
    while d * d <= rest:
        if rest % d == 0:
            keep[::d] = False
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        keep[::rest] = False
    return np.flatnonzero(keep)


def _discrepancy(
    totals, size: int, q_max: int, main: float, alt_main: float | None = None,
) -> DiscrepancyReport:
    """Worst coprime-class deviation from main / phi(q) for q = 1 .. q_max.

    totals(top) gives the class totals mod top, from a pass over size
    targets: the residue bincount of a value list, or the class sums of a
    dense g.  With alt_main, each row also reports the deviation from
    alt_main / phi(q).
    """
    def chain(top: int) -> list[QRow]:
        """Rows of top, top / 2, ... down to the first odd q, from one pass over the targets."""
        counts = totals(top)
        out, q = [], top
        while True:
            coprime = _coprime_classes(q)
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
    if size * len(tops) > sieve.SEGMENT:
        chains = sieve._in_two(chain, tops)
    else:
        chains = [chain(top) for top in tops]
    rows = sorted((row for chain_rows in chains for row in chain_rows), key=lambda row: row.q)
    total = math.fsum(r.max_abs_dev for r in rows)
    return DiscrepancyReport(per_q=tuple(rows), total=total, main_term_used=main)


def _primes(N: int, table: FactorTable | None) -> np.ndarray:
    """The int64 primes <= N from sieve.primes_up_to; the table, if given, is only range-checked."""
    if table is not None:
        table.span(2, N + 1)
    return sieve.primes_up_to(N)


def _target_values(cfg: DiscrepancyConfig, table: FactorTable | None) -> np.ndarray:
    """The primes <= N or the star-set members, ascending, in window_dtype.

    Each target is charged before it is listed: 28 B per prime under
    sieve.pi_bound(N), for its value and, in each of two processes, a pass's
    residues and bincount's int64 copy of int32 ones; 32 B per star member,
    scattered from the primes of I (the table, if given, is only
    range-checked) one sieve.CHUNK at a time, which also covers their
    chunk pieces while joined.
    """
    N = cfg.N
    if cfg.target == PRIMES_LE_N:
        sieve.check_fits(28 * sieve.pi_bound(N))
        return _primes(N, table).astype(window_dtype(N + 1))
    star = balanced._listed(*balanced._star_primes(cfg.spec, table), cfg.spec.r, N)
    sieve.check_fits(32 * int(balanced._runs(*star, N, 2 * N)[1].sum()))
    rows = ((a, balanced._rows(*star, N + a, min(N + a + sieve.CHUNK, 2 * N))) for a in range(0, N, sieve.CHUNK))
    return np.concatenate([(N + a + np.flatnonzero(mask)).astype(window_dtype(2 * N)) for a, mask in rows])


def bv_prime_discrepancy(cfg: DiscrepancyConfig, table: FactorTable | None = None) -> DiscrepancyReport:
    """Worst-class prime-count deviation from Li(N)/phi(q), summed over q.

    The optional table is only range-checked.
    """
    if cfg.target != PRIMES_LE_N:
        raise ValueError("config target must be primes_le_N")
    primes = _target_values(cfg, table)
    main = log_integral(cfg.N)
    return _discrepancy(lambda top: _per_class_counts(primes, top), primes.size, cfg.q_max, main)


def bv_star_discrepancy(cfg: DiscrepancyConfig, table: FactorTable | None = None) -> DiscrepancyReport:
    """Star-set analogue with main term C0(r, eps) * Li(N) / phi(q).

    The window-matched alternative C0 * (Li(2N) - Li(N)) / phi(q) is
    reported alongside, since the set is counted over [N, 2N).  The
    optional table is only range-checked.
    """
    if cfg.target != STAR_SET_WINDOW or cfg.spec is None:
        raise ValueError("config target must be star_set_window with a spec")
    spec = cfg.spec
    density.check_args(spec.r, spec.eps)  # r before any work
    members = _target_values(cfg, table)
    c0v = density.c0(spec.r, spec.eps).value
    li_n = log_integral(spec.N)
    li_window = log_integral(2 * spec.N) - li_n
    return _discrepancy(lambda top: _per_class_counts(members, top), members.size, cfg.q_max,
                        c0v * li_n, c0v * li_window)


def weighted_nbytes(N: int, m_max: int, q_max: int) -> int:
    """Bytes held by weighted_discrepancy besides f, for m_max = N^(1 - alpha) coefficients.

    The primes <= N (primes_nbytes); g's N + 1 floats; the scatter's per-m
    lists, later the main terms: 24 B per m; the temporaries of one
    sieve.BLOCK of (m, p) pairs, of Li over one BLOCK of m, or of a q = 1
    running sum: 80 B per element; and in each of two processes, the class
    totals of one top and the temporaries of its rows: 56 B per q.
    """
    return sieve.primes_nbytes(N) + 8 * (N + 1) + 24 * m_max + 80 * sieve.BLOCK + 112 * q_max


def weighted_discrepancy(
    cfg: DiscrepancyConfig, alpha: float, f: np.ndarray, table: FactorTable | None = None
) -> DiscrepancyReport:
    """Bounded-coefficient discrepancy over products m * p <= N.

    f is indexed so that f[m - 1] weights m, for m = 1 .. floor(N^(1-alpha));
    every |f(m)| must be <= 1.  The per-(q, a) deviation is

        | sum_m f(m) ( #{p <= N/m : m p == a mod q} - Li(N/m)/phi(q) ) |,

    maximized over a coprime to q; classes with gcd(m, q) > 1 contribute
    no primes but keep their main term, exactly as the sum is written.
    The optional table is only range-checked.
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
    primes = _primes(N, table)  # int64 indices scatter faster than int32 ones
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
    del primes, ms, ends, starts  # the per-q passes read g alone, in place
    # one sieve.BLOCK of m at a time bounds Li's temporaries; Li gives each
    # element the same value in any array, and fsum is exactly rounded
    main_terms = np.empty(m_max)
    for a in range(0, m_max, sieve.BLOCK):
        b = min(a + sieve.BLOCK, m_max)
        main_terms[a:b] = f[a:b] * log_integral(np.maximum(N / np.arange(a + 1, b + 1), 2.0))
    rep = _discrepancy(lambda top: _class_sums(g, top), g.size, cfg.q_max, math.fsum(main_terms))
    return replace(rep, main_term_used=log_integral(N))
