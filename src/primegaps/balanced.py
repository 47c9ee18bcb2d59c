"""Classification and counting of balanced numbers and star sets.

An integer n >= 2 is eps-balanced when every pair of its prime divisors
p, q satisfies min(p, q) >= max(p, q)^(1-eps); equivalently, when
(1 - eps) * ln P^+(n) <= ln P^-(n).  At eps = 0 this picks out exactly
the primes and prime powers.  The star set over a window [N, 2N) keeps
the n with exactly r prime factors (with multiplicity), all lying in the
prime interval [N^a1, N^a2] with a1 = (1 - eps/2)/r, a2 = (1 + eps/2)/r.

Boundary comparisons are done in log space with a fixed tie tolerance so
that regression counts are floating-point deterministic; ties count as
inside.  Both window sets are products p_1 <= ... <= p_r of primes, so
they are listed from their primes, with no factor table.  A star member
has every p_i in I, the primes whose ln p passes _in_interval.  A
balanced one has p_1 at least an integer floor below which the predicate
is provably false (N^((1-eps)/r) less TIE_TOL and a 1e-9 relative
margin, since P^+(n) >= N^(1/r)) and p_r within the _balanced bound of
ln p_1.  The members of N + [a, b) are, for each prefix p_1 ... p_(r-1),
a run of primes q found by searchsorted: summed for a count, scattered
for the rows of a mask.  n = 1 is not eps-balanced for any eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import density, sieve
from .sieve import FactorTable, Factorization

#: Tie tolerance for log-space boundary comparisons; ties count as inside.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class BalanceClassification:
    n: int
    omega_big: int
    threshold: float  # minimal eps for which n is eps-balanced
    is_prime: bool


@dataclass(frozen=True)
class StarSetSpec:
    """Window-base N, factor count r and width eps of a star set.

    The derived exponents a1 = (1 - eps/2)/r and a2 = (1 + eps/2)/r bound
    the prime interval I = [N^a1, N^a2].
    """

    N: int
    r: int
    eps: float

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"window base must be >= 2, got N={self.N}")
        if self.r < 1:
            raise ValueError(f"need r >= 1, got r={self.r}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"need eps in (0, 1), got eps={self.eps}")

    @property
    def a1(self) -> float:
        return (1.0 - self.eps / 2.0) / self.r

    @property
    def a2(self) -> float:
        return (1.0 + self.eps / 2.0) / self.r


def _balanced(ln_pmin, ln_pmax, eps: float):
    """(1 - eps) ln P^+ <= ln P^- up to TIE_TOL, for floats or arrays alike."""
    return (1.0 - eps) * ln_pmax <= ln_pmin + TIE_TOL


def _in_interval(ln_pmin, ln_pmax, spec: StarSetSpec):
    """P^-, P^+ inside [N^a1, N^a2] up to TIE_TOL, for floats or arrays alike."""
    ln_n = math.log(spec.N)
    return (ln_pmin >= spec.a1 * ln_n - TIE_TOL) & (ln_pmax <= spec.a2 * ln_n + TIE_TOL)


def is_eps_balanced(f: Factorization, eps: float) -> bool:
    """True iff P^-(n) >= P^+(n)^(1-eps), with ties counting as balanced."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"need eps in [0, 1), got {eps}")
    if f.n < 2:
        raise ValueError("n = 1 is not classified; balance needs n >= 2")
    return _balanced(math.log(f.p_minus), math.log(f.p_plus), eps)


def classify(f: Factorization) -> BalanceClassification:
    """Balance threshold and prime-factor count for one integer."""
    if f.n < 2:
        raise ValueError("n = 1 is not classified; balance needs n >= 2")
    if f.p_minus == f.p_plus:
        threshold = 0.0  # prime or prime power
    else:
        threshold = 1.0 - math.log(f.p_minus) / math.log(f.p_plus)
    return BalanceClassification(
        n=f.n, omega_big=f.omega_big, threshold=threshold, is_prime=f.omega_big == 1
    )


def in_star_set(f: Factorization, spec: StarSetSpec) -> bool:
    """Membership of one integer in the star set over [N, 2N)."""
    n, N = f.n, spec.N
    if not N <= n < 2 * N:
        return False
    if f.omega_big != spec.r:
        return False
    return _in_interval(math.log(f.p_minus), math.log(f.p_plus), spec)


def _star_primes(spec: StarSetSpec, table: FactorTable | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The primes of I (sieved to just past N^a2, below 2N), and for each the end of the last factors: all of I.

    The optional table is only range-checked.
    """
    if table is not None:
        table.span(spec.N, 2 * spec.N)
    top = int(math.exp(spec.a2 * math.log(spec.N) + TIE_TOL) * (1.0 + 1e-9)) + 1
    primes = sieve.primes_up_to(min(top, 2 * spec.N - 1))
    lp = np.log(primes.astype(np.float64))
    primes = primes[_in_interval(lp, lp, spec)]
    return primes, np.full(primes.size, primes.size)


def _balanced_primes(N: int, r: int, eps: float, table: FactorTable | None = None):
    """The primes from the balance floor to (2N - 1) // floor^(r-1), and for each p_1 the end of its last factors.

    The end is the first q with _balanced(ln p_1, ln q, eps) false, the
    expression taken element by element; it is monotone in q.  The
    optional table is only range-checked.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"need eps in [0, 1), got {eps}")
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if table is not None:
        table.span(N, 2 * N)
    if N < 2:
        raise ValueError(f"window base must be >= 2, got N={N}")
    floor = max(2, int(math.exp((1.0 - eps) / r * math.log(N) - TIE_TOL) * (1.0 - 1e-9)))
    primes = sieve.primes_up_to((2 * N - 1) // floor ** (r - 1))
    primes = primes[np.searchsorted(primes, floor) :]
    lp = np.log(primes.astype(np.float64))
    return primes, np.searchsorted((1.0 - eps) * lp, lp + TIE_TOL, side="right")


def _prefixes(primes: np.ndarray, stop: np.ndarray, r: int, N: int):
    """Blocks (prod, start, end) of the prefixes p_1 <= ... <= p_(r-1) of primes with prod * p_(r-1) < 2N.

    The members are the prod * q with q in primes[start:end]: start
    indexes p_(r-1), end is stop at p_1.  The level before last comes in
    arrays of at most sieve.BLOCK prefixes and the levels above it are
    looped over, so r = 3 streams over p_1.  The prefix of r = 1 is empty.
    """
    if r == 1:
        return [(np.ones(1, np.int64), np.zeros(1, np.int64), np.full(1, primes.size))]

    def level(prod: int, i0: int, first: int | None, k: int):
        top = (2 * N - 1) // prod  # each of the k factors left is at least the next: p^k <= top
        end = primes.size if first is None else int(stop[first])
        if k > 2:
            for m in range(i0, end):
                if int(primes[m]) ** k > top:
                    return
                yield from level(prod * int(primes[m]), m, m if first is None else first, k - 1)
            return
        end = min(end, int(np.searchsorted(primes, math.isqrt(top), side="right")))
        for c in range(i0, end, sieve.BLOCK):
            idx = np.arange(c, min(c + sieve.BLOCK, end))
            yield prod * primes[idx], idx, stop[idx] if first is None else np.full(idx.size, stop[first])

    return level(1, 0, None, r)


def _listed(primes: np.ndarray, stop: np.ndarray, r: int, N: int) -> tuple[np.ndarray, tuple]:
    """The primes and all their prefixes over [N, 2N) as one block, which rows are scattered from."""
    cols = zip(*_prefixes(primes, stop, r, N))
    return primes, tuple(np.concatenate(c) for c in cols) or (np.empty(0, np.int64),) * 3


def _runs(primes: np.ndarray, block: tuple, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Per prefix, the first index and the number of the q of its range with lo <= prod * q < hi."""
    prod, start, end = block
    s = np.maximum(start, np.searchsorted(primes, -(-lo // prod)))
    n = np.minimum(end, np.searchsorted(primes, -(-hi // prod))) - s
    return s, np.maximum(n, 0, out=n)


def _rows(primes: np.ndarray, block: tuple, lo: int, hi: int) -> np.ndarray:
    """Mask over [lo, hi) of the members prod * q of block, scattered one sieve.CHUNK at a time."""
    rows = np.zeros(hi - lo, dtype=bool)
    for c in range(lo, hi, sieve.CHUNK):
        s, n = _runs(primes, block, c, min(c + sieve.CHUNK, hi))
        ends = np.cumsum(n)
        q = primes[np.arange(ends[-1] if n.size else 0) + np.repeat(s - ends + n, n)]
        rows[np.repeat(block[0], n) * q - lo] = True
    return rows


def _count(primes: np.ndarray, stop: np.ndarray, r: int, N: int) -> int:
    """Members over [N, 2N), summed one block of prefixes at a time."""
    return sum(int(_runs(primes, block, N, 2 * N)[1].sum()) for block in _prefixes(primes, stop, r, N))


def star_mask(spec: StarSetSpec, table: FactorTable | None = None) -> np.ndarray:
    """Boolean star-set mask over [N, 2N); the optional table is only range-checked."""
    return _rows(*_listed(*_star_primes(spec, table), spec.r, spec.N), spec.N, 2 * spec.N)


def count_star(spec: StarSetSpec, table: FactorTable | None = None) -> tuple[int, float]:
    """Exact star-set count over [N, 2N) plus the C0(r, eps) * N / ln N prediction."""
    density.check_args(spec.r, spec.eps)  # r before any work
    count = _count(*_star_primes(spec, table), spec.r, spec.N)
    return count, density.c0(spec.r, spec.eps).value * spec.N / math.log(spec.N)


def balanced_mask(N: int, r: int, eps: float, table: FactorTable | None = None) -> np.ndarray:
    """Mask over [N, 2N) of eps-balanced numbers with exactly r prime factors."""
    return _rows(*_listed(*_balanced_primes(N, r, eps, table), r, N), N, 2 * N)


def count_eps_r(N: int, r: int, eps: float, table: FactorTable | None = None) -> int:
    """#{N <= n < 2N : n eps-balanced, Omega(n) = r}, from the primes alone."""
    return _count(*_balanced_primes(N, r, eps, table), r, N)
