"""Segmented smallest-prime-factor sieve over a window, plus mu, phi and Li.

The FactorTable is the factorization backbone for the whole package: it
stores, for every integer in [lo, hi), its least prime factor, greatest
prime factor and number of prime factors counted with multiplicity, built
by a segmented Eratosthenes-style pass.  All downstream window scans
(balance classification, star-set counts, weight sums, discrepancy sums)
read these arrays directly; the masks and moment sums do so one CHUNK
of the window at a time, so their scratch memory is bounded by the chunk.

Conventions fixed here for the whole package:
- all logarithms are natural logarithms;
- Li(x) is the offset logarithmic integral, the integral of 1/ln t from 2 to x;
- the window floor is 2 (n = 1 is rejected by factorize).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expi

SEGMENT = 1 << 22  # integers per sieve segment
CHUNK = 1 << 20  # integers per chunk of the window scans above the table

_LI_OFFSET = expi(math.log(2.0))  # li(2), subtracted so Li(2) = 0


def primes_up_to(n: int) -> np.ndarray:
    """Ascending int64 array of all primes <= n (plain boolean sieve)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


@dataclass(frozen=True)
class Factorization:
    """Complete prime factorization of one integer.

    factors is an ordered tuple of (prime, exponent) pairs with strictly
    increasing primes and exponents >= 1.  For n = 1 the tuple is empty.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError(f"malformed factor list for n={self.n}")
            prev = p
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factor list does not reconstruct n={self.n}")

    @property
    def omega_big(self) -> int:
        """Omega(n): number of prime factors counted with multiplicity."""
        return sum(e for _, e in self.factors)

    @property
    def p_minus(self) -> int:
        """Least prime factor; undefined for n = 1."""
        if not self.factors:
            raise ValueError("P^-(1) is undefined")
        return self.factors[0][0]

    @property
    def p_plus(self) -> int:
        """Greatest prime factor; undefined for n = 1."""
        if not self.factors:
            raise ValueError("P^+(1) is undefined")
        return self.factors[-1][0]


@dataclass(frozen=True)
class FactorTable:
    """Immutable per-offset factor data for the window [lo, hi).

    Attributes:
        lo, hi: window bounds, 2 <= lo < hi, hi exclusive.
        p_minus: int64 array, least prime factor of lo + i.
        p_plus: int64 array, greatest prime factor of lo + i.
        omega: int16 array, Omega(lo + i) with multiplicity.
        primes: primes <= sqrt(hi - 1), used for out-of-window quotients.

    An entry whose least prime factor exceeds sqrt(hi - 1) is a prime.
    All arrays are read-only; a table may be shared freely across threads.
    """

    lo: int
    hi: int
    p_minus: np.ndarray
    p_plus: np.ndarray
    omega: np.ndarray
    primes: np.ndarray

    def index(self, n: int) -> int:
        if not (self.lo <= n < self.hi):
            raise ValueError(f"n={n} outside table window [{self.lo}, {self.hi})")
        return n - self.lo


def _sieve_segment(lo: int, hi: int, primes: np.ndarray, pmin, pmax, omega) -> None:
    """Fill factor stats for [lo, hi) in place in one walk over the prime powers."""
    rem = np.arange(lo, hi, dtype=np.int64)
    for p in (int(p) for p in primes):
        q = p
        first = True
        while q < hi:
            start = ((lo + q - 1) // q) * q
            if start >= hi:
                break
            s = start - lo
            omega[s::q] += 1
            rem[s::q] //= p
            if first:
                pmax[s::q] = p
                sub = pmin[s::q]
                sub[sub == 0] = p
            q *= p
            first = False
    # Residual cofactors: after removing all prime factors <= sqrt(hi),
    # what remains is either 1 or a single prime > sqrt(hi).  A zero pmin
    # means no prime <= sqrt(hi) divides n, so n = rem is itself prime.
    left = rem > 1
    omega += left
    np.copyto(pmax, rem, where=left)
    np.copyto(pmin, rem, where=pmin == 0)


def build_factor_table(lo: int, hi: int) -> FactorTable:
    """Build the factor table for the window [lo, hi).

    Cost is O((hi - lo) log log hi + sqrt(hi)).  The outputs take 18 bytes
    per integer (int64 p_minus and p_plus, int16 omega); the pass works one
    SEGMENT-sized segment at a time, so its scratch memory is bounded by
    the segment, not by the window.
    Deterministic: rebuilding any sub-window yields identical entries.
    """
    if lo < 2:
        raise ValueError(f"window floor is 2, got lo={lo}")
    if hi <= lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi})")
    size = hi - lo
    primes = primes_up_to(math.isqrt(hi - 1))
    pmin = np.zeros(size, dtype=np.int64)
    pmax = np.zeros(size, dtype=np.int64)
    omega = np.zeros(size, dtype=np.int16)
    for seg_lo in range(lo, hi, SEGMENT):
        seg_hi = min(seg_lo + SEGMENT, hi)
        a, b = seg_lo - lo, seg_hi - lo
        _sieve_segment(seg_lo, seg_hi, primes, pmin[a:b], pmax[a:b], omega[a:b])
    for arr in (pmin, pmax, omega, primes):
        arr.flags.writeable = False
    return FactorTable(lo=lo, hi=hi, p_minus=pmin, p_plus=pmax, omega=omega, primes=primes)


def _trial_spf(n: int, primes: np.ndarray) -> int:
    """Smallest prime factor of n by trial division; n itself if prime."""
    for p in (int(p) for p in primes):
        if p * p > n:
            break
        if n % p == 0:
            return p
    return n


def factorize(table: FactorTable, n: int) -> Factorization:
    """Complete factorization of n via the table's recorded smallest factors.

    Quotients that fall below the window are finished by trial division
    over the table's small-prime list, which always reaches sqrt of any
    quotient since quotients stay below hi.
    """
    idx = table.index(n)  # raises for out-of-window n, including n = 1
    factors: list[tuple[int, int]] = []
    cur = n
    while cur > 1:
        if table.lo <= cur < table.hi:
            p = int(table.p_minus[cur - table.lo])
        else:
            p = _trial_spf(cur, table.primes)
        e = 0
        while cur % p == 0:
            cur //= p
            e += 1
        factors.append((p, e))
    f = Factorization(n=n, factors=tuple(factors))
    if f.omega_big != int(table.omega[idx]):
        raise ArithmeticError(
            f"factorization of {n} has Omega={f.omega_big}, table says {int(table.omega[idx])}"
        )
    return f


def mobius(f: Factorization) -> int:
    """Mobius mu: 0 on non-squarefree n, else (-1)^(number of primes)."""
    for _, e in f.factors:
        if e >= 2:
            return 0
    return -1 if len(f.factors) % 2 else 1


def euler_phi(f: Factorization) -> int:
    """Euler totient, computed in exact integer arithmetic."""
    out = 1
    for p, e in f.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def log_integral(x: float) -> float:
    """Offset logarithmic integral Li(x), the integral of dt/ln t from 2 to x.

    Evaluated through the exponential integral, accurate to ~1e-14 relative;
    differs from the unoffset li(x) by the constant li(2) ~ 1.0451638.
    """
    if x < 2:
        raise ValueError(f"Li is defined here for x >= 2, got {x}")
    if x == 2:
        return 0.0
    return float(expi(math.log(x)) - _LI_OFFSET)
