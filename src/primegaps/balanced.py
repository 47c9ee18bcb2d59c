"""Classification and counting of balanced numbers and star sets.

An integer n >= 2 is eps-balanced when every pair of its prime divisors
p, q satisfies min(p, q) >= max(p, q)^(1-eps); equivalently, when
(1 - eps) * ln P^+(n) <= ln P^-(n).  At eps = 0 this picks out exactly
the primes and prime powers.  The star set over a window [N, 2N) keeps
the n with exactly r prime factors (with multiplicity), all lying in the
prime interval [N^a1, N^a2] with a1 = (1 - eps/2)/r, a2 = (1 + eps/2)/r.

Boundary comparisons are done in log space with a fixed tie tolerance so
that regression counts are floating-point deterministic; ties count as
inside.  The window masks scan [N, 2N) one sieve.CHUNK at a time: each
chunk gathers the n with Omega(n) = r whose P^-(n) reaches an integer
floor below which the predicate is provably false (N^a1 for the star set;
N^((1-eps)/r) for balance, since P^+(n) >= n^(1/r) >= N^(1/r)), each less
TIE_TOL and a 1e-9 relative margin, and takes logs of P^-(n) and P^+(n)
only there.  n = 1 is not eps-balanced for any eps.
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


def _omega_r_mask(table: FactorTable, N: int, r: int, predicate, floor_exp: float) -> np.ndarray:
    """Mask over [N, 2N) of Omega(n) = r with predicate(ln P^-, ln P^+) true.

    predicate must be false wherever ln P^- < floor_exp * ln N - TIE_TOL.
    Scanned one sieve.CHUNK at a time; logs are taken only at the n with
    Omega(n) = r and P^-(n) at least that bound's integer floor, taken
    with a 1e-9 relative margin for rounding.
    """
    sl = table.span(N, 2 * N)
    omega, p_minus, p_plus = table.omega[sl], table.p_minus[sl], table.p_plus[sl]
    floor = int(math.exp(floor_exp * math.log(N) - TIE_TOL) * (1.0 - 1e-9))
    mask = np.zeros(N, dtype=bool)
    for a in range(0, N, sieve.CHUNK):
        c = slice(a, a + sieve.CHUNK)
        idx = np.flatnonzero((omega[c] == r) & (p_minus[c] >= floor))
        lpmin = np.log(p_minus[c][idx].astype(np.float64))
        lpmax = np.log(p_plus[c][idx].astype(np.float64))
        mask[a + idx[predicate(lpmin, lpmax)]] = True
    return mask


def star_mask(spec: StarSetSpec, table: FactorTable) -> np.ndarray:
    """Boolean star-set mask over the window offsets [N, 2N) of the table."""
    return _omega_r_mask(
        table, spec.N, spec.r, lambda lpmin, lpmax: _in_interval(lpmin, lpmax, spec), spec.a1
    )


def count_star(spec: StarSetSpec, table: FactorTable) -> tuple[int, float]:
    """Exact star-set count over [N, 2N) plus the C0(r, eps) * N / ln N prediction."""
    c0v = density.c0(spec.r, spec.eps).value  # checks r before the window scan
    count = int(star_mask(spec, table).sum())
    predicted = c0v * spec.N / math.log(spec.N)
    return count, predicted


def balanced_mask(N: int, r: int, eps: float, table: FactorTable) -> np.ndarray:
    """Mask over [N, 2N) of eps-balanced numbers with exactly r prime factors."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"need eps in [0, 1), got {eps}")
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    return _omega_r_mask(
        table, N, r, lambda lpmin, lpmax: _balanced(lpmin, lpmax, eps), (1.0 - eps) / r
    )


def count_eps_r(N: int, r: int, eps: float, table: FactorTable) -> int:
    """#{N <= n < 2N : n eps-balanced, Omega(n) = r} by full scan."""
    return int(balanced_mask(N, r, eps, table).sum())
