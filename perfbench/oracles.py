"""Reference computations that share no code with the primegaps package.

Each function here re-derives a quantity from its definition (sympy
factorizations, a plain Eratosthenes sieve, mpmath integrals, closed-form
counting bounds), so the benchmark can check the package's outputs
without trusting the package.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache

import mpmath
import numpy as np
from sympy import factorint

#: Tie tolerance for log-space boundary tests; ties count as inside.
TIE = 1e-12


def primes_below(hi: int) -> np.ndarray:
    """Ascending int64 array of the primes < hi."""
    mask = np.ones(max(hi, 2), dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(hi - 1) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def prime_mask(lo: int, hi: int) -> np.ndarray:
    """Primality of every n in [lo, hi), lo >= 2, by a windowed sieve."""
    mask = np.ones(hi - lo, dtype=bool)
    for p in (int(p) for p in primes_below(math.isqrt(hi - 1) + 1)):
        start = max(p * p, -(-lo // p) * p)
        mask[start - lo :: p] = False
    return mask


def factor_stats(n: int) -> tuple[int, int, int]:
    """(Omega(n), least prime factor, greatest prime factor) via sympy."""
    f = factorint(n)
    return sum(f.values()), min(f), max(f)


def is_balanced(n: int, r: int, eps: float) -> bool:
    omega, pmin, pmax = factor_stats(n)
    return omega == r and (1 - eps) * math.log(pmax) <= math.log(pmin) + TIE


def star_members(N: int, r: int, eps: float) -> np.ndarray:
    """Sorted n in [N, 2N) with n = p_1 ... p_r and every p_i in [N^a1, N^a2].

    Enumerates nondecreasing prime tuples from the interval; the last
    factor runs over the primes between the integer product bounds.
    """
    ln_n = math.log(N)
    a1, a2 = (1 - eps / 2) / r, (1 + eps / 2) / r
    P = np.array([p for p in primes_below(int(math.exp(a2 * ln_n)) + 2).tolist()
                  if a1 * ln_n - TIE <= math.log(p) <= a2 * ln_n + TIE], dtype=np.int64)
    out = [np.empty(0, dtype=np.int64)]

    def walk(start: int, prod: int, left: int) -> None:
        if left == 1:
            lo = max(start, int(np.searchsorted(P, -(-N // prod))))
            hi = int(np.searchsorted(P, (2 * N - 1) // prod, side="right"))
            out.append(prod * P[lo:hi])
            return
        for j in range(start, len(P)):
            p = int(P[j])
            if prod * p**left >= 2 * N:
                break
            walk(j, prod * p, left - 1)

    walk(0, 1, r)
    return np.sort(np.concatenate(out))


def balanced_count_r2(N: int, eps: float, primes: np.ndarray) -> int:
    """#{N <= n < 2N : n = p q, p <= q, (1 - eps) ln q <= ln p}; primes must reach N."""
    total = 0
    for p in (int(p) for p in primes[primes * primes < 2 * N]):
        lo, hi = max(p, -(-N // p)), (2 * N - 1) // p
        qs = primes[bisect_left(primes, lo) : bisect_right(primes, hi)]
        total += int(np.count_nonzero((1 - eps) * np.log(qs.astype(np.float64)) <= math.log(p) + TIE))
    return total


def mobius(m: int) -> int:
    f = factorint(m)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def phi(q: int) -> int:
    out = q
    for p in factorint(q):
        out = out // p * (p - 1)
    return out


def offset_li(x: float) -> float:
    """Offset logarithmic integral, integral of dt/ln t from 2 to x."""
    return float(mpmath.li(x) - mpmath.li(2))


def c0_r2(eps: float) -> float:
    a1, a2 = (1 - eps / 2) / 2, (1 + eps / 2) / 2
    return 2 * math.log(a2 / a1)


@lru_cache(maxsize=None)
def c0_r3(eps: float) -> float:
    """C0(3, eps) with the inner integral done in closed form.

    For fixed x the inner variable y runs over [g, h] with
    g = max(a1, 1 - a2 - x), h = min(a2, 1 - a1 - x), and
    the integral of dy / (y (c - y)) with c = 1 - x is ln(y / (c - y)) / c.
    """
    a1, a2 = (1 - eps / 2) / 3, (1 + eps / 2) / 3

    def outer(x):
        c = 1 - x
        g = max(a1, 1 - a2 - x)
        h = max(g, min(a2, 1 - a1 - x))
        return (mpmath.log(h / (c - h)) - mpmath.log(g / (c - g))) / (x * c)

    with mpmath.workdps(30):
        return float(mpmath.quad(outer, [a1, 1 - a1 - a2, a2]))


def c0_bound(r: int, eps: float) -> float:
    return r * eps ** (r - 1) / (1 - eps / 2) ** r


def positivity(k: int, l: int, c0v: float) -> float:
    return k / (k + 2 * l + 1) * (2 * l + 1) / (2 * l + 2) * (1 + c0v) - 1


def min_k(c0v: float, k_cap: int = 10_000) -> tuple[int, int] | None:
    """Smallest (k, l) with a positive factor, scanning l upward for each k."""
    for k in range(1, k_cap + 1):
        for l in range(k + 1):
            if positivity(k, l, c0v) > 0:
                return k, l
    return None


def admissible(offsets: tuple[int, ...]) -> bool:
    k = len(offsets)
    return all(len({h % p for h in offsets}) < p for p in (int(p) for p in primes_below(k + 1)))


@lru_cache(maxsize=None)
def squarefree_upto(R: float) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(d, prime factors) for every squarefree d <= R, ascending in d."""
    top = int(R)
    out = []
    for d in range(1, top + 1):
        f = factorint(d)
        if all(e == 1 for e in f.values()):
            out.append((d, tuple(sorted(f))))
    return tuple(out)


def nu(pf: tuple[int, ...], offsets: tuple[int, ...]) -> int:
    """Residue classes n mod d with d | prod (n + h): the product of nu_p."""
    out = 1
    for p in pf:
        out *= len({(-h) % p for h in offsets})
    return out


@lru_cache(maxsize=None)
def weight_work(R: float, offsets: tuple[int, ...]) -> tuple[int, int, float]:
    """(squarefree moduli, residue classes, sum of classes/d) for weights at R."""
    mods = squarefree_upto(R)
    classes = 0
    per_len = 0.0
    for d, pf in mods:
        v = nu(pf, offsets)
        classes += v
        per_len += v / d
    return len(mods), classes, per_len


def lemma1_model(N: int, offsets: tuple[int, ...], l: int, R: float) -> tuple[float, float]:
    """Finite-size model of sum_{N <= n < 2N} w(n)^2 and a rigorous error bound.

    Expanding the square, w^2 = sum_{d,e} mu(d) mu(e) L_d L_e [lcm(d,e) | P(n)],
    and #{n in [N, 2N) : m | P(n)} = nu(m) N / m + theta with |theta| <= nu(m),
    so |sum - model| <= sum_{d,e} |L_d L_e| nu(lcm(d,e)).
    """
    power = len(offsets) + l
    mods = squarefree_upto(R)
    d = np.array([m for m, _ in mods], dtype=np.int64)
    mu = np.array([(-1) ** len(pf) for _, pf in mods], dtype=np.float64)
    L = mu * np.log(R / d) ** power / math.factorial(power)
    nu_of = np.zeros(int(R) + 1, dtype=np.float64)
    for m, pf in mods:
        nu_of[m] = nu(pf, offsets)
    g = np.gcd.outer(d, d)
    lcm = (d[:, None] // g) * d[None, :]
    nu_lcm = nu_of[d][:, None] * nu_of[d][None, :] / nu_of[g]
    LL = np.outer(L, L)
    model = N * float(np.sum(LL * nu_lcm / lcm))
    bound = float(np.sum(np.abs(LL) * nu_lcm))
    return model, bound


def naive_weight(n: int, offsets: tuple[int, ...], l: int, R: float) -> float:
    """w_R(n) from its definition, with sympy factoring each n + h."""
    primes = sorted({p for h in offsets for p in factorint(n + h) if p <= R})
    power = len(offsets) + l
    total = []

    def walk(i: int, d: int, sign: int) -> None:
        total.append(sign * math.log(R / d) ** power)
        for j in range(i, len(primes)):
            if d * primes[j] > R:
                break
            walk(j + 1, d * primes[j], -sign)

    walk(0, 1, 1)
    return math.fsum(total) / math.factorial(power)
