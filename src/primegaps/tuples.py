"""Admissible k-tuples, the singular series, and the positivity calculus.

A tuple of offsets H is admissible when it misses at least one residue
class modulo every prime p <= k (for p > k this is automatic).  The
singular series is the Euler product over all primes of
(1 - nu_p(H)/p) (1 - 1/p)^(-k), where nu_p counts the residue classes
occupied by H mod p; it vanishes exactly on inadmissible tuples.

Also here: the level-of-distribution constants, the bracketed positivity
factor that decides when the weighted count of hits exceeds one per n,
and the minimal-k search built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import density
from .sieve import primes_up_to

#: Reported reference constants at level theta = 0.971: smallest usable
#: tuple size and the resulting gap bound. These are quoted values, not
#: outputs of the asymptotic formulas below.
REFERENCE_LEVELS: dict[float, tuple[int, int]] = {0.971: (6, 16)}


@dataclass(frozen=True)
class AdmissibleTuple:
    """Sorted distinct non-negative offsets h_1 < ... < h_k."""

    offsets: tuple[int, ...]

    def __post_init__(self):
        if not self.offsets:
            raise ValueError("tuple needs at least one offset")
        if any(h < 0 for h in self.offsets):
            raise ValueError(f"offsets must be non-negative: {self.offsets}")
        if any(b <= a for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError(f"offsets must be strictly increasing: {self.offsets}")

    @property
    def k(self) -> int:
        return len(self.offsets)

    @property
    def diameter(self) -> int:
        return self.offsets[-1] - self.offsets[0]


@dataclass(frozen=True)
class SingularSeriesValue:
    value: float
    p_max: int  # truncation point of the Euler product
    tail_log_bound: float  # bound on |ln(true/value)| from primes > p_max


@dataclass(frozen=True)
class GpyConstantsQuery:
    """Level of distribution theta = 1/2 + delta, 1/2 < theta <= 1."""

    theta: float

    def __post_init__(self):
        if not 0.5 < self.theta <= 1.0:
            raise ValueError(f"need 1/2 < theta <= 1, got {self.theta}")

    @property
    def delta(self) -> float:
        return self.theta - 0.5


def nu_p(H: AdmissibleTuple, p: int) -> int:
    """Number of distinct residue classes occupied by H mod p."""
    if p < 2:
        raise ValueError(f"p must be prime, got {p}")
    return len({h % p for h in H.offsets})


def is_admissible(H: AdmissibleTuple) -> bool:
    """True iff nu_p(H) < p for every prime p <= k."""
    for p in (int(p) for p in primes_up_to(H.k)):
        if nu_p(H, p) == p:
            return False
    return True


def singular_series(H: AdmissibleTuple, p_max: int) -> SingularSeriesValue:
    """Truncated Euler product for the singular series of H.

    Primes up to max(k, diameter) get their exact occupancy; beyond that
    the offsets are pairwise distinct mod p, so nu_p = k and the factor is
    (1 - k/p)(1 - 1/p)^(-k), handled vectorized.  The per-prime log factor
    satisfies |ln f_p| <= k^2 / p^2 for p >= 2k, giving the reported tail
    bound k^2 / p_max on the log of the omitted product.
    """
    k = H.k
    if p_max < k:
        raise ValueError(f"need p_max >= k, got p_max={p_max} < k={k}")
    if not is_admissible(H):
        return SingularSeriesValue(value=0.0, p_max=p_max, tail_log_bound=0.0)
    split = max(k, H.diameter, 2 * k)
    ps = primes_up_to(p_max)
    small = [int(p) for p in ps[ps <= split]]
    big = ps[ps > split].astype(np.float64)

    logs = []
    for p in small:
        nu = nu_p(H, p)
        logs.append(math.log1p(-nu / p) - k * math.log1p(-1.0 / p))
    big_logs = np.log1p(-k / big) - k * np.log1p(-1.0 / big)
    total = math.fsum(logs) + math.fsum(big_logs.tolist())
    tail = k * k / p_max if p_max >= 2 * k else k * k / (2 * k)
    return SingularSeriesValue(value=math.exp(total), p_max=p_max, tail_log_bound=tail)


def generate_tuple(k: int) -> AdmissibleTuple:
    """Deterministic admissible k-tuple with h_1 = 0 and small diameter.

    Takes the first k primes exceeding k, shifted to start at 0: none of
    them is divisible by any p <= k, so residue class 0 survives mod every
    such p.  Not guaranteed minimal-diameter, but matches the minimum for
    small k (e.g. k = 6 gives diameter 16).
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k == 1:
        return AdmissibleTuple(offsets=(0,))
    limit = max(4 * k, 32)
    while True:
        ps = primes_up_to(limit)
        big = ps[ps > k]
        if big.size >= k:
            base = [int(p) for p in big[:k]]
            return AdmissibleTuple(offsets=tuple(p - base[0] for p in base))
        limit *= 2


def gpy_constants(q: GpyConstantsQuery) -> tuple[int, float]:
    """Tuple size k0 and gap constant for level 1/2 + delta.

    k0 = (2 ceil(1/(2 delta)) + 1)^2 is exact; the gap constant
    2 delta^-2 ln(1/delta) is an asymptotic expression as delta -> 0+ and
    must not be read as an exact value.
    """
    d = q.delta
    k0 = (2 * math.ceil(1.0 / (2.0 * d)) + 1) ** 2
    c = 2.0 / (d * d) * math.log(1.0 / d)
    return k0, c


def positivity_factor(k: int, l: int, c0_val: float) -> float:
    """k/(k+2l+1) * (2l+1)/(2l+2) * (1 + C0) - 1, exactly as bracketed."""
    if k < 1 or l < 0:
        raise ValueError(f"need k >= 1 and l >= 0, got k={k}, l={l}")
    if c0_val < 0:
        raise ValueError(f"need c0_val >= 0, got {c0_val}")
    return k / (k + 2 * l + 1) * (2 * l + 1) / (2 * l + 2) * (1.0 + c0_val) - 1.0


@dataclass(frozen=True)
class MinKResult:
    """Smallest tuple sizes making the positivity factor cross zero."""

    k0: int
    l_star: int
    k0_sqrt_rule: int | None  # under the l = floor(sqrt(k)/2) choice
    l_sqrt_rule: int | None
    c0_val: float


def min_k_for_two(r: int, eps: float, k_cap: int = 10_000) -> MinKResult | None:
    """Smallest k <= k_cap with a positive factor for some l in [0, k].

    Reports both the optimal-l answer and the answer under the square-root
    rule l = floor(sqrt(k)/2).  Returns None when no k below the cap works.
    """
    if r not in (2, 3):
        raise ValueError(f"need r in {{2, 3}}, got {r}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"need eps in (0, 1), got {eps}")
    if k_cap < 1:
        raise ValueError(f"need k_cap >= 1, got {k_cap}")
    c0v = density.c0(r, eps).value

    best: tuple[int, int] | None = None
    sqrt_rule: tuple[int, int] | None = None
    for k in range(1, k_cap + 1):
        if best is None:
            for l in range(0, k + 1):
                if positivity_factor(k, l, c0v) > 0.0:
                    best = (k, l)
                    break
        if sqrt_rule is None:
            l_fixed = math.isqrt(k) // 2
            if positivity_factor(k, l_fixed, c0v) > 0.0:
                sqrt_rule = (k, l_fixed)
        if best is not None and sqrt_rule is not None:
            break
    if best is None:
        return None
    return MinKResult(
        k0=best[0],
        l_star=best[1],
        k0_sqrt_rule=sqrt_rule[0] if sqrt_rule else None,
        l_sqrt_rule=sqrt_rule[1] if sqrt_rule else None,
        c0_val=c0v,
    )


def read_tuple_file(path: str | Path) -> list[AdmissibleTuple]:
    """Read tuples, one per line, comma-separated offsets, '#' comments."""
    out = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        out.append(AdmissibleTuple(offsets=tuple(int(t) for t in line.split(","))))
    return out
