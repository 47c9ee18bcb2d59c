"""Truncated divisor-sum sieve weights and their empirical moment sums.

The weight is

    w_R(n; H, l) = 1/(k+l)! * sum_{d | P_H(n), d <= R} mu(d) ln^(k+l)(R/d),

with P_H(n) the product of the shifted values n + h_i.  Two routes are
provided: a per-n oracle that factors each n + h_i and enumerates the
squarefree divisors depth-first, and a batch route that walks squarefree
d <= R once and adds each d's contribution to its residue classes (found
by CRT from the roots of P_H mod each prime of d).  The batch route is
what the window-length moment sums use.

The moment operations compare the empirical sums against the predicted
main terms: the square sum scales as N (ln R)^(k+2l), the prime-indicator
sum as N (ln R)^(k+2l+1) / ln N, and the widened indicator (primes plus
star-set members) multiplies the latter by 1 + C0(r, eps).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from math import comb, factorial

import numpy as np

from . import balanced, density
from .sieve import FactorTable, factorize
from .tuples import AdmissibleTuple, positivity_factor, singular_series

#: Cap on enumerated squarefree moduli in the batch route.
MAX_DIVISORS = 5_000_000

#: Float64 elements per cache block of the batch weight accumulation (1 MiB).
BLOCK = 1 << 17

#: Largest modulus the batch accumulation applies block by block.
BLOCK_MAX_D = 256

#: Singular-series truncation used for predicted main terms.
SERIES_P_MAX = 1_000_000

LEMMA1 = "lemma1"
LEMMA2 = "lemma2"
LEMMA3 = "lemma3"
S_STATISTIC = "s_statistic"


@dataclass(frozen=True)
class WeightConfig:
    """(H, l, R) parameterization; k is the tuple size.

    Both the normalization factorial and the log exponent use k + l.
    """

    H: AdmissibleTuple
    l: int
    R: float

    def __post_init__(self):
        if self.l < 0:
            raise ValueError(f"need l >= 0, got {self.l}")
        if self.R < 2:
            raise ValueError(f"need R >= 2, got {self.R}")

    @property
    def k(self) -> int:
        return self.H.k


@dataclass(frozen=True)
class MomentReport:
    N: int
    config: WeightConfig
    variant: str
    empirical: float
    predicted_main_term: float
    ratio: float
    extra: dict = field(default_factory=dict)


def lambda_r_naive(n: int, cfg: WeightConfig, table: FactorTable) -> float:
    """Oracle evaluation of the weight at one n by divisor enumeration."""
    k, l, R = cfg.k, cfg.l, cfg.R
    primes: set[int] = set()
    for h in cfg.H.offsets:
        primes.update(p for p, _ in factorize(table, n + h).factors)
    plist = sorted(p for p in primes if p <= R)
    power = k + l
    terms: list[float] = []

    def dfs(i: int, d: int, sign: int) -> None:
        terms.append(sign * math.log(R / d) ** power)
        for j in range(i, len(plist)):
            nd = d * plist[j]
            if nd > R:
                break
            dfs(j + 1, nd, -sign)

    dfs(0, 1, 1)
    return math.fsum(terms) / factorial(power)


def _squarefree_moduli(R: float) -> list[tuple[int, int, tuple[int, ...]]]:
    """All squarefree d <= R as (d, mu(d), prime factors), ascending in d."""
    from .sieve import primes_up_to

    plist = [int(p) for p in primes_up_to(int(R))]
    out: list[tuple[int, int, tuple[int, ...]]] = []

    def dfs(i: int, d: int, mu: int, pf: tuple[int, ...]) -> None:
        out.append((d, mu, pf))
        if len(out) > MAX_DIVISORS:
            raise ValueError(f"R={R} exceeds the divisor enumeration budget")
        for j in range(i, len(plist)):
            nd = d * plist[j]
            if nd > R:
                break
            dfs(j + 1, nd, -mu, pf + (plist[j],))

    dfs(0, 1, 1, ())
    out.sort()
    return out


def _residue_classes(pf: tuple[int, ...], H: AdmissibleTuple) -> tuple[int, list[int]]:
    """CRT roots of P_H(n) == 0 mod the product of the given primes."""
    m = 1
    classes = [0]
    for p in pf:
        roots = sorted({(-h) % p for h in H.offsets})
        inv = pow(m, -1, p)
        classes = [a + m * ((r - a) * inv % p) for a in classes for r in roots]
        m *= p
    return m, sorted(classes)


def lambda_r_batch(lo: int, hi: int, cfg: WeightConfig, table: FactorTable | None = None) -> np.ndarray:
    """Weights for every n in [lo, hi) by residue-class accumulation.

    The weight depends on n only through its residues mod the squarefree
    d <= R, so no factorizations are needed; the optional table is only
    range-checked for interface parity with the oracle.  Each element
    receives its additions in increasing d, which fixes the rounding: the
    small moduli d <= BLOCK_MAX_D, a prefix of that order, are applied one
    BLOCK-sized stretch of the vector at a time so that it stays in cache,
    and the larger d then add over the whole vector.
    """
    if table is not None and (lo < table.lo or hi > table.hi):
        raise ValueError(f"[{lo}, {hi}) not covered by table [{table.lo}, {table.hi})")
    k, l, R = cfg.k, cfg.l, cfg.R
    power = k + l
    norm = 1.0 / factorial(power)

    def terms(d: int, mu: int, pf: tuple[int, ...]) -> tuple[float, list[int]]:
        """The value d adds and, per residue class, the offset of its first member from lo."""
        _, classes = _residue_classes(pf, cfg.H)
        return mu * math.log(R / d) ** power * norm, [(a - lo) % d for a in classes]

    moduli = _squarefree_moduli(R)
    n_small = sum(d <= BLOCK_MAX_D for d, _, _ in moduli)
    small = [(d, *terms(d, mu, pf)) for d, mu, pf in moduli[:n_small]]
    w = np.zeros(hi - lo, dtype=np.float64)
    for b0 in range(0, len(w), BLOCK):
        block = w[b0 : b0 + BLOCK]
        for d, val, starts in small:
            for start in starts:
                block[(start - b0) % d :: d] += val
    for d, mu, pf in moduli[n_small:]:
        val, starts = terms(d, mu, pf)
        for start in starts:
            w[start::d] += val
    return w


def _chunked_fsum(values: np.ndarray, chunk: int = 1 << 20) -> float:
    """Deterministic compensated reduction: fsum over fixed-size chunk sums."""
    parts = [float(values[i : i + chunk].sum()) for i in range(0, len(values), chunk)]
    return math.fsum(parts)


def _range_warnings(N: int, cfg: WeightConfig, quarter: bool) -> None:
    limit = N**0.25 if quarter else math.sqrt(N)
    if cfg.R > limit:
        warnings.warn(
            f"R={cfg.R} exceeds the stated range (~N^{'1/4' if quarter else '1/2'}); "
            "the asymptotic main term may not apply",
            stacklevel=3,
        )
    if max(cfg.H.offsets) > 50 * math.log(N):
        warnings.warn(
            f"max offset {max(cfg.H.offsets)} is large next to ln N; "
            "window-edge effects may not be negligible",
            stacklevel=3,
        )


def _series_value(cfg: WeightConfig) -> float:
    return singular_series(cfg.H, SERIES_P_MAX).value


def _weights_window(N: int, cfg: WeightConfig, table: FactorTable) -> np.ndarray:
    hmax = max(cfg.H.offsets)
    if table.lo > N or table.hi < 2 * N + hmax:
        raise ValueError(
            f"table [{table.lo}, {table.hi}) must cover [{N}, {2 * N + hmax})"
        )
    return lambda_r_batch(N, 2 * N, cfg, table)


def check_moment_args(
    N: int, cfg: WeightConfig, h: int | None = None, spec: balanced.StarSetSpec | None = None
) -> None:
    """Reject a shift h outside the tuple and a star spec other than r in (2, 3) over base N.

    Cheap, so callers can run it before building the factor table.
    """
    if h is not None and h not in cfg.H.offsets:
        raise ValueError(f"shift h={h} not in tuple {cfg.H.offsets}")
    if spec is not None:
        if spec.r not in (2, 3):
            raise ValueError(f"star factor count must be 2 or 3, got r={spec.r}")
        if spec.N != N:
            raise ValueError(f"spec window base {spec.N} != N={N}")


def _lemma1_main(N: int, cfg: WeightConfig, s_h: float) -> float:
    """binom(2l, l) N (ln R)^(k+2l) S(H) / (k+2l)!."""
    k, l = cfg.k, cfg.l
    return comb(2 * l, l) * N * math.log(cfg.R) ** (k + 2 * l) * s_h / factorial(k + 2 * l)


def _lemma2_main(N: int, cfg: WeightConfig, s_h: float, uplift: float = 1.0) -> float:
    """binom(2l+2, l+1) N (ln R)^(k+2l+1) S(H) uplift / ((k+2l+1)! ln N).

    uplift is 1 + C0 for the widened indicator; the default 1.0 is exact.
    """
    k, l = cfg.k, cfg.l
    return (
        comb(2 * l + 2, l + 1)
        * N
        * math.log(cfg.R) ** (k + 2 * l + 1)
        * s_h
        * uplift
        / (factorial(k + 2 * l + 1) * math.log(N))
    )


def moment_lemma1(N: int, cfg: WeightConfig, table: FactorTable) -> MomentReport:
    """Sum of squared weights over [N, 2N) vs its predicted main term."""
    _range_warnings(N, cfg, quarter=False)
    w = _weights_window(N, cfg, table)
    empirical = _chunked_fsum(w * w)
    s_h = _series_value(cfg)
    predicted = _lemma1_main(N, cfg, s_h)
    ratio = empirical / predicted if predicted > 0 else math.inf
    return MomentReport(
        N=N,
        config=cfg,
        variant=LEMMA1,
        empirical=empirical,
        predicted_main_term=predicted,
        ratio=ratio,
        extra={"singular_series": s_h, "degenerate": s_h == 0.0},
    )


def _prime_indicator(N: int, h: int, table: FactorTable) -> np.ndarray:
    """Primality of n + h for n in [N, 2N), no window restriction."""
    i0 = N + h - table.lo
    return table.omega[i0 : i0 + N] == 1


def moment_lemma2(N: int, cfg: WeightConfig, h: int, table: FactorTable) -> MomentReport:
    """Squared weights against the prime indicator at shift h."""
    check_moment_args(N, cfg, h)
    _range_warnings(N, cfg, quarter=True)
    w = _weights_window(N, cfg, table)
    chi = _prime_indicator(N, h, table)
    empirical = _chunked_fsum(w * w * chi)
    s_h = _series_value(cfg)
    predicted = _lemma2_main(N, cfg, s_h)
    ratio = empirical / predicted if predicted > 0 else math.inf
    return MomentReport(
        N=N,
        config=cfg,
        variant=LEMMA2,
        empirical=empirical,
        predicted_main_term=predicted,
        ratio=ratio,
        extra={"h": h, "singular_series": s_h},
    )


def _checked_star_mask(N: int, spec: balanced.StarSetSpec, cfg: WeightConfig, table: FactorTable) -> np.ndarray:
    """Star mask over [N, 2N), checked free of prime factors <= R when R < N^a1."""
    smask = balanced.star_mask(spec, table)
    pmin = table.p_minus[N - table.lo : 2 * N - table.lo]
    if cfg.R < spec.N ** spec.a1 and not (pmin[smask] > cfg.R).all():
        raise ArithmeticError("star member with a prime factor below R")
    return smask


def _wide_indicator(N: int, h: int, smask: np.ndarray, table: FactorTable) -> np.ndarray:
    """Indicator of n + h prime or a star-set member, for n in [N, 2N).

    The prime part carries no window restriction so that this dominates
    the plain prime indicator pointwise; star membership (smask, over
    [N, 2N)) is inherently confined to [N, 2N), i.e. to n < 2N - h.
    """
    hit = np.zeros(N, dtype=bool)
    hit[: max(N - h, 0)] = smask[h:]
    return _prime_indicator(N, h, table) | hit


def moment_lemma3(
    N: int, cfg: WeightConfig, h: int, spec: balanced.StarSetSpec, table: FactorTable
) -> MomentReport:
    """Squared weights against the widened prime-or-star indicator."""
    check_moment_args(N, cfg, h, spec)
    smask = _checked_star_mask(N, spec, cfg, table)
    _range_warnings(N, cfg, quarter=True)
    w = _weights_window(N, cfg, table)
    chi = _wide_indicator(N, h, smask, table)
    empirical = _chunked_fsum(w * w * chi)
    s_h = _series_value(cfg)
    c0v = density.c0(spec.r, spec.eps).value
    predicted = _lemma2_main(N, cfg, s_h, 1.0 + c0v)
    ratio = empirical / predicted if predicted > 0 else math.inf
    return MomentReport(
        N=N,
        config=cfg,
        variant=LEMMA3,
        empirical=empirical,
        predicted_main_term=predicted,
        ratio=ratio,
        extra={"h": h, "r": spec.r, "eps": spec.eps, "c0": c0v, "singular_series": s_h},
    )


def s_statistic(
    N: int, cfg: WeightConfig, spec: balanced.StarSetSpec, table: FactorTable
) -> MomentReport:
    """Weighted count of hits minus one across the tuple shifts.

    empirical = sum over n in [N, 2N) of (sum_i chi(n + h_i) - 1) w(n)^2;
    a positive value certifies two hits among {n + h_i} for some n in the
    window.  Also reports the number of n with at least two hits.
    """
    check_moment_args(N, cfg, spec=spec)
    smask = _checked_star_mask(N, spec, cfg, table)
    _range_warnings(N, cfg, quarter=True)
    w = _weights_window(N, cfg, table)
    hits = np.zeros(N, dtype=np.int16)
    for h in cfg.H.offsets:
        hits += _wide_indicator(N, h, smask, table)
    empirical = _chunked_fsum((hits.astype(np.float64) - 1.0) * w * w)
    s_h = _series_value(cfg)
    c0v = density.c0(spec.r, spec.eps).value
    predicted = _lemma1_main(N, cfg, s_h) * positivity_factor(cfg.k, cfg.l, c0v)
    ratio = empirical / predicted if predicted != 0 else math.inf
    return MomentReport(
        N=N,
        config=cfg,
        variant=S_STATISTIC,
        empirical=empirical,
        predicted_main_term=predicted,
        ratio=ratio,
        extra={
            "r": spec.r,
            "eps": spec.eps,
            "c0": c0v,
            "singular_series": s_h,
            "multi_hit_count": int((hits >= 2).sum()),
        },
    )
