"""Truncated divisor-sum sieve weights and their empirical moment sums.

The weight is

    w_R(n; H, l) = 1/(k+l)! * sum_{d | P_H(n), d <= R} mu(d) ln^(k+l)(R/d),

with P_H(n) the product of the shifted values n + h_i.  Two routes are
provided: a per-n oracle that factors each n + h_i and enumerates the
squarefree divisors depth-first, and a batch route that plans the
squarefree d <= R with their values and residue classes (one depth-first
walk, one CRT step per appended prime) once, then adds each d's value
to its classes in a buffer starting at any lo.  The moment sums fill one
sieve.CHUNK of [N, 2N) at a time from that plan, the first half of the
chunks in a forked child when two cores are free, write their summand
into that chunk's weights in place, with the float operations of the
plain expression in its order, and pass the chunk sums to math.fsum in
chunk order, so they hold no N-sized array and keep their bits.  The star
rows that the widened indicator reads are computed inside each chunk's
job too.  A window of one chunk longer than half a chunk is filled in two
halves the same way, in one shared mapping.

The moment operations compare the empirical sums against the predicted
main terms: the square sum scales as N (ln R)^(k+2l), the prime-indicator
sum as N (ln R)^(k+2l+1) / ln N, and the widened indicator (primes plus
star-set members) multiplies the latter by 1 + C0(r, eps).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from math import comb, factorial

import numpy as np

from . import balanced, density, sieve
from .sieve import FactorTable, factorize
from .tuples import AdmissibleTuple, positivity_factor, singular_series

#: Cap on the (d, CRT class) pairs of the weight plan, over all squarefree d <= R.
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


def _squarefree_moduli(R: float, H: AdmissibleTuple) -> list[tuple[int, int, list[int]]]:
    """All squarefree d <= R as (d, mu(d), sorted classes of P_H(n) == 0 mod d), ascending in d.

    The depth-first walk appends primes in increasing order, and a child's
    classes come from its parent's by one CRT step over the roots of P_H
    mod the new prime.  The budget counts the (d, class) pairs held, which
    set the plan's memory and the fill's strided updates per chunk.  Every
    d has a class and more than MAX_DIVISORS squarefree d lie below
    2 * MAX_DIVISORS, so a larger R is refused before its primes are sieved
    (as too large for memory, if that sieve would not fit).
    """
    if R >= 2 * MAX_DIVISORS:
        sieve.check_fits(sieve.primes_nbytes(int(R)))
        raise ValueError(f"R={R} exceeds the divisor enumeration budget")
    plist = [int(p) for p in sieve.primes_up_to(int(R))]
    out: list[tuple[int, int, list[int]]] = []
    pairs = 0

    def dfs(i: int, d: int, mu: int, classes: list[int]) -> None:
        nonlocal pairs
        out.append((d, mu, classes))
        pairs += len(classes)
        if pairs > MAX_DIVISORS:
            raise ValueError(f"R={R} exceeds the divisor enumeration budget")
        for j in range(i, len(plist)):
            p = plist[j]
            if d * p > R:
                break
            roots = sorted({(-h) % p for h in H.offsets})
            inv = pow(d, -1, p)
            # sorted copies a list at its exact size: the plan holds no spare slots
            lifted = sorted([a + d * ((r - a) * inv % p) for a in classes for r in roots])
            dfs(j + 1, d * p, -mu, lifted)

    dfs(0, 1, 1, [0])
    out.sort()
    return out


def _weight_plan(cfg: WeightConfig) -> tuple[np.ndarray, list[tuple[int, float, list[int]]]]:
    """The weight fill's plan: a periodic base and (d, value, CRT classes mod d) for the other d.

    Every squarefree d <= R adds mu(d) ln^(k+l)(R/d) / (k+l)! to its classes.
    The longest prefix of the ascending d whose lcm stays within BLOCK
    (d <= 16 once R >= 16, period 30030 = 2*3*5*7*11*13) is summed once,
    from 0.0 and in increasing d, into a base vector of one period; the
    rest follow ascending in d.
    """
    power = cfg.k + cfg.l
    norm = 1.0 / factorial(power)
    terms = [(d, mu * math.log(cfg.R / d) ** power * norm, classes)
             for d, mu, classes in _squarefree_moduli(cfg.R, cfg.H)]
    period, n_base = 1, 0
    while n_base < len(terms) and math.lcm(period, terms[n_base][0]) <= BLOCK:
        period = math.lcm(period, terms[n_base][0])
        n_base += 1
    base = np.zeros(period, dtype=np.float64)
    for d, val, classes in terms[:n_base]:
        for a in classes:
            base[a::d] += val
    return base, terms[n_base:]


def _fill(plan: tuple[np.ndarray, list[tuple[int, float, list[int]]]], buf: np.ndarray, lo: int) -> None:
    """Write the weight of every n in [lo, lo + len(buf)) to buf, whatever buf held.

    Each element receives its additions from 0.0 in increasing d, which
    fixes the rounding.  The base holds, for each residue mod its period,
    the sum over the prefix of that order, so copying it from phase lo mod
    period gives every element the partial sum those additions would have.
    The copy and the remaining small moduli d <= BLOCK_MAX_D (a prefix of
    what is left) are applied one BLOCK-sized stretch of buf at a time so
    that it stays in cache, and the larger d then add over all of buf.
    """
    base, rest = plan
    period = len(base)
    n_small = sum(d <= BLOCK_MAX_D for d, _, _ in rest)
    for b0 in range(0, len(buf), BLOCK):
        block = buf[b0 : b0 + BLOCK]
        # one period from phase (lo + b0) mod period, then doubled in place
        j, m = (lo + b0) % period, min(len(block), period)
        head = min(period - j, m)
        block[:head] = base[j : j + head]
        block[head:m] = base[: m - head]
        s = period
        while s < len(block):
            block[s : 2 * s] = block[: min(s, len(block) - s)]
            s *= 2
        for d, val, classes in rest[:n_small]:
            for a in classes:
                block[(a - lo - b0) % d :: d] += val
    for d, val, classes in rest[n_small:]:
        for a in classes:
            buf[(a - lo) % d :: d] += val


def lambda_r_batch(lo: int, hi: int, cfg: WeightConfig, table: FactorTable | None = None) -> np.ndarray:
    """Weights for every n in [lo, hi) by residue-class accumulation.

    The weight depends on n only through its residues mod the squarefree
    d <= R, so no factorizations are needed; the optional table is only
    range-checked for interface parity with the oracle.  It plans the
    moduli once (_weight_plan) and writes them into a new vector (_fill).
    An empty or reversed range is refused, as build_factor_table refuses it.
    """
    if hi <= lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi})")
    if table is not None:
        table.span(lo, hi)
    w = np.empty(hi - lo, dtype=np.float64)
    _fill(_weight_plan(cfg), w, lo)
    return w


def _window_sums(N: int, cfg: WeightConfig, table: FactorTable, term) -> list:
    """term(w, a, b) for each sieve.CHUNK-sized chunk [a, b) of offsets from N, in chunk order.

    w holds the weights of that chunk alone, so no N-sized array is built.
    The chunks are shared between two processes (sieve._in_two); each fills
    its own chunk buffer, allocated at its first chunk, after the fork.  A
    window of one chunk longer than CHUNK // 2 has its two halves filled by
    two processes in one shared mapping, and the caller takes term over the
    whole of it; _fill gives each element the same additions wherever its
    range starts, so the weights and the sum keep their bits.
    """
    table.span(N, 2 * N + max(cfg.H.offsets))
    plan = _weight_plan(cfg)
    if sieve.CHUNK // 2 < N <= sieve.CHUNK:
        (w,) = sieve._shared(N, np.float64)
        cuts = (0, N // 2, N)
        sieve._in_two(lambda i: _fill(plan, w[cuts[i] : cuts[i + 1]], N + cuts[i]), (0, 1))
        return [term(w, 0, N)]
    buf = None

    def chunk(a: int):
        nonlocal buf
        if buf is None:
            buf = np.empty(min(sieve.CHUNK, N), dtype=np.float64)
        b = min(a + sieve.CHUNK, N)
        w = buf[: b - a]
        _fill(plan, w, N + a)
        return term(w, a, b)

    return sieve._in_two(chunk, range(0, N, sieve.CHUNK))


def _window_fsum(N: int, cfg: WeightConfig, table: FactorTable, term) -> float:
    """Deterministic compensated sum of the summand arrays term(w, a, b): fsum over the chunk sums."""
    return math.fsum(_window_sums(N, cfg, table, lambda w, a, b: float(term(w, a, b).sum())))


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


@functools.lru_cache(maxsize=64)
def _series_value(H: AdmissibleTuple) -> float:
    """The singular series of H at SERIES_P_MAX, computed once per tuple."""
    return singular_series(H, SERIES_P_MAX).value


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


def _main_term(N: int, cfg: WeightConfig, s_h: float, j: int, uplift: float = 1.0) -> float:
    """binom(2l+2j, l+j) N (ln R)^(k+2l+j) S(H) uplift / ((k+2l+j)! (ln N)^j).

    j = 0 predicts the square sum, j = 1 the prime-indicator sum; uplift is
    1 + C0 for the widened indicator.  The default 1.0 and (ln N)^0 are exact.
    """
    k, l = cfg.k, cfg.l
    return (
        comb(2 * l + 2 * j, l + j)
        * N
        * math.log(cfg.R) ** (k + 2 * l + j)
        * s_h
        * uplift
        / (factorial(k + 2 * l + j) * math.log(N) ** j)
    )


def _report(N: int, cfg: WeightConfig, variant: str, empirical: float, predicted: float, **extra) -> MomentReport:
    """The report of one moment sum; the ratio is inf when the prediction is 0."""
    ratio = empirical / predicted if predicted != 0 else math.inf
    return MomentReport(N, cfg, variant, empirical, predicted, ratio, extra)


def moment_lemma1(N: int, cfg: WeightConfig, table: FactorTable) -> MomentReport:
    """Sum of squared weights over [N, 2N) vs its predicted main term."""
    _range_warnings(N, cfg, quarter=False)
    empirical = _window_fsum(N, cfg, table, lambda w, a, b: np.multiply(w, w, out=w))
    s_h = _series_value(cfg.H)
    return _report(
        N, cfg, LEMMA1, empirical, _main_term(N, cfg, s_h, 0),
        singular_series=s_h, degenerate=s_h == 0.0,
    )


def _prime_indicator(N: int, h: int, table: FactorTable, a: int, b: int) -> np.ndarray:
    """Primality of n + h for n in [N + a, N + b), no window restriction."""
    return table.omega[table.span(N + h + a, N + h + b)] == 1


def _squared_times(w: np.ndarray, a: int, indicator) -> np.ndarray:
    """w * w * indicator(c, d), written into w, the weights of offsets [a, a + len(w)).

    Each element is rounded as that expression rounds it; the indicator is
    taken one BLOCK [c, d) at a time, so its bool array is one BLOCK long.
    """
    w *= w
    for c in range(a, a + len(w), BLOCK):
        d = min(c + BLOCK, a + len(w))
        w[c - a : d - a] *= indicator(c, d)
    return w


def moment_lemma2(N: int, cfg: WeightConfig, h: int, table: FactorTable) -> MomentReport:
    """Squared weights against the prime indicator at shift h."""
    check_moment_args(N, cfg, h)
    _range_warnings(N, cfg, quarter=True)
    empirical = _window_fsum(
        N, cfg, table, lambda w, a, b: _squared_times(w, a, lambda c, d: _prime_indicator(N, h, table, c, d))
    )
    s_h = _series_value(cfg.H)
    return _report(N, cfg, LEMMA2, empirical, _main_term(N, cfg, s_h, 1), h=h, singular_series=s_h)


def _checked_star_rows(
    N: int, spec: balanced.StarSetSpec, cfg: WeightConfig, table: FactorTable, a: int, b: int
) -> np.ndarray:
    """Star rows of N + [a, min(b + max H, N)), all n + h in [N, 2N) for n in [N + a, N + b).

    Checked free of prime factors <= R when R < N^a1.
    """
    end = min(b + max(cfg.H.offsets), N)
    star = balanced._star_rows(spec, table, a, end)
    if cfg.R < spec.N ** spec.a1 and not (table.p_minus[table.span(N + a, N + end)][star] > cfg.R).all():
        raise ArithmeticError("star member with a prime factor below R")
    return star


def _wide_indicator(N: int, h: int, star: np.ndarray, table: FactorTable, a: int, b: int) -> np.ndarray:
    """Indicator of n + h prime or a star-set member, for n in [N + a, N + b).

    The prime part carries no window restriction so that this dominates
    the plain prime indicator pointwise; star membership (star, the rows
    of N + [a, ...) from _checked_star_rows) is inherently confined to
    [N, 2N), i.e. to n < 2N - h.
    """
    hit = _prime_indicator(N, h, table, a, b)
    star = star[h : h + b - a]
    hit[: len(star)] |= star
    return hit


def moment_lemma3(
    N: int, cfg: WeightConfig, h: int, spec: balanced.StarSetSpec, table: FactorTable
) -> MomentReport:
    """Squared weights against the widened prime-or-star indicator."""
    check_moment_args(N, cfg, h, spec)
    _range_warnings(N, cfg, quarter=True)

    def term(w, a, b):
        star = _checked_star_rows(N, spec, cfg, table, a, b)
        return _squared_times(w, a, lambda c, d: _wide_indicator(N, h, star[c - a :], table, c, d))

    empirical = _window_fsum(N, cfg, table, term)
    s_h = _series_value(cfg.H)
    c0v = density.c0(spec.r, spec.eps).value
    return _report(
        N, cfg, LEMMA3, empirical, _main_term(N, cfg, s_h, 1, 1.0 + c0v),
        h=h, r=spec.r, eps=spec.eps, c0=c0v, singular_series=s_h,
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
    _range_warnings(N, cfg, quarter=True)

    def term(w, a, b):
        star = _checked_star_rows(N, spec, cfg, table, a, b)
        hits = np.zeros(b - a, dtype=np.min_scalar_type(cfg.k))  # holds k without wrapping
        for h in cfg.H.offsets:
            hits += _wide_indicator(N, h, star, table, a, b)
        # w * ((hits - 1) * w) == ((hits - 1) * w) * w, written into w one BLOCK at a time
        for s in range(0, b - a, BLOCK):
            x = np.subtract(hits[s : s + BLOCK], 1.0, dtype=np.float64)
            x *= w[s : s + BLOCK]
            w[s : s + BLOCK] *= x
        return float(w.sum()), int((hits >= 2).sum())

    sums = _window_sums(N, cfg, table, term)
    empirical = math.fsum(s for s, _ in sums)
    s_h = _series_value(cfg.H)
    c0v = density.c0(spec.r, spec.eps).value
    return _report(
        N, cfg, S_STATISTIC, empirical,
        _main_term(N, cfg, s_h, 0) * positivity_factor(cfg.k, cfg.l, c0v),
        r=spec.r, eps=spec.eps, c0=c0v, singular_series=s_h,
        multi_hit_count=sum(c for _, c in sums),
    )
