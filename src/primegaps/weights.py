"""Truncated divisor-sum sieve weights and their empirical moment sums.

The weight is

    w_R(n; H, l) = 1/(k+l)! * sum_{d | P_H(n), d <= R} mu(d) ln^(k+l)(R/d),

with P_H(n) the product of the shifted values n + h_i.  Two routes are
provided: a per-n oracle that factors each n + h_i and enumerates the
squarefree divisors depth-first, and a batch route that plans the
squarefree d <= R with their values and residue classes (one depth-first
walk, one CRT step per appended prime) once, then adds each d's value
to its classes in a buffer starting at any lo.  The four moment sums run
through one function (_moment) and one kernel (_moment_sums); they differ
only in the factor that multiplies w^2.  The kernel cuts [N, 2N) into
pieces as sieve._cuts does, the first half of them in a forked child
when two cores are free; each process fills its own buffer from the plan
and writes the summand into it in place, one sieve.BLOCK at a time with
the float operations of the plain expression in their order, and the
piece sums go to math.fsum in order, so the sums hold no N-sized array
and keep their bits.  Lemma 1 reads no indicator.  Lemmas
2 and 3 and S weigh w^2 by the count of shifts h with n + h a target, or
for S by that count minus one.  _moment decides the targets, one mask per
piece: its primes from sieve.prime_window, with the star members, listed
once per sum before the fork.

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

#: Singular-series truncation used for predicted main terms.
SERIES_P_MAX = 1_000_000

#: Moduli d up to this are added into the weights one sieve.BLOCK at a time (_fill).
SMALL_P = 256

LEMMA1 = "lemma1"
LEMMA2 = "lemma2"
LEMMA3 = "lemma3"
S_STATISTIC = "s_statistic"


@dataclass(frozen=True)
class WeightConfig:
    """(H, l, R) parameterization; k is the tuple size.

    Both the normalization factorial and the log exponent use k + l.  The
    weight plan is made once per configuration, at the first use of plan.
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

    @functools.cached_property
    def plan(self) -> tuple[np.ndarray, list[tuple[int, float, list[int]]]]:
        return _weight_plan(self)


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
    The longest prefix of the ascending d whose lcm stays within sieve.BLOCK
    (d <= 16 once R >= 16, period 30030 = 2*3*5*7*11*13) is summed once,
    from 0.0 and in increasing d, into a base vector of one period; the
    rest follow ascending in d.
    """
    power = cfg.k + cfg.l
    norm = 1.0 / factorial(power)
    terms = [(d, mu * math.log(cfg.R / d) ** power * norm, classes)
             for d, mu, classes in _squarefree_moduli(cfg.R, cfg.H)]
    period, n_base = 1, 0
    while n_base < len(terms) and math.lcm(period, terms[n_base][0]) <= sieve.BLOCK:
        period = math.lcm(period, terms[n_base][0])
        n_base += 1
    base = np.zeros(period, dtype=np.float64)
    for d, val, classes in terms[:n_base]:
        for a in classes:
            base[a::d] += val
    base.flags.writeable = False  # shared by every fill of the configuration
    return base, terms[n_base:]


def _fill(plan: tuple[np.ndarray, list[tuple[int, float, list[int]]]], buf: np.ndarray, lo: int) -> None:
    """Write the weight of every n in [lo, lo + len(buf)) to buf, whatever buf held.

    Each element receives its additions from 0.0 in increasing d, which
    fixes the rounding.  The base holds, for each residue mod its period,
    the sum over the prefix of that order, so copying it from phase lo mod
    period gives every element the partial sum those additions would have.
    The copy and the remaining small moduli d <= SMALL_P (a prefix of
    what is left) are applied one sieve.BLOCK of buf at a time so that it
    stays in cache, and the larger d then add over all of buf.
    """
    base, rest = plan
    period = len(base)
    n_small = sum(d <= SMALL_P for d, _, _ in rest)
    for b0 in range(0, len(buf), sieve.BLOCK):
        block = buf[b0 : b0 + sieve.BLOCK]
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
    moduli once (cfg.plan) and writes them into a new vector (_fill).
    An empty or reversed range is refused, as build_factor_table refuses it.
    """
    if hi <= lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi})")
    if table is not None:
        table.span(lo, hi)
    w = np.empty(hi - lo, dtype=np.float64)
    _fill(cfg.plan, w, lo)
    return w


@functools.lru_cache(maxsize=64)
def _series_value(H: AdmissibleTuple) -> float:
    """The singular series of H at SERIES_P_MAX, computed once per tuple."""
    return singular_series(H, SERIES_P_MAX).value


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


def _checked_star(N: int, spec: balanced.StarSetSpec, cfg: WeightConfig) -> tuple:
    """The star set's primes and prefixes over [N, 2N) (balanced._listed), listed once per sum.

    When R < N^a1, a member with a prime factor <= R raises ArithmeticError:
    the members of the primes of I above R alone must be all of them.
    """
    primes, stop = balanced._star_primes(spec)
    k = int(np.searchsorted(primes, cfg.R, side="right"))  # the primes of I up to R
    count = functools.partial(balanced._count, r=spec.r, N=N)
    if cfg.R < spec.N ** spec.a1 and k and count(primes[k:], stop[k:] - k) < count(primes, stop):
        raise ArithmeticError("star member with a prime factor below R")
    return balanced._listed(primes, stop, spec.r, N)


def _moment_sums(N: int, plan, targets, shifts: tuple[int, ...], minus_one: bool) -> tuple[float, int]:
    """fsum over [N, 2N) of w^2 (with shifts, w^2 hits; with minus_one, w^2 (hits - 1)), and #{n : hits(n) >= 2}.

    hits(n) counts the h in shifts with n + h in targets(lo, hi), a bool
    mask over [lo, hi) (None: no indicator), in the smallest type that holds
    len(shifts).  The pieces, as sieve._cuts cuts [0, N), are shared
    between two processes (sieve._in_two), each filling its own buffer.  A
    piece calls targets once, over [N + a, N + b + max shifts), and writes
    its summand into its weights one sieve.BLOCK at a time, as w * w,
    w * w * hits or w * ((hits - 1) * w); the piece sums go to math.fsum in
    order, and they add to the whole window's bit for bit.
    """
    dtype = np.min_scalar_type(len(shifts))
    pieces = sieve._cuts(N)
    size, buf = max(b - a for a, b in pieces), None

    def piece(cut: tuple[int, int]) -> tuple[float, int]:
        nonlocal buf
        a, b = cut
        if buf is None:
            buf = np.empty(size, dtype=np.float64)
        w = buf[: b - a]
        _fill(plan, w, N + a)
        mask = None if targets is None else targets(N + a, N + b + max(shifts))
        multi = 0
        for c in range(0, b - a, sieve.BLOCK):
            x = w[c : c + sieve.BLOCK]
            if mask is None:
                x *= x
                continue
            hits = np.zeros(len(x), dtype=dtype)
            for h in shifts:
                hits += mask[c + h : c + h + len(x)]
            if minus_one:
                y = np.subtract(hits, 1.0, dtype=np.float64)
                y *= x
                x *= y
                multi += int((hits >= 2).sum())
            else:
                x *= x
                x *= hits
        return float(w.sum()), multi

    sums = sieve._in_two(piece, pieces)
    return math.fsum(s for s, _ in sums), sum(m for _, m in sums)


def _moment(
    variant: str, N: int, cfg: WeightConfig, table: FactorTable | None,
    h: int | None = None, spec: balanced.StarSetSpec | None = None,
) -> MomentReport:
    """One moment sum over [N, 2N) against its predicted main term; the ratio is inf when that is 0.

    The sums differ only in the factor that multiplies w^2: none for Lemma
    1, the indicator at shift h for Lemma 2 (the primes) and Lemma 3 (the
    primes or, from spec, the star set), and the hits minus one over every
    shift of H for S.  Before the range warnings, in this order: the
    arguments are checked, a table passed in must cover [N, 2N + max H),
    and the weights are planned (refusing an R past the divisor budget).
    The kernel reads its targets through one mask per piece, over the
    piece's shifted range (with no window restriction, so the widened
    count dominates the plain one pointwise): its primes from
    sieve.prime_window, with the star members below 2N (from
    _checked_star) OR'd in.  The table is read for nothing else.
    """
    if h is not None and h not in cfg.H.offsets:
        raise ValueError(f"shift h={h} not in tuple {cfg.H.offsets}")
    if spec is not None:
        if spec.r not in (2, 3):
            raise ValueError(f"star factor count must be 2 or 3, got r={spec.r}")
        if spec.N != N:
            raise ValueError(f"spec window base {spec.N} != N={N}")
    if N < 2:  # refused as a table build would refuse it, for Lemma 1 too
        raise ValueError(f"window floor is 2, got lo={N}")
    if table is not None:
        table.span(N, 2 * N + max(cfg.H.offsets))
    plan = cfg.plan
    reads_primes = variant != LEMMA1
    if cfg.R > (N**0.25 if reads_primes else math.sqrt(N)):
        warnings.warn(
            f"R={cfg.R} exceeds the stated range (~N^{'1/4' if reads_primes else '1/2'}); "
            "the asymptotic main term may not apply",
            stacklevel=3,
        )
    if max(cfg.H.offsets) > 50 * math.log(N):
        warnings.warn(
            f"max offset {max(cfg.H.offsets)} is large next to ln N; "
            "window-edge effects may not be negligible",
            stacklevel=3,
        )
    minus_one = variant == S_STATISTIC
    shifts = cfg.H.offsets if minus_one else () if h is None else (h,)
    star = None if spec is None else _checked_star(N, spec, cfg)

    def targets(lo: int, hi: int) -> np.ndarray:
        hit = sieve.prime_window(lo, hi)
        if star is not None:
            top = min(hi, 2 * N)
            hit[: top - lo] |= balanced._rows(*star, lo, top)
        return hit

    empirical, multi = _moment_sums(N, plan, targets if reads_primes else None, shifts, minus_one)
    s_h = _series_value(cfg.H)
    extra = {} if h is None else {"h": h}
    if spec is not None:
        c0v = density.c0(spec.r, spec.eps).value
        extra.update(r=spec.r, eps=spec.eps, c0=c0v)
    extra["singular_series"] = s_h
    if variant == LEMMA1:
        predicted = _main_term(N, cfg, s_h, 0)
        extra["degenerate"] = s_h == 0.0
    elif minus_one:
        predicted = _main_term(N, cfg, s_h, 0) * positivity_factor(cfg.k, cfg.l, c0v)
        extra["multi_hit_count"] = multi
    else:
        predicted = _main_term(N, cfg, s_h, 1, 1.0 if spec is None else 1.0 + c0v)
    ratio = empirical / predicted if predicted != 0 else math.inf
    return MomentReport(N, cfg, variant, empirical, predicted, ratio, extra)


def moment_lemma1(N: int, cfg: WeightConfig, table: FactorTable | None = None) -> MomentReport:
    """Sum of squared weights over [N, 2N) vs its predicted main term; reads no table, so builds none."""
    return _moment(LEMMA1, N, cfg, table)


def moment_lemma2(N: int, cfg: WeightConfig, h: int, table: FactorTable | None = None) -> MomentReport:
    """Squared weights against the prime indicator at shift h, sieved per piece (table is only range-checked)."""
    return _moment(LEMMA2, N, cfg, table, h=h)


def moment_lemma3(
    N: int, cfg: WeightConfig, h: int, spec: balanced.StarSetSpec, table: FactorTable | None = None
) -> MomentReport:
    """Squared weights against the widened prime-or-star indicator; primes are read as in moment_lemma2."""
    return _moment(LEMMA3, N, cfg, table, h=h, spec=spec)


def s_statistic(
    N: int, cfg: WeightConfig, spec: balanced.StarSetSpec, table: FactorTable | None = None
) -> MomentReport:
    """Weighted count of hits minus one across the tuple shifts.

    empirical = sum over n in [N, 2N) of (sum_i chi(n + h_i) - 1) w(n)^2;
    a positive value certifies two hits among {n + h_i} for some n in the
    window.  Also reports the number of n with at least two hits.  The
    primes are read as in moment_lemma2.
    """
    return _moment(S_STATISTIC, N, cfg, table, spec=spec)
