"""Segmented prime and factor sieves over a window, plus factorization, mu and Li.

prime_window(lo, hi) is the one primality kernel: a bool mask of [lo, hi)
in which each prime <= sqrt(hi - 1) strikes its multiples from its square
on (Bays & Hudson, BIT 17 (1977)).  primes_up_to lists it one SEGMENT at a
time for the discrepancy sums and the balanced and star sets, and the
moment sums sieve each piece with it.  Tables and prime sieves too large
for physical memory are refused before allocating.

The FactorTable, which classify builds, holds for every integer in [lo, hi)
its least and greatest prime factors and Omega in one shared mapping, one
walk per segment (build_factor_table, _walk).  P^+ starts at 0 and P^- at
its dtype's maximum, and each prime raises one and lowers the other by an
in-place maximum and minimum, so the order of the primes does not matter.

Conventions fixed here for the whole package:
- all logarithms are natural logarithms;
- Li(x) is the offset logarithmic integral, the integral of 1/ln t from 2 to x;
- the window floor is 2 (n = 1 is rejected by factorize).
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

SEGMENT = 1 << 22  # integers per sieve segment
BLOCK = 1 << 17  # elements per cache-sized block: the weight fill, trial division and the block-wise scans
CHUNK = 1 << 20  # integers per chunk of the window scans; a longer build is split

_LI_OFFSET = 1.045163780117493  # li(2), subtracted so Li(2) = 0


def _in_two(job, items) -> list:
    """[job(x) for x in items] over a sequence, the first half in a forked child when two cores are free.

    The child pickles its results into a pipe and leaves by os._exit; the
    caller computes the second half, reads the pipe and reaps the child, so
    the results come back in item order.  An exception in either half is
    raised in the caller, and only after the child is reaped (killed first
    if the caller's half failed).  Fewer than two items, or fewer than two
    usable cores, run inline.  The child copies no thread of the caller,
    so a job must not need one: the jobs here run numpy's element-wise
    kernels, never a BLAS routine served by its worker threads.
    """
    if len(items) < 2 or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return [job(x) for x in items]
    half = len(items) // 2
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller's code
        code = 1
        try:
            os.close(r)
            try:
                out = True, [job(x) for x in items[:half]]
            except Exception as exc:
                out = False, exc
            with open(w, "wb") as f:
                pickle.dump(out, f)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        rest = [job(x) for x in items[half:]]
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        with open(r, "rb") as f:
            data = f.read()
        status = os.waitpid(pid, 0)[1]
    if status:
        raise ChildProcessError(f"the forked half of the job ended with wait status {status}")
    ok, first = pickle.loads(data)
    if not ok:
        raise first
    return first + rest


def check_fits(nbytes: int) -> None:
    """Refuse, before allocating, a run of nbytes that would not fit in physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > have:
        raise ValueError(f"this run needs about {nbytes / 2**30:.3g} GiB, more than the "
                         f"{have / 2**30:.3g} GiB of physical memory")


def primes_nbytes(n: int) -> int:
    """Bytes of primes_up_to(n): a SEGMENT's mask, the primes <= sqrt(n), its primes (twice past a SEGMENT)."""
    if n < 2:
        return 0
    primes = 8 * (int(1.25506 * n / math.log(n)) + 1)  # pi(n) < 1.25506 n / ln n
    return min(n + 1, SEGMENT) + primes * (1 if n < SEGMENT else 2) + primes_nbytes(math.isqrt(n))


def primes_up_to(n: int) -> np.ndarray:
    """Ascending int64 array of the primes <= n, one SEGMENT of prime_window at a time; refused if too large."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    check_fits(primes_nbytes(n))
    pieces = [np.flatnonzero(prime_window(lo, min(lo + SEGMENT, n + 1))) + lo for lo in range(0, n + 1, SEGMENT)]
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def prime_window(lo: int, hi: int) -> np.ndarray:
    """Bool mask of the primes in [lo, hi): each prime p <= sqrt(hi - 1) strikes its multiples from p^2 on."""
    if lo < 0 or hi <= lo:
        raise ValueError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    check_fits(hi - lo + primes_nbytes(math.isqrt(hi - 1)))
    primes = primes_up_to(math.isqrt(hi - 1))
    mask = np.ones(hi - lo, dtype=bool)
    mask[: max(2 - lo, 0)] = False  # 0 and 1
    for p in map(int, primes):
        mask[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return mask


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
        p_minus: least prime factor of lo + i, int32 for hi <= 2^31, else int64.
        p_plus: greatest prime factor of lo + i, same dtype as p_minus.
        omega: int8 array, Omega(lo + i) with multiplicity (at most 62 below 2^63).
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

    def span(self, lo: int, hi: int) -> slice:
        """The offsets of [lo, hi) in the table's arrays; raises unless the table covers it."""
        if lo < self.lo or hi > self.hi:
            raise ValueError(f"table [{self.lo}, {self.hi}) does not cover [{lo}, {hi})")
        return slice(lo - self.lo, hi - self.lo)


def _inverses(p: np.ndarray, dtype) -> np.ndarray:
    """Each odd p's inverse mod 2^32 or 2^64 (dtype's width), as dtype's signed value of it.

    Newton's step x -> x (2 - p x) doubles the correct low bits, and x = p
    starts right to 3 bits (p^2 = 1 mod 8), so five steps reach 96.
    """
    u = p.view(np.uint64)
    x, t = u.copy(), np.empty_like(u)
    for _ in range(5):
        np.multiply(u, x, out=t)
        np.subtract(2, t, out=t)
        x *= t
    width = np.dtype(dtype).itemsize
    return x.astype(f"u{width}").view(f"i{width}")


def _hits(lo: int, hi: int, primes: np.ndarray, dtype) -> list[tuple[np.ndarray, ...]]:
    """The powers q = p^e of the primes that hit [lo, hi), one level per e: (starts, q, p, p's inverse).

    The starts are (-lo) % q over the int64 primes, kept where they fall
    below hi - lo.  A power that misses [lo, hi) misses all the higher ones,
    so the next level q p is taken only from the hits, and only where
    q <= (hi - 1) // p, so nothing passes 2^63.  Only the primes that hit
    take an inverse (_inverses, in dtype).
    """
    size = hi - lo
    s = np.remainder(-lo, primes)
    hit = s < size
    s = s[hit]
    p = q = primes[hit]
    inv = _inverses(p, dtype)
    levels = []
    while p.size:
        levels.append((s, q, p, inv))
        more = q <= (hi - 1) // p
        p, inv = p[more], inv[more]
        q = q[more] * p
        s = np.remainder(-lo, q)
        hit = s < size
        p, q, s, inv = p[hit], q[hit], s[hit], inv[hit]
    return levels


def _walk(lo: int, hi: int, primes: np.ndarray, rem, pmin, pmax, omega) -> None:
    """Count, divide out and record the primes' powers on [lo, hi), a piece of the primes at a time.

    Each piece lists its hits with numpy (_hits), then each output array
    takes one strided pass over them (_passes).  A piece's hit list holds
    24 bytes per prime and 32 per higher power that hits, and at most 66
    more per power while it lists the next level: under 256 bytes per prime
    besides its array headers, unless most primes hit seven levels, as only
    a few of the smallest do, which the segment's first piece holds (all 54
    primes up to 256 once hi - lo or sqrt(hi) reaches 27,136).  So a piece of
    max(hi - lo, sqrt(hi)) / 512 primes holds under half the segment's bool
    mask (hi - lo bytes), or under half of what primes_nbytes(sqrt(hi))
    charges besides the primes the walk reads: sqrt(hi) bytes of mask below
    2^44, and past it a SEGMENT's mask and the concatenation copy's 8 B per
    prime, 0.70 sqrt(hi) at 2^50, which still covers the caller's piece.
    table_nbytes charges both; half, because a forked child may walk its
    own piece at the same time.
    """
    piece = max(hi - lo, math.isqrt(hi - 1)) // 512 + 1
    for i in range(0, len(primes), piece):
        _passes(_hits(lo, hi, primes[i : i + piece], rem.dtype), rem, pmin, pmax, omega)


def _passes(levels, rem, pmin, pmax, omega) -> None:
    """One strided pass per output array over the hits that _hits lists.

    A hit's four writes land on four arrays, so one array at a time keeps
    the passes from fighting over the cache: Omega, then the residual
    divisions, then the P^+ maxima, then the P^- minima (an in-place ufunc
    is cheaper than numpy's strided store of a scalar).  The entries at
    stride q are multiples of q, so each division by p is exact and the
    divisions commute: a shift for p = 2, else a multiply by p's inverse
    mod 2^32 or 2^64 (rem's width) that wraps to the quotient, several
    times cheaper than numpy's strided floor division.
    """
    for s, q, _, _ in levels:
        for a, b in zip(s, q):
            sub = omega[a::b]
            np.add(sub, 1, out=sub)
    for s, q, p, inv in levels:
        for a, b, c, by in zip(s, q, p, inv):
            sub = rem[a::b]
            if c == 2:
                np.right_shift(sub, 1, out=sub)
            else:
                np.multiply(sub, by, out=sub)
    if levels:  # p in the table's dtype: an int64 scalar would run the int32 ufuncs in int64
        s, p = levels[0][0], levels[0][2].astype(pmin.dtype)
        for a, c in zip(s, p):
            sub = pmax[a::c]
            np.maximum(sub, c, out=sub)
        for a, c in zip(s, p):
            sub = pmin[a::c]
            np.minimum(sub, c, out=sub)


def window_dtype(hi: int):
    """int32 if it holds every integer below hi, else int64: table P^-, P^+, residuals and indices."""
    return np.int32 if hi <= 2**31 else np.int64


def _sieve_segment(lo: int, hi: int, primes: np.ndarray, pmin, pmax, omega) -> None:
    """Fill factor stats for [lo, hi) in place: one _walk of all the primes over the segment.

    _walk lists its hits before it writes, so a prime that misses the
    segment costs one element of a numpy remainder.
    """
    rem = np.arange(lo, hi, dtype=pmin.dtype)
    unset = np.iinfo(pmin.dtype).max
    pmin.fill(unset)
    _walk(lo, hi, primes, rem, pmin, pmax, omega)
    # Residual cofactors: after removing all prime factors <= sqrt(hi),
    # what remains is either 1 or a single prime > sqrt(hi).  That prime
    # exceeds every recorded P^+, and P^+ >= 2 wherever rem is 1, so one
    # unmasked maximum sets P^+.  An unset pmin means no prime <= sqrt(hi)
    # divides n, so n = rem is itself prime; the copy also holds for the
    # prime n = 2^31 - 1, which equals the int32 fill.
    omega += rem > 1
    np.maximum(pmax, rem, out=pmax)
    np.copyto(pmin, rem, where=pmin == unset)


def _segments(size: int) -> int:
    """Segments of at most SEGMENT integers for a build of size: one up to CHUNK, else the fewest even number."""
    return 1 if size <= CHUNK else 2 * -(-size // (2 * SEGMENT))


def table_nbytes(lo: int, hi: int) -> int:
    """Bytes held by build_factor_table(lo, hi), with 64 KiB for its array headers and ufunc buffers."""
    width = np.dtype(window_dtype(hi)).itemsize
    outputs = (2 * width + 1) * (hi - lo)  # P^-, P^+ and int8 omega: 9 B below 2^31, 17 above
    n = _segments(hi - lo)
    # each process sieving segments holds one segment's residual cofactors and bool mask
    scratch = min(n, 2) * -(-(hi - lo) // n) * (width + 1)
    return outputs + scratch + primes_nbytes(math.isqrt(hi - 1)) + (1 << 16)


def build_factor_table(lo: int, hi: int) -> FactorTable:
    """Build the factor table for the window [lo, hi).

    Cost is O((hi - lo) log log hi + sqrt(hi)).  The outputs take 9 bytes
    per integer below 2^31 and 17 above (p_minus and p_plus in window_dtype,
    int8 omega), written in place one segment at a time into one anonymous
    shared mapping, whatever the window's length.  A window of at most
    CHUNK integers is one segment, sieved by the caller.  A longer one is
    cut into the fewest even number of equal segments of at most SEGMENT,
    and its two halves are sieved by two processes at once when two cores
    are free (_in_two); the child writes the caller's table through the
    mapping.
    Each process holds the scratch of one segment: the residual cofactors
    (window_dtype too) and one bool mask, at most 20 MiB below 2^31 and
    36 MiB above.  The build is refused before allocating when hi exceeds
    2^63 (past int64) or when its total, table_nbytes, exceeds physical
    memory.  Each segment is one _walk of all the primes <= sqrt(hi - 1);
    p_minus starts at its dtype's maximum and entries still there after the
    walk are primes.  Deterministic: rebuilding any sub-window, cut into any
    segments, yields identical values.
    """
    if lo < 2:
        raise ValueError(f"window floor is 2, got lo={lo}")
    if hi <= lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi})")
    check_fits(table_nbytes(lo, hi))
    if hi > 2**63:
        raise ValueError(f"window [{lo}, {hi}) exceeds int64: need hi <= 2^63")
    size = hi - lo
    primes = primes_up_to(math.isqrt(hi - 1))
    dtype = np.dtype(window_dtype(hi))
    n = _segments(size)
    # one zero-filled anonymous shared mapping, which a child forked by _in_two writes through
    mapping = mmap.mmap(-1, size * (2 * dtype.itemsize + 1))
    pmin, pmax = (np.frombuffer(mapping, dtype, size, i * size * dtype.itemsize) for i in (0, 1))
    omega = np.frombuffer(mapping, np.int8, size, 2 * size * dtype.itemsize)
    cuts = [size * i // n for i in range(n + 1)]

    def segment(i: int) -> None:
        a, b = cuts[i], cuts[i + 1]
        _sieve_segment(lo + a, lo + b, primes, pmin[a:b], pmax[a:b], omega[a:b])

    _in_two(segment, range(n))
    for arr in (pmin, pmax, omega, primes):
        arr.flags.writeable = False
    return FactorTable(lo=lo, hi=hi, p_minus=pmin, p_plus=pmax, omega=omega, primes=primes)


def _trial_spf(n: int, primes: np.ndarray) -> int:
    """Smallest prime factor of n (n if prime): one numpy remainder per BLOCK of the primes <= sqrt(n)."""
    primes = primes[: np.searchsorted(primes, math.isqrt(n), side="right")]
    for a in range(0, len(primes), BLOCK):
        hits = np.flatnonzero(n % primes[a : a + BLOCK] == 0)
        if hits.size:
            return int(primes[a + hits[0]])
    return n


def factorize(table: FactorTable, n: int) -> Factorization:
    """Complete factorization of n via the table's recorded smallest factors.

    Quotients that fall below the window are finished by trial division
    over the table's small-prime list, which always reaches sqrt of any
    quotient since quotients stay below hi.
    """
    idx = table.span(n, n + 1).start  # raises for out-of-window n, including n = 1
    factors: list[tuple[int, int]] = []
    cur = n
    while cur > 1:
        if table.lo <= cur < table.hi:
            p = int(table.p_minus[cur - table.lo])
        else:
            p = _trial_spf(cur, table.primes)
        if p < 2 or cur % p:
            raise ArithmeticError(f"table gives P^-({cur}) = {p}, which does not divide it")
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


def mobius_up_to(n: int) -> np.ndarray:
    """mu(m) for m = 1 .. n as float64 (index m - 1), by a sieve over primes_up_to(n).

    The primes come first and stay while mu is sieved, so besides its
    output it holds at most primes_nbytes(n) + n + 1 (mu's int8 array).
    """
    primes = primes_up_to(n)
    mu = np.ones(n + 1, dtype=np.int8)
    for p in map(int, primes):
        mu[::p] *= -1
        mu[:: p * p] = 0
    return mu[1:].astype(np.float64)


def log_integral(x: float | np.ndarray) -> float | np.ndarray:
    """Offset logarithmic integral Li(x), the integral of dt/ln t from 2 to x.

    Takes a float or an array and returns the same; raises ValueError unless
    every x is finite and >= 2, and Li(2) is exactly 0.  Evaluated by
    Ramanujan's series (Berndt, Ramanujan's Notebooks IV, p. 130)

        li(x) = gamma + ln ln x
                + sqrt(x) sum_{n>=1} (-1)^(n-1) (ln x)^n / (n! 2^(n-1)) sum_{k<=(n-1)/2} 1/(2k+1),

    minus li(2) ~ 1.0451638.  The terms grow up to n ~ ln(x)/2 and shrink
    after it, so the sum stops at the first term that leaves every element
    unchanged: each element then holds its own final value, whatever array
    it came in.  Within 6e-15 relative of mpmath at 400 log-spaced points
    in [2, 1e18].
    """
    a = np.asarray(x, dtype=np.float64)
    ok = (a >= 2) & (a < np.inf)
    if not ok.all():
        raise ValueError(f"Li is defined here for finite x >= 2, got {a[~ok].flat[0]}")
    u = np.log(a)
    half = u / 2.0
    term = np.full(a.shape, -2.0)  # (-1)^(n-1) (ln x)^n / (n! 2^(n-1)) at n = 0
    total = np.zeros(a.shape)
    inner = 0.0
    n = 0
    while True:
        n += 1
        term *= half / -n
        if n % 2:
            inner += 1.0 / n
        nxt = total + term * inner
        if (nxt == total).all():
            break
        total = nxt
    li = np.where(a == 2, 0.0, np.euler_gamma + np.log(u) + np.sqrt(a) * total - _LI_OFFSET)
    return float(li) if li.ndim == 0 else li
