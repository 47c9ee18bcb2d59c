"""Segmented prime and factor sieves over a window, plus factorization, mu and Li.

Every sieve strikes a window with the primes up to its square root from
one list of where each prime power's multiples start (_hits; Bays &
Hudson, BIT 17 (1977)).  prime_window, the one primality kernel, strikes
the first level: primes_up_to lists it one SEGMENT at a time into one
array, and the moment sums sieve each piece with it.  mobius_up_to
strikes the first two, one CHUNK at a time, and the FactorTable (P^-, P^+
and Omega of every integer in [lo, hi), built only by the benchmark and
the tests) walks every level, its window cut as the moment sums cut
theirs (_cuts).  Sieves too large for physical memory are refused before
allocating.  Factorization has one route, trial division (_trial), which
factorize checks against a table's row.

Conventions fixed here for the whole package:
- all logarithms are natural logarithms;
- Li(x) is the offset logarithmic integral, the integral of 1/ln t from 2 to x;
- the window floor is 2 (n = 1 is rejected by factorize and trial_factorize).
"""

from __future__ import annotations

import itertools
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


def pi_bound(n: int) -> int:
    """A bound on the number of primes <= n >= 2: pi(n) < 1.25506 n / ln n (Rosser & Schoenfeld, 1962)."""
    return int(1.25506 * n / math.log(n)) + 1


def primes_nbytes(n: int) -> int:
    """Bytes of primes_up_to(n): its array, a SEGMENT's mask, two segments' primes and the primes <= sqrt(n)."""
    if n < 2:
        return 0
    return min(n + 1, SEGMENT) + 8 * (pi_bound(n) + 2 * pi_bound(min(n, SEGMENT))) + primes_nbytes(math.isqrt(n))


def _prime_segments(lo: int, hi: int):
    """The primes of [lo, hi) as ascending int64 arrays, one SEGMENT of prime_window at a time."""
    for a in range(lo, hi, SEGMENT):
        ps = np.flatnonzero(prime_window(a, min(a + SEGMENT, hi)))
        ps += a
        yield ps


def primes_up_to(n: int) -> np.ndarray:
    """Ascending int64 primes <= n, the filled prefix of one pi_bound(n) array; refused if too large."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    check_fits(primes_nbytes(n))
    out = np.empty(pi_bound(n), dtype=np.int64)
    k = 0
    for ps in _prime_segments(0, n + 1):
        out[k : k + ps.size] = ps
        k += ps.size
    return out[:k]


def prime_window(lo: int, hi: int) -> np.ndarray:
    """Bool mask of the primes in [lo, hi): each prime p <= sqrt(hi - 1) strikes its multiples, then is set back."""
    if not 0 <= lo < hi <= 2**63:
        raise ValueError(f"need 0 <= lo < hi <= 2^63, got [{lo}, {hi})")
    check_fits(hi - lo + primes_nbytes(math.isqrt(hi - 1)))
    primes = primes_up_to(math.isqrt(hi - 1))
    s, p, _ = next(_hits(lo, hi, primes))  # before the mask, so the listing's peak and the mask do not add
    mask = np.ones(hi - lo, dtype=bool)
    mask[: max(2 - lo, 0)] = False  # 0 and 1
    for a, b in zip(s, p):
        mask[a::b] = False
    mask[primes[np.searchsorted(primes, lo) :] - lo] = True
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
        primes: primes <= sqrt(hi - 1), which factorize trial-divides by.

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


def _hits(lo: int, hi: int, primes: np.ndarray):
    """The powers q = p^e of the primes that hit [lo, hi), one level per e: (starts (-lo) % q, q, p), int64.

    The levels are made as they are read, the first always.  A power that
    misses [lo, hi) misses all the higher ones, so the next level q p is
    taken only from the hits, and only where q <= (hi - 1) // p.
    """
    p = q = primes
    while q is primes or q.size:
        s = np.remainder(-lo, q)
        hit = s < hi - lo
        p, s = p[hit], s[hit]
        q = p if q is primes else q[hit]  # p^1 is p: the first level holds one array of both
        yield s, q, p
        more = q <= (hi - 1) // p
        p, q = p[more], q[more] * p[more]


def _walk(lo: int, hi: int, primes: np.ndarray, rem, pmin, pmax, omega) -> None:
    """Count, divide out and record the primes' powers on [lo, hi), a piece of the primes at a time.

    Each piece lists its hits with numpy (_hits), then each output array
    takes one strided pass over them (_passes).  A piece's hit list holds
    16 bytes per prime and 24 per higher power, and at most 66 more per
    power while it lists the next level or takes its inverses: under 256
    bytes per prime, unless most primes hit seven levels, as only the first
    piece's smallest do.  So a piece of max(hi - lo, min(sqrt(hi), SEGMENT))
    / 512 primes holds under half the window's bool mask or of the prime
    sieve's segment mask, both of which table_nbytes charges; half, because
    a forked child may walk its own piece at the same time.
    """
    piece = max(hi - lo, min(math.isqrt(hi - 1), SEGMENT)) // 512 + 1
    for i in range(0, len(primes), piece):
        _passes(list(_hits(lo, hi, primes[i : i + piece])), rem, pmin, pmax, omega)


def _passes(levels, rem, pmin, pmax, omega) -> None:
    """One strided pass per output array over the hits that _hits lists.

    A hit's four writes land on four arrays, so one array at a time keeps
    the passes from fighting over the cache: Omega, then the residual
    divisions, then the P^+ maxima, then the P^- minima (an in-place ufunc
    is cheaper than numpy's strided store of a scalar).  The entries at
    stride q are multiples of q, so each division by p is exact and the
    divisions commute: a shift for p = 2, else a multiply by p's inverse
    mod 2^32 or 2^64 (rem's width, _inverses of each level) that wraps to
    the quotient, several times cheaper than numpy's strided floor division.
    """
    for s, q, _ in levels:
        for a, b in zip(s, q):
            sub = omega[a::b]
            np.add(sub, 1, out=sub)
    for s, q, p in levels:
        for a, b, c, by in zip(s, q, p, _inverses(p, rem.dtype)):
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
    """Fill factor stats for [lo, hi) in place: one _walk of all the primes over the window.

    _walk lists its hits before it writes, so a prime that misses the
    window costs one element of a numpy remainder.
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


def _cuts(size: int) -> list[tuple[int, int]]:
    """The pieces (a, b) that [0, size) is cut into for _in_two: one CHUNK each, or two halves of one chunk.

    A one-chunk window longer than CHUNK // 2 is cut where numpy's pairwise
    sum splits a contiguous float64 array, so the halves' sums add to the
    whole window's bit for bit.
    """
    cuts = [0, size // 2 - size // 2 % 8, size] if CHUNK // 2 < size <= CHUNK else [*range(0, size, CHUNK), size]
    return list(zip(cuts, cuts[1:]))


def table_nbytes(lo: int, hi: int) -> int:
    """Bytes held by build_factor_table(lo, hi), with 64 KiB for its array headers and ufunc buffers."""
    width = np.dtype(window_dtype(hi)).itemsize
    # P^-, P^+ and int8 omega (9 B per integer below 2^31, 17 above), and in each of two processes
    # one piece's residual cofactors and bool mask (_cuts: two pieces hold at most the window)
    scratch = min(hi - lo, 2 * CHUNK) * (width + 1)
    return (2 * width + 1) * (hi - lo) + scratch + primes_nbytes(math.isqrt(hi - 1)) + (1 << 16)


def build_factor_table(lo: int, hi: int) -> FactorTable:
    """Build the factor table for the window [lo, hi).

    Cost is O((hi - lo) log log hi + sqrt(hi)).  The outputs take 9 bytes
    per integer below 2^31 and 17 above (p_minus and p_plus in window_dtype,
    int8 omega), written in place into one anonymous shared mapping, one
    _cuts piece at a time, the first half of the pieces in a forked child
    when two cores are free (_in_two).  Each process holds one piece's
    scratch: the residual cofactors (window_dtype too) and one bool mask,
    at most 5 MiB below 2^31 and 9 MiB above.  The build is refused before
    allocating when hi exceeds 2^63 or table_nbytes exceeds physical
    memory.  Each piece is one _walk of all the primes <= sqrt(hi - 1).
    Rebuilding any sub-window, cut into any pieces, yields identical values.
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
    # one zero-filled anonymous shared mapping, which a child forked by _in_two writes through
    mapping = mmap.mmap(-1, size * (2 * dtype.itemsize + 1))
    pmin, pmax = (np.frombuffer(mapping, dtype, size, i * size * dtype.itemsize) for i in (0, 1))
    omega = np.frombuffer(mapping, np.int8, size, 2 * size * dtype.itemsize)

    def piece(cut: tuple[int, int]) -> None:
        _sieve_segment(lo + cut[0], lo + cut[1], primes, *(arr[slice(*cut)] for arr in (pmin, pmax, omega)))

    _in_two(piece, _cuts(size))
    for arr in (pmin, pmax, omega, primes):
        arr.flags.writeable = False
    return FactorTable(lo=lo, hi=hi, p_minus=pmin, p_plus=pmax, omega=omega, primes=primes)


def _trial(n: int, pieces) -> Factorization:
    """Factorization of n by trial division over pieces, consecutive int64 runs of the primes up to sqrt(n).

    The first piece starts at 2.  One cur % primes == 0 numpy remainder per
    piece finds the primes that divide what is left of n, and their powers
    are divided out in Python ints.  The walk stops after the first piece whose last prime p has
    (p + 1)^2 > what is left, so the next piece is never made; what is left
    is then 1 or a prime.
    """
    factors = []
    cur = n
    for primes in pieces:
        for p in primes[cur % primes == 0].tolist():
            e = 0
            while cur % p == 0:
                cur //= p
                e += 1
            factors.append((p, e))
        if primes.size and (int(primes[-1]) + 1) ** 2 > cur:
            break
    if cur > 1:
        factors.append((cur, 1))
    return Factorization(n=n, factors=tuple(factors))


def trial_factorize(n: int) -> Factorization:
    """Factorization of one n in [2, 2^63), refused before any sieve outside it.

    The primes <= sqrt(n) come one segment at a time, as primes_up_to lists
    them, and a smooth n stops after its first segment.
    """
    if not 2 <= n < 2**63:
        raise ValueError(f"need 2 <= n < 2^63, got {n}")
    return _trial(n, _prime_segments(2, math.isqrt(n) + 1))


def factorize(table: FactorTable, n: int) -> Factorization:
    """Factorization of n in the table's window by trial division, checked against the table's row.

    _trial runs over BLOCK slices of table.primes, which reach sqrt(hi - 1);
    an (Omega, P^-, P^+) that differs from the table's raises ArithmeticError.
    """
    idx = table.span(n, n + 1).start  # raises for out-of-window n, including n = 1
    f = _trial(n, (table.primes[a : a + BLOCK] for a in range(0, len(table.primes), BLOCK)))
    got = (f.omega_big, f.p_minus, f.p_plus)
    row = (int(table.omega[idx]), int(table.p_minus[idx]), int(table.p_plus[idx]))
    if got != row:
        raise ArithmeticError(f"{n} has (Omega, P^-, P^+) = {got}, the table says {row}")
    return f


def mobius(f: Factorization) -> int:
    """Mobius mu: 0 on non-squarefree n, else (-1)^(number of primes)."""
    for _, e in f.factors:
        if e >= 2:
            return 0
    return -1 if len(f.factors) % 2 else 1


def mobius_up_to(n: int) -> np.ndarray:
    """mu(m) for m = 1 .. n as float64 (index m - 1), struck one CHUNK at a time by the primes <= sqrt(n).

    Each chunk starts from m itself: each p divides its multiples by -p
    and each p^2 zeroes its multiples (the first two levels of _hits).  A
    squarefree m is left with +-1, or with +-P for the one prime P > sqrt(n)
    that divides it, which flips its sign.  Charged its output, the primes
    and one chunk's scratch (m in window_dtype and a bool mask) up front.
    """
    check_fits(8 * n + 9 * min(n, CHUNK) + primes_nbytes(math.isqrt(n)))
    primes = primes_up_to(math.isqrt(n))
    mu = np.empty(n, dtype=np.float64)
    for lo in range(1, n + 1, CHUNK):
        x = np.arange(lo, min(lo + CHUNK, n + 1), dtype=window_dtype(n + 1))
        levels = _hits(lo, lo + x.size, primes)
        s, p, _ = next(levels)
        for a, b in zip(s, p):
            sub = x[a::b]
            np.floor_divide(sub, -b, out=sub)
        for s, q, _ in itertools.islice(levels, 1):
            for a, b in zip(s, q):
                x[a::b] = 0
        out = mu[lo - 1 : lo - 1 + x.size]
        np.sign(x, out=out)
        np.abs(x, out=x)
        np.negative(out, out=out, where=x > 1)
    return mu


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
