import dataclasses
import math
import os
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import sieve
from primegaps.sieve import (
    SEGMENT,
    Factorization,
    build_factor_table,
    factorize,
    log_integral,
    mobius,
    primes_up_to,
)

# frozen from mpmath.li(x, offset=True)
LI_1E4 = 1245.0920521192718
LI_1E6 = 78626.50399568204


def trial_division(n):
    """Independent factorization oracle, no sieve involved."""
    factors = []
    for p in [2, 3]:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                factors.append((p, e))
        d += 6
    if n > 1:
        factors.append((n, 1))
    return sorted(factors)


def test_build_rejects_bad_windows():
    with pytest.raises(ValueError):
        build_factor_table(1, 100)
    with pytest.raises(ValueError):
        build_factor_table(100, 100)


def test_factorize_examples(table_full_1e6):
    t = table_full_1e6
    f = factorize(t, 12)
    assert f.factors == ((2, 2), (3, 1))
    assert (f.omega_big, f.p_minus, f.p_plus) == (3, 2, 3)
    assert factorize(t, 97).factors == ((97, 1),)
    assert factorize(t, 360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(t, 360).omega_big == 6


def test_factorize_against_trial_division_oracle():
    t = build_factor_table(999_900, 1_000_100)
    assert factorize(t, 1_000_003).factors == ((1_000_003, 1),)
    assert factorize(t, 999_983).factors == ((999_983, 1),)
    for n in range(999_900, 1_000_100):
        assert list(factorize(t, n).factors) == trial_division(n)


def _prime_loop_spf(n, primes):
    """Reference: the smallest prime factor of n by a Python loop over the primes, n if none <= sqrt(n) divides it."""
    for p in (int(p) for p in primes):
        if p * p > n:
            break
        if n % p == 0:
            return p
    return n


def test_trial_spf_equals_the_prime_loop():
    # the three n are 2 and 3 times the primes below 2^49, 2^53 and 2^55, which
    # classify finishes below its one-integer window; the primes list reaches
    # past sqrt of the first prime, so its whole loop runs over 12 BLOCKs
    primes = primes_up_to(2**25)
    B = sieve.BLOCK
    cases = [
        *range(2, 1000), 2**31 - 1,
        1_000_003**2,  # a prime square
        int(primes[B - 1]) * int(primes[B]),  # the last prime of the first BLOCK
        int(primes[B]) * int(primes[B + 1]),  # the first prime of the second BLOCK
        1125899906842462, 562949953421231,
        27021597764222643, 9007199254740881,
        72057594037927826, 36028797018963913,
    ]
    for n in cases:
        assert sieve._trial_spf(n, primes) == _prime_loop_spf(n, primes), n


def test_factorize_rejects_out_of_window(table_full_1e6):
    t = table_full_1e6
    for n in (1, t.hi, 10**7):
        with pytest.raises(ValueError, match="does not cover"):
            factorize(t, n)


def test_window_stats_consistent_exhaustive(table_full_1e6):
    # Inductive check of the full window: the smallest recorded factor
    # divides n, and removing it decrements omega and preserves the top
    # factor, which pins every entry down to the base case omega == 1.
    t = table_full_1e6
    n = np.arange(t.lo, t.hi, dtype=np.int64)
    assert (n % t.p_minus == 0).all()
    assert (n % t.p_plus == 0).all()
    comp = t.omega > 1
    q = n[comp] // t.p_minus[comp]
    qi = q - t.lo
    assert (t.omega[comp] == t.omega[qi] + 1).all()
    assert (t.p_plus[comp] == np.maximum(t.p_plus[qi], t.p_minus[comp])).all()
    assert (t.p_minus[comp] <= t.p_minus[qi]).all()
    prime = t.omega == 1
    assert (t.p_minus[prime] == n[prime]).all()
    assert (t.p_plus[prime] == n[prime]).all()


def test_high_window_random_sample_vs_trial_division():
    lo, hi = 10**9, 10**9 + 10**6
    t = build_factor_table(lo, hi)
    rng = random.Random(20240817)
    for _ in range(10_000):
        n = rng.randrange(lo, hi)
        assert list(factorize(t, n).factors) == trial_division(n)


def test_subwindow_rebuild_is_identical(table_full_1e6):
    t = table_full_1e6
    sub = build_factor_table(5000, 6000)
    a, b = 5000 - t.lo, 6000 - t.lo
    assert np.array_equal(sub.p_minus, t.p_minus[a:b])
    assert np.array_equal(sub.p_plus, t.p_plus[a:b])
    assert np.array_equal(sub.omega, t.omega[a:b])


def test_segment_boundary_rebuild_is_identical(table_win_1e7):
    # the 1e7 window is cut into four segments, two per process; a
    # misaligned per-segment residual fix-up would show up next to a cut
    t = table_win_1e7
    size = t.hi - t.lo
    for cut in (size // 4, size // 2, 3 * size // 4):
        lo = t.lo + cut - 500
        sub = build_factor_table(lo, lo + 1000)
        a, b = lo - t.lo, lo - t.lo + 1000
        assert np.array_equal(sub.p_minus, t.p_minus[a:b])
        assert np.array_equal(sub.p_plus, t.p_plus[a:b])
        assert np.array_equal(sub.omega, t.omega[a:b])


def _table_bytes(t):
    return [(a.dtype, a.tobytes()) for a in (t.p_minus, t.p_plus, t.omega)]


def _assert_matches_sympy(t):
    import sympy

    for n in range(t.lo, t.hi):
        f = sympy.factorint(n)
        i = n - t.lo
        assert (t.omega[i], t.p_minus[i], t.p_plus[i]) == (sum(f.values()), min(f), max(f)), n


def test_int32_residual_switch_against_sympy():
    # P+- and the residual cofactor are int32 up to hi = 2^31 and int64
    # above, so a window across 2^31 must agree with an oracle and, value
    # for value, with its two halves
    lo, mid, hi = 2**31 - 2**12, 2**31, 2**31 + 2**12
    t = build_factor_table(lo, hi)
    below, above = build_factor_table(lo, mid), build_factor_table(mid, hi)
    assert (t.p_minus.dtype, t.p_plus.dtype, t.omega.dtype) == (np.int64, np.int64, np.int8)
    assert (below.p_minus.dtype, below.p_plus.dtype, below.omega.dtype) == (np.int32, np.int32, np.int8)
    assert (above.p_minus.dtype, above.p_plus.dtype, above.omega.dtype) == (np.int64, np.int64, np.int8)
    _assert_matches_sympy(t)
    assert t.omega[mid - 1 - lo] == 1 and t.p_minus[mid - 1 - lo] == 2**31 - 1
    for name in ("p_minus", "p_plus", "omega"):
        whole, a, b = (getattr(x, name) for x in (t, below, above))
        assert np.array_equal(whole, np.concatenate([a, b])), name


def test_int32_window_ending_at_the_fill_value_against_sympy():
    # the last entry, the prime 2^31 - 1, equals the int32 fill of p_minus;
    # the window's other primes show a fix-up that misses that fill
    t = build_factor_table(2**31 - 2**12, 2**31)
    assert (t.p_minus.dtype, t.p_plus.dtype, t.omega.dtype) == (np.int32, np.int32, np.int8)
    _assert_matches_sympy(t)
    assert (t.omega[-1], t.p_minus[-1], t.p_plus[-1]) == (1, 2**31 - 1, 2**31 - 1)


@pytest.mark.parametrize("lo, hi", [(2, 2**16), (2, 10**5), (10**6, 2 * 10**6 + 9)])
def test_block_and_segment_sizes_do_not_change_the_table(monkeypatch, lo, hi):
    want = _table_bytes(build_factor_table(lo, hi))
    monkeypatch.setattr(sieve, "SEGMENT", 5000)
    monkeypatch.setattr(sieve, "CHUNK", 5000)  # builds over one CHUNK are cut
    assert _table_bytes(build_factor_table(lo, hi)) == want


def test_build_scratch_is_bounded_by_the_segment(monkeypatch, tmp_path):
    # each process's scratch is its tracemalloc peak through its last
    # segment less what it held at its first: at most one segment's, and
    # the same at N = 2^23 (two segments, one per process when two cores
    # are free) and 2^24 (four segments, two per process).  A build just
    # over CHUNK is cut into two half-size segments, one per process.  A
    # forked child inherits the tracing and logs through a file.
    log = tmp_path / "peaks"
    sieve_segment = sieve._sieve_segment

    def logged(*args):
        held = tracemalloc.get_traced_memory()[0]
        sieve_segment(*args)
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {held} {tracemalloc.get_traced_memory()[1]}\n")

    monkeypatch.setattr(sieve, "_sieve_segment", logged)
    scratch = {}
    for lo, hi in ((2**23, 2**24), (2**24, 2**25), (2**20, 2**20 + sieve.CHUNK + 1)):
        log.write_text("")
        tracemalloc.start()
        try:
            build_factor_table(lo, hi)
        finally:
            tracemalloc.stop()
        held, peak = {}, {}
        for line in log.read_text().splitlines():
            pid, h, p = map(int, line.split())
            held[pid], peak[pid] = min(held.get(pid, h), h), max(peak.get(pid, p), p)
        scratch[hi - lo] = {pid: peak[pid] - held[pid] for pid in peak}
    one_segment = SEGMENT * (4 + 1)  # int32 residuals and one bool mask
    assert all(s <= one_segment + (1 << 20) for by_pid in scratch.values() for s in by_pid.values()), scratch
    assert abs(max(scratch[2**24].values()) - max(scratch[2**23].values())) < 1 << 20, scratch
    assert all(len(by_pid) == min(2, len(os.sched_getaffinity(0))) for by_pid in scratch.values()), scratch


def _one_process_table(lo, hi):
    """The table of [lo, hi) from _sieve_segment over consecutive SEGMENTs, in the caller alone."""
    primes = primes_up_to(math.isqrt(hi - 1))
    dtype = sieve.window_dtype(hi)
    pmin, pmax, omega = np.empty(hi - lo, dtype), np.zeros(hi - lo, dtype), np.zeros(hi - lo, np.int8)
    for a in range(0, hi - lo, sieve.SEGMENT):
        b = min(a + sieve.SEGMENT, hi - lo)
        sieve._sieve_segment(lo + a, lo + b, primes, pmin[a:b], pmax[a:b], omega[a:b])
    return pmin, pmax, omega


@pytest.mark.parametrize("segment, lo, length", [
    (1 << 16, 10**6, 2 << 16),  # 2 segments, one per process
    (1 << 16, 10**6 + 7, (3 << 16) - 3),  # 3 segments' length, cut into 4
    (1 << 16, 3 * 10**6 + 1, (5 << 16) - 1),  # 5 segments' length, cut into 6
    (1 << 16, 2**31 - (1 << 16), (3 << 16) - 5),  # across 2^31: int64 outputs
    (SEGMENT, 10**7, 2 * SEGMENT + 9),  # the real segment: cut into 4
    (SEGMENT, 2, 2 * 10**6 + 15),  # [2, 2e6 + 17), over one CHUNK: cut into 2
    (SEGMENT, 10**6 + 3, sieve.CHUNK),  # one CHUNK: one segment in the mapping, against heap arrays
])
def test_split_build_equals_one_process_reference(monkeypatch, segment, lo, length):
    # builds over one CHUNK are cut, and CHUNK <= SEGMENT as in the module
    monkeypatch.setattr(sieve, "CHUNK", min(segment, sieve.CHUNK))
    monkeypatch.setattr(sieve, "SEGMENT", segment)
    t = build_factor_table(lo, lo + length)
    for got, want in zip((t.p_minus, t.p_plus, t.omega), _one_process_table(lo, lo + length)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _floor_division_walk(lo, hi, primes, rem, pmin, pmax, omega):
    """Reference walk: the same passes, dividing out each prime power by numpy's //."""
    for p in map(int, primes):
        q = p
        while (start := -(-lo // q) * q) < hi:
            s = start - lo
            omega[s::q] += 1
            rem[s::q] //= p
            if q == p:
                pmax[s::q] = p
                sub = pmin[s::q]
                np.minimum(sub, p, out=sub)
            q *= p


@pytest.mark.parametrize("lo, hi", [
    (2, 10**5),  # int32, every small prime and its powers
    (10**7, 10**7 + 300_009),  # int32
    (2**31 - 200_000, 2**31 + 100_000),  # straddles 2^31: int64 residues
    (10**12, 10**12 + 100_000),  # int64
])
def test_exact_division_walk_equals_floor_division(monkeypatch, lo, hi):
    # the walk divides by p through p's inverse mod 2^32 or 2^64, or a shift for p = 2
    t = build_factor_table(lo, hi)
    monkeypatch.setattr(sieve, "_walk", _floor_division_walk)
    ref = build_factor_table(lo, hi)
    for got, want in ((t.p_minus, ref.p_minus), (t.p_plus, ref.p_plus), (t.omega, ref.omega)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _interleaved_walk(lo, hi, primes, rem, pmin, pmax, omega):
    """Reference walk: each prime in turn, each of its powers writing all four arrays."""
    bits = 8 * rem.itemsize
    for p in map(int, primes):
        inv = pow(p, -1, 1 << bits) if p > 2 else 0
        div, by = (np.right_shift, 1) if p == 2 else (np.multiply, inv - (inv >> (bits - 1) << bits))
        q = p
        while (start := -(-lo // q) * q) < hi:
            s = start - lo
            omega[s::q] += 1
            sub = rem[s::q]
            div(sub, by, out=sub)
            if q == p:
                pmax[s::q] = p
                sub = pmin[s::q]
                np.minimum(sub, p, out=sub)
            q *= p


@pytest.mark.parametrize("lo, hi", [
    (2, 2**16),  # sqrt(hi) < 256: all 54 sieving primes in one piece, 2 hitting 15 levels
    (2, 10**5),
    (10**7, 10**7 + 300_009),
    (10**6, 10**6 + SEGMENT + 100_000),  # cut into two segments
    (2**31 - 200_000, 2**31 + 100_000),  # int64 residues
    (10**12, 10**12 + 100_000),
    (2**50 - 3, 2**50 - 2),  # 59 * 176329 * 108224111: 2,063,689 sieving primes, two hit
    (1_000_003**2, 1_000_003**2 + 1),  # a prime's square
    (2_097_169**2, 2_097_169**2 + 1),  # the least prime above 2^21 squared: its cube passes 2^63
    (999_999_999_989, 999_999_999_990),  # a prime
])
def test_listed_walk_equals_interleaved_walk(monkeypatch, lo, hi):
    # the walk lists its hits with numpy and makes one pass per array; the
    # reference takes each prime's powers one at a time across all four
    t = build_factor_table(lo, hi)
    monkeypatch.setattr(sieve, "_walk", _interleaved_walk)
    ref = build_factor_table(lo, hi)
    assert _table_bytes(t) == _table_bytes(ref)


@pytest.mark.parametrize("lo, hi", [
    (10**7, 10**7 + 2**17),
    (2_097_169**2, 2_097_169**2 + 1),  # p^3 passes 2^63: the levels stop at p^2
    (2**50 - 3, 2**50 + 1000),
])
def test_hits_list_exactly_the_powers_that_hit(lo, hi):
    primes = primes_up_to(math.isqrt(hi - 1))
    want = []
    for p in map(int, primes):
        q = p
        while q < hi and (-lo) % q < hi - lo:
            want.append(((-lo) % q, q, p))
            q *= p
    levels = sieve._hits(lo, hi, primes, sieve.window_dtype(hi))
    got = [(s, q, p) for level in levels for s, q, p in zip(*(a.tolist() for a in level[:3]))]
    assert sorted(got) == sorted(want)


def test_inverses_undo_multiplication():
    p = primes_up_to(10**5)[1:]
    for dtype in (np.int32, np.int64):
        inv = sieve._inverses(p, dtype)
        assert inv.dtype == dtype
        assert (p.astype(dtype) * inv == 1).all()


def _square_or_raise_at(bad):
    def job(x):
        if x == bad:
            raise ValueError(f"bad item {x}")
        return x * x

    return job


def test_in_two_returns_results_in_item_order():
    assert sieve._in_two(_square_or_raise_at(None), range(7)) == [x * x for x in range(7)]
    assert sieve._in_two(_square_or_raise_at(None), []) == []
    pids = sieve._in_two(lambda x: os.getpid(), range(4))
    assert pids[2:] == [os.getpid()] * 2
    assert pids[0] == pids[1] and (pids[0] != os.getpid()) == (len(os.sched_getaffinity(0)) >= 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("bad", [0, 6])  # items 0..2 are the child's half, 3..6 the caller's
def test_in_two_raises_in_the_caller_and_leaves_no_child(bad):
    with pytest.raises(ValueError, match=f"bad item {bad}"):
        sieve._in_two(_square_or_raise_at(bad), range(7))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the job would end the caller itself")
def test_in_two_raises_when_the_child_dies():
    with pytest.raises(ChildProcessError, match="wait status"):
        sieve._in_two(lambda x: os._exit(3) if x == 0 else x, range(2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("lo, hi", [
    (49, 50),  # one integer, as classify builds
    (2, 10**5),
    (10**7, 2 * 10**7 + 9),  # several segments
    (2**31 - 2**12, 2**31 + 2**12),  # int64 residual
    (10**9, 10**9 + 2**23),
    (2**50 - 3, 2**50 - 2),  # the primes to 2^25 span eight segments
])
def test_table_nbytes_bounds_the_build(lo, hi):
    # the memory refusal charges table_nbytes, so the build must hold no more:
    # the outputs, the segment scratch and the prime sieve.  tracemalloc does
    # not see the outputs' shared mapping, so its bytes are added to the peak
    tracemalloc.start()
    try:
        build_factor_table(lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak += (hi - lo) * (2 * np.dtype(sieve.window_dtype(hi)).itemsize + 1)
    assert peak <= sieve.table_nbytes(lo, hi), (peak, sieve.table_nbytes(lo, hi))


@pytest.mark.parametrize("n", [10**5, 10**6, 10**7, 3 * SEGMENT + 7])
def test_primes_nbytes_bounds_the_sieve(n):
    tracemalloc.start()
    try:
        ps = primes_up_to(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ps.dtype == np.int64
    assert peak <= sieve.primes_nbytes(n), (peak, sieve.primes_nbytes(n))


def plain_sieve(n):
    """The primes <= n from one unsegmented (n + 1)-byte mask: the reference for primes_up_to."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 24, 25, 26, 48, 49, 50,
                               SEGMENT - 1, SEGMENT, SEGMENT + 1, 3 * SEGMENT + 7])
def test_segmented_primes_equal_the_plain_sieve(n):
    # prime squares 25 and 49 at the end, and both sides of each segment edge
    got, want = primes_up_to(n), plain_sieve(n)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("lo, hi", [
    (2, 3),  # lo = 2, hi = lo + 1
    (2, 100),
    (49, 122),  # 7^2 at the first integer, 11^2 at the last
    (997**2, 1009**2 + 1),  # 1009 = isqrt(hi - 1) strikes only its square, the last integer
    (10**7, 10**7 + 2**20 + 9),
    (2**31 - 2**12, 2**31 + 2**12),  # past the table's int32 switch
    (10**12, 10**12 + 10**5),
])
def test_prime_window_equals_the_tables_primes(lo, hi):
    got = sieve.prime_window(lo, hi)
    assert got.dtype == bool and got.shape == (hi - lo,)
    assert np.array_equal(got, build_factor_table(lo, hi).omega == 1)


def test_prime_window_from_zero_and_one():
    # the table's floor is 2; below it 0 and 1 are not prime
    for lo, hi in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 50), (0, 10**4)):
        want = np.zeros(hi - lo, dtype=bool)
        ps = plain_sieve(hi - 1)
        want[ps[ps >= lo] - lo] = True
        assert np.array_equal(sieve.prime_window(lo, hi), want), (lo, hi)


@pytest.mark.parametrize("lo, hi", [(5, 5), (5, 4), (-1, 10), (-10, -5)])
def test_prime_window_rejects_bad_windows(lo, hi):
    with pytest.raises(ValueError, match="need 0 <= lo < hi"):
        sieve.prime_window(lo, hi)


def test_prime_window_past_memory_is_refused_before_sieving(monkeypatch):
    def no_sieve(n):
        raise AssertionError(f"sieved the primes up to {n}")

    monkeypatch.setattr(sieve, "primes_up_to", no_sieve)
    with pytest.raises(ValueError, match="physical memory"):
        sieve.prime_window(10**15, 2 * 10**15)


def test_span_is_the_coverage_check(table_full_1e4):
    t = table_full_1e4
    assert t.span(2, 12) == slice(0, 10)
    assert t.span(t.hi - 3, t.hi) == slice(t.hi - 5, t.hi - 2)
    for lo, hi in ((1, 10), (t.hi - 3, t.hi + 1)):
        with pytest.raises(ValueError, match="does not cover"):
            t.span(lo, hi)


def test_spf_marker_means_window_prime(table_full_1e6):
    # a least prime factor above sqrt(hi - 1) marks a prime; p_minus
    # dividing n is checked by test_window_stats_consistent_exhaustive
    t = table_full_1e6
    marked = t.p_minus > math.isqrt(t.hi - 1)
    assert marked.any()
    assert (t.omega[marked] == 1).all()


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=2, max_value=10**6))
def test_factorization_reconstructs_n(table_full_1e6, n):
    f = factorize(table_full_1e6, n)
    prod = 1
    for p, e in f.factors:
        prod *= p**e
    assert prod == n


def _mobius_sieve(limit):
    mu = np.ones(limit + 1, dtype=np.int8)
    for p in primes_up_to(limit):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


def test_mobius_examples_and_against_sieve(table_full_1e6):
    t = table_full_1e6
    assert mobius(Factorization(1, ())) == 1
    assert mobius(factorize(t, 30)) == -1
    assert mobius(factorize(t, 12)) == 0
    mu = _mobius_sieve(10**4)
    for n in range(2, 10**4 + 1):
        assert mobius(factorize(t, n)) == mu[n]


def test_mobius_up_to_matches_sympy():
    import sympy

    mu = sieve.mobius_up_to(10**4)
    assert mu.dtype == np.float64
    assert mu.tolist() == [float(sympy.mobius(m)) for m in range(1, 10**4 + 1)]
    assert not np.signbit(mu[mu == 0]).any()  # no -0.0
    assert sieve.mobius_up_to(1).tolist() == [1.0]


def test_mobius_up_to_holds_its_charge():
    # bv-weighted --f mobius charges primes_nbytes(n) + n + 1 for the sieve:
    # the primes (two segments here) stay while mu's int8 array is sieved,
    # and then the float64 output is made
    n = SEGMENT + 1
    tracemalloc.start()
    try:
        sieve.mobius_up_to(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= sieve.primes_nbytes(n) + n + 1 + 8 * n, (peak, sieve.primes_nbytes(n))


def test_build_refuses_past_int64_before_sieving(monkeypatch):
    def no_sieve(n):
        raise AssertionError(f"sieved the primes up to {n}")

    monkeypatch.setattr(sieve, "primes_up_to", no_sieve)
    for lo, hi in ((2**63 - 1, 2**63 + 1), (2**63 + 1, 2**63 + 4)):
        with pytest.raises(ValueError, match="int64"):
            build_factor_table(lo, hi)


def test_mobius_divisor_sum_identity():
    limit = 10**5
    mu = _mobius_sieve(limit)
    acc = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        acc[d::d] += mu[d]
    assert acc[1] == 1
    assert (acc[2:] == 0).all()


def test_log_integral_values():
    assert log_integral(2) == 0.0 and type(log_integral(2)) is float
    assert log_integral(np.array([2.0, 3.0, 2.0]))[[0, 2]].tolist() == [0.0, 0.0]
    assert log_integral(np.empty(0)).shape == (0,)
    for bad in (1.5, 0.0, -5.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            log_integral(bad)
        with pytest.raises(ValueError):
            log_integral(np.array([3.0, bad, 10.0]))
    assert math.isclose(log_integral(10**4), LI_1E4, rel_tol=1e-12)
    assert math.isclose(log_integral(10**6), LI_1E6, rel_tol=1e-12)
    # sanity against prime counts
    assert abs(log_integral(10**4) - 1229) < 20
    assert abs(log_integral(10**6) - 78498) < 300


def test_log_integral_matches_mpmath():
    xs = np.geomspace(2, 1e18, 400)
    got = log_integral(xs)
    with mpmath.workdps(40):
        li2 = mpmath.li(2)
        for x, v in zip(xs.tolist(), got.tolist()):
            ref = mpmath.li(x) - li2
            assert v == 0.0 if x == 2 else abs(v - ref) <= 1e-14 * ref, x


def test_log_integral_scalar_equals_array_element():
    # bv-weighted's main_term_used is a scalar call, its per-m terms one array call
    rng = np.random.default_rng(3)
    for size in (1, 2, 7, 8, 9, 31, 1000):
        xs = np.exp(rng.uniform(math.log(2), math.log(1e18), size))
        arr = log_integral(xs)
        assert [log_integral(x) for x in xs.tolist()] == arr.tolist()
    N = 10**6
    per_m = log_integral(np.maximum(N / np.arange(1, 1001), 2.0))
    assert per_m[0] == log_integral(N)
    assert per_m[-1] == log_integral(N / 1000)


def test_factorization_validates_itself():
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # out of order
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (3, 1)))  # wrong product


def test_factorize_rejects_tampered_table(table_full_1e4):
    t = table_full_1e4
    tampered = t.omega.copy()
    tampered[60 - t.lo] += 1
    with pytest.raises(ArithmeticError):
        factorize(dataclasses.replace(t, omega=tampered), 60)
    # a recorded P^- that does not divide the quotient, or is not >= 2,
    # is refused rather than looped on
    for bad in (1, 7):
        tampered = t.p_minus.copy()
        tampered[60 - t.lo] = bad
        with pytest.raises(ArithmeticError):
            factorize(dataclasses.replace(t, p_minus=tampered), 60)
