import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps.sieve import (
    SEGMENT,
    Factorization,
    build_factor_table,
    euler_phi,
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


def test_factorize_rejects_out_of_window(table_full_1e6):
    with pytest.raises(ValueError):
        factorize(table_full_1e6, 1)
    with pytest.raises(ValueError):
        factorize(table_full_1e6, 10**7)


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
    # the 1e7 window spans three segments; a misaligned per-segment
    # residual fix-up would show up next to the first boundary
    t = table_win_1e7
    lo = t.lo + SEGMENT - 500
    sub = build_factor_table(lo, lo + 1000)
    a, b = lo - t.lo, lo - t.lo + 1000
    assert np.array_equal(sub.p_minus, t.p_minus[a:b])
    assert np.array_equal(sub.p_plus, t.p_plus[a:b])
    assert np.array_equal(sub.omega, t.omega[a:b])


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


def test_mobius_divisor_sum_identity():
    limit = 10**5
    mu = _mobius_sieve(limit)
    acc = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        acc[d::d] += mu[d]
    assert acc[1] == 1
    assert (acc[2:] == 0).all()


def test_phi_examples_and_divisor_sum(table_full_1e6):
    t = table_full_1e6
    assert euler_phi(Factorization(1, ())) == 1
    assert euler_phi(factorize(t, 10)) == 4
    assert euler_phi(factorize(t, 97)) == 96
    limit = 10**5
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in primes_up_to(limit):
        phi[p::p] -= phi[p::p] // p
    for n in range(1, 10**4 + 1):
        assert euler_phi(factorize(t, n) if n > 1 else Factorization(1, ())) == phi[n]
    acc = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        acc[d::d] += phi[d]
    assert (acc[1:] == np.arange(1, limit + 1)).all()


def test_log_integral_values():
    assert log_integral(2) == 0.0
    with pytest.raises(ValueError):
        log_integral(1.5)
    assert math.isclose(log_integral(10**4), LI_1E4, rel_tol=1e-12)
    assert math.isclose(log_integral(10**6), LI_1E6, rel_tol=1e-12)
    # sanity against prime counts
    assert abs(log_integral(10**4) - 1229) < 20
    assert abs(log_integral(10**6) - 78498) < 300


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
