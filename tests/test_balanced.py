import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import balanced, sieve, weights
from primegaps.balanced import (
    StarSetSpec,
    balanced_mask,
    classify,
    count_eps_r,
    count_star,
    in_star_set,
    is_eps_balanced,
    star_mask,
)
from primegaps.sieve import build_factor_table, factorize, primes_up_to
from primegaps.tuples import AdmissibleTuple


def test_balance_examples(table_full_1e6):
    t = table_full_1e6
    assert is_eps_balanced(factorize(t, 8), 0.0)  # prime cube
    assert is_eps_balanced(factorize(t, 6), 0.40)
    assert not is_eps_balanced(factorize(t, 6), 0.30)
    assert is_eps_balanced(factorize(t, 15), 0.32)
    with pytest.raises(ValueError):
        is_eps_balanced(factorize(t, 6), 1.0)


def test_classify_examples(table_full_1e6):
    t = table_full_1e6
    c49 = classify(factorize(t, 49))
    assert c49.threshold == 0.0 and c49.omega_big == 2 and not c49.is_prime
    c6 = classify(factorize(t, 6))
    assert math.isclose(c6.threshold, 1 - math.log(2) / math.log(3), rel_tol=1e-12)
    assert math.isclose(c6.threshold, 0.36907, abs_tol=5e-6)
    c30 = classify(factorize(t, 30))
    assert math.isclose(c30.threshold, 1 - math.log(2) / math.log(5), rel_tol=1e-12)
    assert c30.omega_big == 3


def test_threshold_defines_membership(table_full_1e6):
    t = table_full_1e6
    for n in (6, 15, 30, 49, 97, 360):
        c = classify(factorize(t, n))
        assert is_eps_balanced(factorize(t, n), min(c.threshold, 0.999))
        if c.threshold > 1e-9:
            assert not is_eps_balanced(factorize(t, n), c.threshold - 1e-6)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(min_value=2, max_value=10**6),
    st.floats(min_value=0.0, max_value=0.99),
    st.floats(min_value=0.0, max_value=0.99),
)
def test_monotone_in_eps(table_full_1e6, n, e1, e2):
    lo, hi = sorted((e1, e2))
    f = factorize(table_full_1e6, n)
    if is_eps_balanced(f, lo):
        assert is_eps_balanced(f, hi)


def test_star_set_spec_validation():
    with pytest.raises(ValueError):
        StarSetSpec(N=10**4, r=0, eps=0.3)
    with pytest.raises(ValueError):
        StarSetSpec(N=10**4, r=2, eps=0.0)
    with pytest.raises(ValueError):
        StarSetSpec(N=1, r=2, eps=0.3)
    spec = StarSetSpec(N=10**4, r=2, eps=0.3)
    assert spec.a1 < spec.a2
    assert math.isclose(spec.a1, 0.425) and math.isclose(spec.a2, 0.575)


def test_star_membership_r1(table_win_1e4):
    N = 10**4
    spec = StarSetSpec(N=N, r=1, eps=0.3)
    t = table_win_1e4
    lo_p, hi_p = N**spec.a1, N**spec.a2
    for n in range(N, 2 * N, 97):
        f = factorize(t, n)
        expect = f.omega_big == 1 and lo_p * (1 - 1e-9) <= n <= hi_p * (1 + 1e-9)
        assert in_star_set(f, spec) == expect


def test_star_membership_r2(table_win_1e4):
    N = 10**4
    spec = StarSetSpec(N=N, r=2, eps=0.3)
    t = table_win_1e4
    # direct bound check on a product of two primes in the interval
    f = factorize(t, 101 * 103)
    assert in_star_set(f, spec)
    # wrong omega is always out
    assert not in_star_set(factorize(t, 10080), spec)  # 2^5 * 3^2 * 5 * 7
    # large top factor is out
    f_big = factorize(t, 2 * 7919)
    assert not in_star_set(f_big, spec)


def test_count_star_brute_force_1e3():
    N = 10**3
    spec = StarSetSpec(N=N, r=2, eps=0.3)
    t = build_factor_table(N, 2 * N)
    count, predicted = count_star(spec, t)
    # independent enumeration of unordered prime pairs with both factors in I
    lo_l, hi_l = spec.a1 * math.log(N), spec.a2 * math.log(N)
    ps = [int(p) for p in primes_up_to(2 * N) if lo_l - 1e-12 <= math.log(p) <= hi_l + 1e-12]
    brute = sum(
        1 for i, p in enumerate(ps) for q in ps[i:] if N <= p * q < 2 * N
    )
    assert count == brute == 22
    assert predicted > 0


def test_count_star_empty_interval_limit():
    N = 10**3
    t = build_factor_table(N, 2 * N)
    spec = StarSetSpec(N=N, r=2, eps=1e-6)
    count, _ = count_star(spec, t)
    assert count == 0  # interval too narrow for any prime pair


def test_count_eps_r_cases(table_win_1e4):
    N = 10**4
    t = table_win_1e4
    # r = 1: primes in the window
    n_primes = int((t.omega[0:N] == 1).sum())
    assert count_eps_r(N, 1, 0.5, t) == n_primes
    # eps = 0, r = 2: prime squares in [N, 2N)
    squares = sum(1 for p in primes_up_to(200) if N <= p * p < 2 * N)
    assert count_eps_r(N, 2, 0.0, t) == squares
    # brute force at N = 1e3
    N3 = 10**3
    t3 = build_factor_table(N3, 2 * N3)
    brute = 0
    for n in range(N3, 2 * N3):
        f = factorize(t3, n)
        if f.omega_big == 2 and is_eps_balanced(f, 0.4):
            brute += 1
    assert count_eps_r(N3, 2, 0.4, t3) == brute


def test_implications_on_window(table_win_1e5):
    # members of the balanced window set obey the derived bounds on their
    # extreme prime factors, and the box condition implies balance
    N = 10**5
    t = table_win_1e5
    ln_n, ln_2n = math.log(N), math.log(2 * N)
    lpmin = np.log(t.p_minus[:N].astype(float))
    lpmax = np.log(t.p_plus[:N].astype(float))
    for r in (2, 3):
        for eps in (0.1, 0.3):
            bal = balanced_mask(N, r, eps, t)
            assert (lpmin[bal] >= (1 - eps) / r * ln_n - 1e-9).all()
            assert (lpmax[bal] <= ln_2n / (r * (1 - eps)) + 1e-9).all()
            spec = StarSetSpec(N=N, r=r, eps=eps)
            in_box = star_mask(spec, t)
            assert bal[in_box].all()


def test_inclusion_in_widened_star_set(table_win_1e5):
    # eps-balanced window members with r factors sit inside the 3*eps star
    # set; this is asymptotic in N and holds exhaustively here at eps = 0.1
    N = 10**5
    t = table_win_1e5
    for r in (2, 3):
        bal = balanced_mask(N, r, 0.1, t)
        wide = star_mask(StarSetSpec(N=N, r=r, eps=0.3), t)
        assert wide[bal].all()


def test_ptilde_mask_partition(table_win_1e4):
    # the window primes together with the star set: the widened moment
    # indicator at shift 0, which Lemma 3 sums against w^2
    N = 10**4
    spec = StarSetSpec(N=N, r=2, eps=0.3)
    t = table_win_1e4
    sm = star_mask(spec, t)
    primes = t.omega[0:N] == 1
    cfg = weights.WeightConfig(H=AdmissibleTuple((0, 2, 6)), l=1, R=10.0)
    w = weights.lambda_r_batch(N, 2 * N, cfg)
    want = math.fsum([float((w * w * (primes | sm)).sum())])
    assert weights.moment_lemma3(N, cfg, 0, spec, t).empirical == want
    assert not (primes & sm).any()  # primes have omega 1, star members omega r


# a1 = ln 67 / ln 1e4 at r = 2: the star set's lower end N^a1 is the prime 67 within TIE_TOL
EPS_67 = 2 * (1 - 2 * math.log(67) / math.log(10**4))


def test_scalar_predicates_match_masks(table_win_1e4):
    # the per-integer predicates and the window masks agree on every n of
    # [N, 2N); the masks drop n whose P^- lies below a floor before taking
    # logs, and the scalar predicates have no floor
    N = 10**4
    t = table_win_1e4
    fs = [factorize(t, n) for n in range(N, 2 * N)]
    for r in (1, 2, 3, 4):
        for eps in (0.05, 0.1, 0.3, 0.5, 0.99, EPS_67):
            spec = StarSetSpec(N=N, r=r, eps=eps)
            assert [in_star_set(f, spec) for f in fs] == star_mask(spec, t).tolist(), (r, eps)
        for eps in (0.0, 0.2, 0.4, 0.99):
            scalar = [f.omega_big == r and is_eps_balanced(f, eps) for f in fs]
            assert scalar == balanced_mask(N, r, eps, t).tolist(), (r, eps)
    # at eps = 0 the balanced members are exactly the prime powers
    powers = [f.omega_big == 2 and len(f.factors) == 1 for f in fs]
    assert powers == balanced_mask(N, 2, 0.0, t).tolist() and any(powers)


@pytest.mark.parametrize("N, r, eps, kind", [
    # N = 67 * 149: N^a1 = 67 and N^a2 = 149 within TIE_TOL, so n = N ties at both ends
    (67 * 149, 2, 2 * (1 - 2 * math.log(67) / math.log(67 * 149)), "star"),
    # N = p^r at eps = 0: P^- = P^+ = N^(1/r), the balance floor itself
    (101**2, 2, 0.0, "balanced"),
    (23**3, 3, 0.0, "balanced"),
])
def test_mask_floors_keep_a_member_at_the_floor(N, r, eps, kind):
    t = build_factor_table(N, 2 * N)
    f = factorize(t, N)
    if kind == "star":
        spec = StarSetSpec(N=N, r=r, eps=eps)
        mask, member, edge = star_mask(spec, t), in_star_set(f, spec), N**spec.a1
    else:
        mask, member, edge = balanced_mask(N, r, eps, t), is_eps_balanced(f, eps), N ** (1 / r)
    assert f.omega_big == r and f.p_minus == round(edge)  # P^- sits on the floor
    assert member and mask[0]


def test_masks_reject_r_below_one(table_win_1e4):
    N = 10**4
    for fn in (balanced_mask, count_eps_r):
        with pytest.raises(ValueError, match=r"need r >= 1, got r=0"):
            fn(N, 0, 0.3, table_win_1e4)
        for eps in (-0.1, 1.0):
            with pytest.raises(ValueError, match=r"need eps in \[0, 1\)"):
                fn(N, 2, eps, table_win_1e4)
        # coverage is checked before the floor, so N = 0 takes no log
        with pytest.raises(ValueError, match="does not cover"):
            fn(0, 2, 0.3, table_win_1e4)
        with pytest.raises(ValueError, match="window base must be >= 2, got N=1"):
            fn(1, 2, 0.3)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 40])
def test_window_masks_match_full_width_logs(table_win_1e7, r):
    # reference: logs over the whole window, then Omega(n) = r; r = 40 has
    # no members in [1e7, 2e7), so the gathered arrays are empty
    N, t = 10**7, table_win_1e7
    sl = slice(N - t.lo, 2 * N - t.lo)
    is_r = t.omega[sl] == r
    lpmin = np.log(t.p_minus[sl].astype(np.float64))
    lpmax = np.log(t.p_plus[sl].astype(np.float64))
    for eps in (0.05, 0.3, 0.9):
        spec = StarSetSpec(N=N, r=r, eps=eps)
        ref_star = is_r & balanced._in_interval(lpmin, lpmax, spec)
        ref_bal = is_r & balanced._balanced(lpmin, lpmax, eps)
        assert np.array_equal(star_mask(spec, t), ref_star)
        assert np.array_equal(balanced_mask(N, r, eps, t), ref_bal)
    if r == 40:
        assert not ref_star.any() and not ref_bal.any()


@pytest.mark.parametrize("chunk", [1000, 999])
def test_window_masks_do_not_depend_on_the_chunk(table_win_1e4, monkeypatch, chunk):
    # 1000 splits [N, 2N) into 10 whole chunks, 999 leaves a ragged last one;
    # the reference is the one-chunk scan of the default CHUNK > N
    N, t = 10**4, table_win_1e4
    cases = [(StarSetSpec(N=N, r=r, eps=eps), r, eps) for r in (1, 2, 3) for eps in (0.05, 0.3, 0.9)]
    whole = [(star_mask(spec, t), balanced_mask(N, r, eps, t)) for spec, r, eps in cases]
    monkeypatch.setattr(sieve, "CHUNK", chunk)
    for (spec, r, eps), (sm, bm) in zip(cases, whole):
        assert np.array_equal(star_mask(spec, t), sm)
        assert np.array_equal(balanced_mask(N, r, eps, t), bm)


STAR_GRID = [(1, 0.3), (2, 0.3), (2, 0.9), (2, 0.99), (2, 0.25), (2, 0.35), (3, 0.3), (3, 0.6), (4, 0.5)]


@pytest.mark.parametrize("N", [10**4, 67 * 149, 10**5, 10**6 + 12345])
def test_prime_tuple_sets_equal_the_table_scan(N):
    # reference: Omega, P^- and P^+ of a window table, logs over the whole
    # window; the sets, their counts and count_eps_r come from primes alone.
    # The last star eps puts N^a1 on the prime 67 (a tie at N = 67 * 149)
    t = build_factor_table(N, 2 * N)
    lpmin = np.log(t.p_minus.astype(np.float64))
    lpmax = np.log(t.p_plus.astype(np.float64))
    for r, eps in STAR_GRID + [(2, 2 * (1 - 2 * math.log(67) / math.log(N)))]:
        spec = StarSetSpec(N=N, r=r, eps=eps)
        ref = (t.omega == r) & balanced._in_interval(lpmin, lpmax, spec)
        assert np.array_equal(star_mask(spec), ref), (r, eps)
        if r >= 2:
            assert count_star(spec)[0] == count_star(spec, t)[0] == int(ref.sum()), (r, eps)
    for r in (1, 2, 3, 4):
        for eps in (0.0, 0.05, 0.25, 0.3, 0.35, 0.9):
            ref = (t.omega == r) & balanced._balanced(lpmin, lpmax, eps)
            assert np.array_equal(balanced_mask(N, r, eps), ref), (r, eps)
            assert count_eps_r(N, r, eps) == count_eps_r(N, r, eps, t) == int(ref.sum()), (r, eps)


def test_star_counts_at_1e9_from_the_primes_of_I():
    # a window table at N = 1e9 would take 8.4 GiB; the primes of I take under 1 MiB
    assert count_star(StarSetSpec(N=10**9, r=2, eps=0.3))[0] == 12_236_041
    assert count_star(StarSetSpec(N=10**9, r=3, eps=0.3))[0] == 1_404_782
