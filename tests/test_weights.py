import dataclasses
import functools
import math
import os
import tracemalloc
from math import factorial

import numpy as np
import pytest

from primegaps import sieve, weights
from primegaps.balanced import StarSetSpec, balanced_mask, count_eps_r, count_star, in_star_set, star_mask
from primegaps.sieve import build_factor_table, factorize
from primegaps.tuples import AdmissibleTuple, generate_tuple, nu_p
from primegaps.weights import (
    WeightConfig,
    lambda_r_batch,
    lambda_r_naive,
    moment_lemma1,
    moment_lemma2,
    moment_lemma3,
    s_statistic,
)


def brute_weight(n, offsets, l, R):
    """Independent oracle: enumerate all divisors of the shifted product."""
    import sympy

    k = len(offsets)
    P = 1
    for h in offsets:
        P *= n + h
    total = 0.0
    for d in sympy.divisors(P):
        if d <= R:
            mu = sympy.mobius(d)
            if mu:
                total += int(mu) * math.log(R / d) ** (k + l)
    return total / factorial(k + l)


def test_naive_hand_example(table_full_1e6):
    cfg = WeightConfig(H=AdmissibleTuple((0,)), l=0, R=10.0)
    val = lambda_r_naive(3, cfg, table_full_1e6)
    assert math.isclose(val, math.log(3), rel_tol=1e-14)  # d in {1, 3}


def test_naive_single_divisor_baseline(table_full_1e6):
    # a prime beyond R leaves only d = 1
    cfg = WeightConfig(H=AdmissibleTuple((0,)), l=0, R=10.0)
    val = lambda_r_naive(101, cfg, table_full_1e6)
    assert math.isclose(val, math.log(10.0), rel_tol=1e-14)
    cfg2 = WeightConfig(H=AdmissibleTuple((0, 2)), l=1, R=5.0)
    # 107 and 109 are prime, both above R
    assert math.isclose(
        lambda_r_naive(107, cfg2, table_full_1e6),
        math.log(5.0) ** 3 / factorial(3),
        rel_tol=1e-14,
    )


def test_naive_against_sympy_oracle(table_full_1e6):
    cfg = WeightConfig(H=AdmissibleTuple((0, 2)), l=1, R=20.0)
    for n in (13, 25, 100, 9999):
        assert math.isclose(
            lambda_r_naive(n, cfg, table_full_1e6),
            brute_weight(n, (0, 2), 1, 20.0),
            rel_tol=1e-12,
            abs_tol=1e-12,
        )


def test_batch_matches_naive_small(table_full_1e6):
    t = table_full_1e6
    for offsets, l, R in (((0, 2), 1, 50.0), ((0, 2, 6), 1, 100.0), ((0, 4, 6), 0, 30.0)):
        cfg = WeightConfig(H=AdmissibleTuple(offsets), l=l, R=R)
        lo, hi = 5000, 5500
        w = lambda_r_batch(lo, hi, cfg, t)
        for i, n in enumerate(range(lo, hi, 7)):
            nv = lambda_r_naive(n, cfg, t)
            assert math.isclose(w[n - lo], nv, rel_tol=1e-9, abs_tol=1e-9)


def test_batch_d1_baseline():
    cfg = WeightConfig(H=AdmissibleTuple((0, 2)), l=1, R=2.0)
    # R = 2 admits d in {1, 2}; check against the two-term sum directly
    w = lambda_r_batch(100, 110, cfg)
    for i, n in enumerate(range(100, 110)):
        expect = math.log(2.0) ** 3
        if (n % 2 == 0) or ((n + 2) % 2 == 0):  # always true: 2 | P_H(n)
            expect += 0.0  # mu(2) * log(2/2)^3 = 0
        assert math.isclose(w[i], expect / factorial(3), rel_tol=1e-12)


def crt_classes(d, offsets):
    """The classes a < d with d | P_H(a), by trying every a."""
    a = np.arange(d, dtype=np.int64)
    prod = np.ones(d, dtype=np.int64)
    for h in offsets:
        prod = prod * ((a + h) % d) % d
    return np.flatnonzero(prod == 0).tolist()


def full_length_batch(lo, hi, cfg):
    """Reference accumulation, sharing no code with the plan: every squarefree
    d <= R (from sympy) and each class a < d with d | P_H(a), ascending, as
    one full-length strided add."""
    import sympy

    power = cfg.k + cfg.l
    w = np.zeros(hi - lo, dtype=np.float64)
    for d in range(1, math.floor(cfg.R) + 1):
        mu = int(sympy.mobius(d))
        if mu:
            val = mu * math.log(cfg.R / d) ** power * (1.0 / factorial(power))
            for a in crt_classes(d, cfg.H.offsets):
                w[(a - lo) % d :: d] += val
    return w


@pytest.mark.parametrize("R", [56.0, 300.0, 1000.0])
@pytest.mark.parametrize("k", [3, 6])
def test_blocked_batch_is_bit_identical_to_full_length(R, k):
    # unaligned lo, three whole blocks and a ragged tail; the moduli fall on
    # both sides of weights.SMALL_P once R > weights.SMALL_P
    lo = 10**6 + 12345
    hi = lo + 3 * sieve.BLOCK + 777
    cfg = WeightConfig(H=generate_tuple(k), l=1, R=R)
    got = lambda_r_batch(lo, hi, cfg)
    assert got.tobytes() == full_length_batch(lo, hi, cfg).tobytes()


P = 30030  # the base period once R >= 13: 2 * 3 * 5 * 7 * 11 * 13


@pytest.mark.parametrize("lo, n", [
    (40 * P, 1000),  # lo = 0 mod P, shorter than the period
    (40 * P + P - 1, 1000),  # lo = P - 1 mod P
    (40 * P, P - 1),
    (40 * P + P - 1, P - 1),
    (40 * P + P - 1, 2 * sieve.BLOCK + 5),  # several blocks, each from its own phase
])
@pytest.mark.parametrize("R, k, l", [
    (7.3, 3, 1),  # R < 16: the base is the whole plan
    (12.5, 3, 0),
    (30.0, 3, 1),  # mu(30) = -1 and ln(R/30) = 0: d = 30 adds -0.0
    (56.0, 6, 0),
    (300.0, 6, 1),
])
def test_periodic_base_is_bit_identical_to_full_length(lo, n, R, k, l):
    cfg = WeightConfig(H=generate_tuple(k), l=l, R=R)
    ref = full_length_batch(lo, lo + n, cfg).tobytes()
    assert lambda_r_batch(lo, lo + n, cfg).tobytes() == ref
    # _fill writes every element, whatever the buffer held
    buf = np.full(n, np.nan)
    weights._fill(weights._weight_plan(cfg), buf, lo)
    assert buf.tobytes() == ref


def test_periodic_base_takes_the_longest_prefix_within_block():
    base, rest = weights._weight_plan(WeightConfig(H=generate_tuple(3), l=1, R=12.5))
    assert len(base) == 2310 and rest == []
    base, rest = weights._weight_plan(WeightConfig(H=generate_tuple(3), l=1, R=30.0))
    assert len(base) == P <= sieve.BLOCK and rest[0][0] == 17
    d, val, _ = rest[-1]
    assert d == 30 and val == 0.0 and math.copysign(1.0, val) == -1.0


def test_residue_class_counts_are_multiplicative():
    import sympy

    H = AdmissibleTuple((0, 2, 6))
    plan = weights._squarefree_moduli(40.0, H)
    assert [d for d, _, _ in plan] == [d for d in range(1, 41) if sympy.mobius(d)]
    for d, mu, classes in plan:
        assert mu == sympy.mobius(d)
        expect = math.prod(nu_p(H, p) for p in sympy.primefactors(d))
        assert len(classes) == len(set(classes)) == expect
        # sorted, each below d, and every class really makes the product divisible by d
        assert classes == crt_classes(d, H.offsets)


def test_weight_depends_only_on_residues():
    # with R = 6 only moduli dividing lcm(2,3,5,6)=30 contribute
    cfg = WeightConfig(H=AdmissibleTuple((0, 2, 6)), l=1, R=6.0)
    w = lambda_r_batch(1000, 1120, cfg)
    assert np.allclose(w[:30], w[30:60], rtol=0, atol=1e-14)
    assert np.allclose(w[:30], w[60:90], rtol=0, atol=1e-14)


def test_divisor_budget_error(monkeypatch):
    monkeypatch.setattr(weights, "MAX_DIVISORS", 3)
    with pytest.raises(ValueError, match="budget"):
        lambda_r_batch(100, 120, WeightConfig(H=AdmissibleTuple((0, 2)), l=0, R=10.0))


def test_budget_counts_the_classes_the_plan_holds(monkeypatch):
    # k = 6 at R = 200: 122 squarefree moduli, but 1500 (d, class) pairs
    H = generate_tuple(6)
    plan = weights._squarefree_moduli(200.0, H)
    assert (len(plan), sum(len(c) for _, _, c in plan)) == (122, 1500)
    monkeypatch.setattr(weights, "MAX_DIVISORS", 1000)
    with pytest.raises(ValueError, match="budget"):
        lambda_r_batch(100, 120, WeightConfig(H=H, l=0, R=200.0))


def test_early_budget_refusal_rejects_only_what_the_enumeration_would():
    # R >= 2 * MAX_DIVISORS is refused before any sieving; that is sound because
    # every squarefree d holds at least one class and Q(2 * MAX_DIVISORS), the
    # number of squarefree d up to it, already exceeds the budget:
    # Q(x) = sum over d <= sqrt(x) of mu(d) floor(x / d^2)
    import sympy

    x = 2 * weights.MAX_DIVISORS
    q = sum(int(sympy.mobius(d)) * (x // (d * d)) for d in range(1, math.isqrt(x) + 1))
    assert q > weights.MAX_DIVISORS


def test_same_divisors_without_prime_shift(table_full_1e6):
    # when n + h is a prime above R, dropping h from the tuple leaves the
    # set of squarefree divisors d <= R of the shifted product unchanged
    t = table_full_1e6
    R = 50.0
    H = (0, 2, 6)
    for n in range(2000, 3000):
        if t.omega[n + 2 - t.lo] != 1:
            continue
        full = _squarefree_divisors(n, H, R, t)
        dropped = _squarefree_divisors(n, (0, 6), R, t)
        assert full == dropped


def _squarefree_divisors(n, offsets, R, t):
    primes = set()
    for h in offsets:
        primes.update(p for p, _ in factorize(t, n + h).factors)
    plist = sorted(p for p in primes if p <= R)
    out = set()

    def dfs(i, d):
        out.add(d)
        for j in range(i, len(plist)):
            nd = d * plist[j]
            if nd > R:
                break
            dfs(j + 1, nd)

    dfs(0, 1)
    return out


# ------------------------------------------------------------------ moments


def wide_reference(N, h, t, smask):
    """n + h prime or a star member, for n in [N, 2N), read from t (which starts at N) and star_mask.

    Primality carries no window restriction; the star mask covers [N, 2N) alone.
    """
    chi = t.omega[h : h + N] == 1
    chi[: N - h] |= smask[h:]
    return chi


@pytest.fixture(scope="module")
def moment_setup(table_win_1e4):
    N = 10**4
    cfg = WeightConfig(H=AdmissibleTuple((0, 2, 6)), l=1, R=N**0.25)
    return N, cfg, table_win_1e4


def test_lemma1_brute_force(moment_setup):
    N, cfg, t = moment_setup
    rep = moment_lemma1(N, cfg, t)
    brute = math.fsum(lambda_r_naive(n, cfg, t) ** 2 for n in range(N, 2 * N))
    assert math.isclose(rep.empirical, brute, rel_tol=1e-11)
    assert rep.predicted_main_term > 0
    assert math.isclose(rep.ratio, rep.empirical / rep.predicted_main_term, rel_tol=1e-15)


def lemma1_pair_sum(N, offsets, l, R):
    """Exact sum over n in [N, 2N) of w(n)^2, sharing no code with the package.

    w(n)^2 = sum over squarefree d, e <= R of lambda_d lambda_e [lcm(d, e) | P_H(n)],
    so the sum is that pair sum weighted by #{n in [N, 2N) : lcm(d, e) | P_H(n)}:
    a floor difference over each CRT class mod the lcm.  The squarefree d come
    from sympy, and each class is sum r_p (m/p) ((m/p)^-1 mod p) mod m over one
    root r_p of P_H mod each prime p of m.
    """
    import itertools

    import sympy

    power = len(offsets) + l
    lam = [int(sympy.mobius(d)) * math.log(R / d) ** power / factorial(power)
           for d in range(1, math.floor(R) + 1)]
    moduli = [d for d in range(1, math.floor(R) + 1) if lam[d - 1]]

    @functools.cache
    def count(m):
        ps = sympy.primefactors(m)
        basis = [(m // p) * pow(m // p, -1, p) for p in ps]
        roots = [sorted({-h % p for h in offsets}) for p in ps]
        return sum((2 * N - 1 - a) // m - (N - 1 - a) // m
                   for a in (sum(r * b for r, b in zip(rs, basis)) % m
                             for rs in itertools.product(*roots)))

    return math.fsum(lam[d - 1] * lam[e - 1] * count(math.lcm(d, e))
                     for d in moduli for e in moduli)


@pytest.mark.parametrize("N, offsets, l, R", [
    (10**4, (0, 2, 6), 1, (10**4) ** 0.25),
    (10**7, (0, 2, 6), 1, (10**7) ** 0.25),
    (10**4, generate_tuple(6).offsets, 0, (10**4) ** 0.5),
])
def test_lemma1_matches_exact_pair_sum(table_win_1e7, N, offsets, l, R):
    t = table_win_1e7 if N == 10**7 else build_factor_table(N, 2 * N + max(offsets))
    rep = moment_lemma1(N, WeightConfig(H=AdmissibleTuple(offsets), l=l, R=R), t)
    assert math.isclose(rep.empirical, lemma1_pair_sum(N, offsets, l, R), rel_tol=1e-12)


def test_lemma1_pair_sum_pin_at_1e9():
    # the oracle at a scale no window test reaches; the window kernel's
    # moment_lemma1(10**9, ...) gave 156496194456.956 over [1e9, 2e9) in 12 s
    got = lemma1_pair_sum(10**9, (0, 2, 6), 1, 177)
    assert math.isclose(got, 156496194456.95605, rel_tol=1e-15)
    assert math.isclose(got, 156496194456.956, rel_tol=1e-14)


def test_lemma1_degenerate_inadmissible(table_win_1e4):
    cfg = WeightConfig(H=AdmissibleTuple((0, 1)), l=0, R=10.0)
    rep = moment_lemma1(10**4, cfg, table_win_1e4)
    assert rep.predicted_main_term == 0.0
    assert rep.extra["degenerate"]


def test_lemma2_brute_force_and_rejection(moment_setup):
    N, cfg, t = moment_setup
    with pytest.raises(ValueError):
        moment_lemma2(N, cfg, 5, t)
    rep = moment_lemma2(N, cfg, 2, t)
    brute = math.fsum(
        lambda_r_naive(n, cfg, t) ** 2
        for n in range(N, 2 * N)
        if t.omega[n + 2 - t.lo] == 1
    )
    assert math.isclose(rep.empirical, brute, rel_tol=1e-11)
    assert rep.empirical >= 0.0


def test_lemma3_limits(moment_setup):
    N, cfg, t = moment_setup
    rep2 = moment_lemma2(N, cfg, 2, t)
    tiny = StarSetSpec(N=N, r=2, eps=1e-3)
    rep3 = moment_lemma3(N, cfg, 2, tiny, t)
    assert math.isclose(rep3.empirical, rep2.empirical, rel_tol=1e-3)
    spec = StarSetSpec(N=N, r=2, eps=0.3)
    rep3b = moment_lemma3(N, cfg, 2, spec, t)
    assert rep3b.empirical >= rep2.empirical  # wide indicator dominates
    assert rep3b.predicted_main_term > rep2.predicted_main_term
    with pytest.raises(ValueError):
        moment_lemma3(N, cfg, 2, StarSetSpec(N=N, r=4, eps=0.3), t)
    with pytest.raises(ValueError):
        moment_lemma3(N, cfg, 2, StarSetSpec(N=2 * N, r=2, eps=0.3), t)


def test_wide_indicator_rejects_star_member_below_R(moment_setup, monkeypatch):
    # the window is one chunk, then at CHUNK = 1000 ten chunks shared with a
    # forked child when two cores are free; the bad member lies in the first
    # chunk, which the child takes
    N, cfg, t = moment_setup
    spec = StarSetSpec(N=N, r=2, eps=0.3)
    star_primes, clean = weights.balanced._star_primes, star_mask(spec, t)

    def with_even_member(spec, table=None):
        # the primes 53 .. 199 of I gain 2 and 5003: of the new products only
        # 2 * 5003 = N + 6 lies in [N, 2N), and it has the prime factor 2 < R
        primes = np.concatenate(([2], star_primes(spec, table)[0], [5003]))
        return primes, np.full(primes.size, primes.size)

    monkeypatch.setattr(weights.balanced, "_star_primes", with_even_member)
    assert np.flatnonzero(star_mask(spec, t) ^ clean).tolist() == [6]
    for chunk in (sieve.CHUNK, 1000):
        monkeypatch.setattr(sieve, "CHUNK", chunk)
        with pytest.raises(ArithmeticError):
            moment_lemma3(N, cfg, 0, spec, t)
        with pytest.raises(ArithmeticError):
            s_statistic(N, cfg, spec, t)


@pytest.mark.parametrize("r", [2, 3])
def test_wide_indicator_and_multi_hits_match_scalar_oracle(moment_setup, monkeypatch, r):
    N, cfg, t = moment_setup
    spec = StarSetSpec(N=N, r=r, eps=0.3)
    smask = star_mask(spec, t)
    wants = []
    for h in cfg.H.offsets:
        fs = [factorize(t, n + h) for n in range(N, 2 * N)]
        want = np.array([f.omega_big == 1 or in_star_set(f, spec) for f in fs])
        assert np.array_equal(wide_reference(N, h, t, smask), want), h
        wants.append(want)
    hits = sum(want.astype(np.int64) for want in wants)
    w = lambda_r_batch(N, 2 * N, cfg, t)
    # one chunk, then chunk by chunk from each chunk's own star rows, which reach past its end
    for chunk in (sieve.CHUNK, 7, 1000):
        monkeypatch.setattr(sieve, "CHUNK", chunk)

        def ref(full):
            return math.fsum(float(full[a : a + chunk].sum()) for a in range(0, N, chunk))

        for h, want in zip(cfg.H.offsets, wants):
            assert moment_lemma3(N, cfg, h, spec, t).empirical == ref(w * w * want), (h, chunk)
        rep = s_statistic(N, cfg, spec, t)
        assert rep.empirical == ref((hits - 1.0) * w * w), chunk
        assert rep.extra["multi_hit_count"] == int((hits >= 2).sum()), chunk


def test_s_statistic_structure(moment_setup):
    N, cfg, t = moment_setup
    spec = StarSetSpec(N=N, r=2, eps=0.3)
    rep = s_statistic(N, cfg, spec, t)
    # brute force from the per-shift lemma3 sums: S = sum_h lemma3_h - lemma1
    l1 = moment_lemma1(N, cfg, t)
    total = math.fsum(
        moment_lemma3(N, cfg, h, spec, t).empirical for h in cfg.H.offsets
    )
    assert math.isclose(rep.empirical, total - l1.empirical, rel_tol=1e-9)
    assert rep.extra["multi_hit_count"] >= 0
    # predicted sign tracks the positivity factor by construction
    from primegaps.tuples import positivity_factor

    pf = positivity_factor(cfg.k, cfg.l, rep.extra["c0"])
    assert (rep.predicted_main_term > 0) == (pf > 0)


def test_s_statistic_single_offset_nonpositive(table_win_1e4):
    N = 10**4
    cfg = WeightConfig(H=AdmissibleTuple((0,)), l=0, R=10.0)
    spec = StarSetSpec(N=N, r=2, eps=0.3)
    rep = s_statistic(N, cfg, spec, table_win_1e4)
    assert rep.empirical <= 0.0  # indicator never exceeds 1


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("all_prime", [False, True])
def test_s_statistic_hit_counts_past_int8_equal_int64_reference(all_prime, monkeypatch):
    # k = 130 shifts (the r = 3 headline has k0 = 3505); with a table whose
    # Omega is 1 everywhere, and the sum's prime sieve reading it from N on,
    # each n has 130 hits, which an int8 count would wrap.  Reference: int64
    # hit counts of the full-width indicators
    N = 10**4
    cfg = WeightConfig(H=generate_tuple(130), l=1, R=10.0)
    spec = StarSetSpec(N=N, r=2, eps=0.3)
    t = build_factor_table(N, 2 * N + max(cfg.H.offsets) + 1)
    if all_prime:
        t, window = dataclasses.replace(t, omega=np.ones_like(t.omega)), sieve.prime_window
        monkeypatch.setattr(sieve, "prime_window", lambda lo, hi: t.omega[t.span(lo, hi)] == 1 if lo >= N else window(lo, hi))
    smask = star_mask(spec, t)
    hits = sum(wide_reference(N, h, t, smask).astype(np.int64) for h in cfg.H.offsets)
    w = lambda_r_batch(N, 2 * N, cfg, t)
    rep = s_statistic(N, cfg, spec, t)
    assert rep.empirical == math.fsum([float(((hits - 1.0) * w * w).sum())])
    assert rep.extra["multi_hit_count"] == int((hits >= 2).sum())
    if all_prime:
        assert hits.min() == 130 and rep.extra["multi_hit_count"] == N


def test_prediction_log_power_scaling(table_win_1e4):
    # recompute predictions at two R values; powers of ln R must match the
    # stated exponents exactly
    N = 10**4
    H = AdmissibleTuple((0, 2, 6))
    k, l = 3, 1
    p1 = moment_lemma1(N, WeightConfig(H=H, l=l, R=10.0), table_win_1e4).predicted_main_term
    p2 = moment_lemma1(N, WeightConfig(H=H, l=l, R=20.0), table_win_1e4).predicted_main_term
    assert math.isclose(p2 / p1, (math.log(20) / math.log(10)) ** (k + 2 * l), rel_tol=1e-12)
    q1 = moment_lemma2(N, WeightConfig(H=H, l=l, R=10.0), 0, table_win_1e4).predicted_main_term
    with pytest.warns(UserWarning):  # R = 20 sits above N^(1/4); prediction still scales
        q2 = moment_lemma2(N, WeightConfig(H=H, l=l, R=20.0), 0, table_win_1e4).predicted_main_term
    assert math.isclose(
        q2 / q1, (math.log(20) / math.log(10)) ** (k + 2 * l + 1), rel_tol=1e-12
    )


def test_out_of_range_R_warns(table_win_1e4):
    N = 10**4
    cfg = WeightConfig(H=AdmissibleTuple((0, 2)), l=0, R=500.0)  # > N^(1/4)
    with pytest.warns(UserWarning) as caught:
        moment_lemma2(N, cfg, 0, table_win_1e4)
        moment_lemma2(N, cfg, 0)
    # the warning names the line that called the public function
    assert [w.filename for w in caught] == [__file__] * 2


def _moment_calls(N, cfg, spec, table=None):
    """The four moment reports over [N, 2N), with table or (None) with the primes the sums sieve."""
    return [moment_lemma1(N, cfg, table), moment_lemma2(N, cfg, 2, table),
            moment_lemma3(N, cfg, 2, spec, table), s_statistic(N, cfg, spec, table)]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("N", [10**4, 7 * 10**5, 3 * sieve.CHUNK + 5])
def test_moments_without_a_table_equal_those_with_one(N, monkeypatch):
    # the sums sieve their targets with prime_window; the reference reads
    # them as Omega 1 from the window's table instead (primes_up_to's own
    # segments from 0 still sieve).  7e5 is one chunk cut in two halves,
    # 3 CHUNK + 5 four chunks, each shared with a forked child; repr tells
    # every float apart by its bits
    cfg = WeightConfig(H=AdmissibleTuple((0, 2, 6)), l=1, R=N**0.25)
    spec = StarSetSpec(N=N, r=2, eps=0.3)
    got = _moment_calls(N, cfg, spec)
    t, window = build_factor_table(N, 2 * N + 6), sieve.prime_window
    monkeypatch.setattr(sieve, "prime_window", lambda lo, hi: t.omega[t.span(lo, hi)] == 1 if lo >= N else window(lo, hi))
    want = _moment_calls(N, cfg, spec, t)
    assert got == want and repr(got) == repr(want)


def test_moment_sums_build_only_the_table_they_read(monkeypatch):
    # no sum builds a factor table; Lemma 1 reads only the weights, and the
    # others sieve the primes of each piece's shifted range, whether or not
    # a table is passed
    N, tables, windows = 10**4, [], []
    build, window = sieve.build_factor_table, sieve.prime_window
    monkeypatch.setattr(sieve, "build_factor_table", lambda lo, hi: tables.append((lo, hi)) or build(lo, hi))

    def logged(lo, hi):  # primes_up_to sieves its segments from 0 through it too
        if lo >= N:
            windows.append((lo, hi))
        return window(lo, hi)

    monkeypatch.setattr(sieve, "prime_window", logged)
    monkeypatch.setattr(sieve, "CHUNK", 4000)  # three pieces, all in this process
    monkeypatch.setattr(sieve, "_in_two", lambda job, items: [job(x) for x in items])
    cfg = WeightConfig(H=AdmissibleTuple((0, 2, 6)), l=1, R=N**0.25)
    spec = StarSetSpec(N=N, r=2, eps=0.3)
    assert moment_lemma1(N, cfg).empirical > 0
    assert windows == []
    _moment_calls(N, cfg, spec)  # Lemma 1, then one sieve per piece for Lemma 2 and 3 (h = 2) and S
    pieces = [(N, N + 4000), (N + 4000, N + 8000), (N + 8000, 2 * N)]
    assert tables == []
    sieved = [(lo, hi + top) for top in (2, 2, 6) for lo, hi in pieces]
    assert windows == sieved
    windows.clear()
    _moment_calls(N, cfg, spec, build(N, 2 * N + 6))
    assert windows == sieved


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("chunk", [1000, 999, 15000])
@pytest.mark.parametrize("R", [10.0, 300.0])
def test_window_sums_match_chunked_full_width_reference(table_win_1e4, monkeypatch, chunk, R):
    # 1000 splits [N, 2N) into 10 whole chunks, 999 leaves a ragged last
    # one, and 15000 makes one chunk longer than CHUNK // 2, cut in two
    # halves; the shifts n + h and the star slice cross every chunk end, and
    # R = 300 adds moduli above weights.SMALL_P.  Reference: fsum of the sums
    # of the same slices of each full-width expression.
    N, t = 10**4, table_win_1e4
    cfg = WeightConfig(H=AdmissibleTuple((0, 2, 6)), l=1, R=R)
    w = lambda_r_batch(N, 2 * N, cfg, t)

    def ref(full):
        return math.fsum(float(full[i : i + chunk].sum()) for i in range(0, N, chunk))

    monkeypatch.setattr(sieve, "CHUNK", chunk)
    assert moment_lemma1(N, cfg, t).empirical == ref(w * w)
    for h in cfg.H.offsets:
        chi = t.omega[h : h + N] == 1
        assert moment_lemma2(N, cfg, h, t).empirical == ref(w * w * chi)
    for r in (2, 3):
        spec = StarSetSpec(N=N, r=r, eps=0.3)
        smask = star_mask(spec, t)
        hits = np.zeros(N, dtype=np.int16)
        for h in cfg.H.offsets:
            chi = wide_reference(N, h, t, smask)
            hits += chi
            if r == 2:
                assert moment_lemma3(N, cfg, h, spec, t).empirical == ref(w * w * chi)
        rep = s_statistic(N, cfg, spec, t)
        assert rep.empirical == ref((hits.astype(np.float64) - 1.0) * w * w)
        assert rep.extra["multi_hit_count"] == int((hits >= 2).sum())


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_moments_of_several_chunks_equal_a_serial_sum_of_chunk_sums():
    # N = 3 CHUNK + 5 makes four chunks, two per process when two cores are
    # free; the reference sums the same chunks of full-width arrays in order
    N, chunk = 3 * sieve.CHUNK + 5, sieve.CHUNK
    t = build_factor_table(N, 2 * N + 9)
    cfg = WeightConfig(H=AdmissibleTuple((0, 2, 6)), l=1, R=N**0.25)
    spec = StarSetSpec(N=N, r=2, eps=0.3)
    w = lambda_r_batch(N, 2 * N, cfg, t)

    def serial(full):
        return math.fsum(float(full[a : a + chunk].sum()) for a in range(0, N, chunk))

    smask = star_mask(spec, t)
    wide = {h: wide_reference(N, h, t, smask) for h in cfg.H.offsets}
    hits = sum(wide.values())
    assert moment_lemma1(N, cfg, t).empirical == serial(w * w)
    assert moment_lemma2(N, cfg, 2, t).empirical == serial(w * w * (t.omega[2 : 2 + N] == 1))
    assert moment_lemma3(N, cfg, 2, spec, t).empirical == serial(w * w * wide[2])
    rep = s_statistic(N, cfg, spec, t)
    assert rep.empirical == serial((hits - 1.0) * w * w)
    assert rep.extra["multi_hit_count"] == int((hits >= 2).sum()) > 0


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_one_chunk_moments_equal_on_one_core(monkeypatch):
    # N = 1e6 is one chunk longer than CHUNK // 2: its two halves are summed
    # by two processes when two cores are free, and by the caller alone on
    # one; both give the sum of the whole vector that one fill writes
    N = 10**6
    spec = StarSetSpec(N=N, r=2, eps=0.3)
    k3 = WeightConfig(H=AdmissibleTuple((0, 2, 6)), l=1, R=N**0.5)
    k6 = WeightConfig(H=generate_tuple(6), l=1, R=N**0.5)
    small = WeightConfig(H=AdmissibleTuple((0, 2, 6)), l=1, R=N**0.25)
    t = build_factor_table(N, 2 * N + max(k6.H.offsets) + 1)
    calls, in_two = [], sieve._in_two
    monkeypatch.setattr(sieve, "_in_two", lambda job, items: calls.append(len(items)) or in_two(job, items))

    def run():
        return (moment_lemma1(N, k3, t), moment_lemma1(N, k6, t), moment_lemma2(N, small, 2, t),
                moment_lemma3(N, small, 2, spec, t), s_statistic(N, small, spec, t))

    both = run()
    assert calls == [2] * 5
    w = lambda_r_batch(N, 2 * N, k3)
    assert both[0].empirical == math.fsum([float((w * w).sum())])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run() == both


def test_numpy_pairwise_sum_splits_at_the_half_cut():
    # _moment_sums sums a one-chunk window longer than CHUNK // 2 as two
    # halves cut at h = n // 2 - (n // 2) % 8, which is bit-identical to the
    # whole window's sum only while numpy's pairwise summation of a
    # contiguous float64 array splits it there; a plain n // 2 cut is not
    rng = np.random.default_rng(28)
    moved = 0
    for n in (2**19 + 1, 2**19 + 3, 600_005, 700_007, 1_000_003, 2**20 - 1, 2**20):
        w = rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 12, n)
        h = n // 2 - n // 2 % 8
        assert float(w.sum()) == float(w[:h].sum()) + float(w[h:].sum()), (
            f"numpy's pairwise summation no longer splits a float64 array of {n} at {h}")
        moved += float(w.sum()) != float(w[: n // 2].sum()) + float(w[n // 2 :].sum())
    assert moved


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("N, R", [(700_007, 28.9), (1_000_003, 31.6), (2**19 + 3, 26.9)])
def test_one_chunk_halves_sum_to_the_whole_window(N, R):
    # each N has an odd N // 2, so the halves are cut short of it; cut at
    # N // 2, Lemma 1 at N = 700007 and S at N = 1000003 change in the last
    # bit.  Reference: the sum of each full-width expression over [N, 2N)
    cfg = WeightConfig(H=AdmissibleTuple((0, 2, 6)), l=1, R=R)
    spec = StarSetSpec(N=N, r=2, eps=0.3)
    t = build_factor_table(N, 2 * N + 6)
    w = lambda_r_batch(N, 2 * N, cfg, t)
    smask = star_mask(spec, t)
    wide = {h: wide_reference(N, h, t, smask) for h in cfg.H.offsets}
    hits = sum(wide.values())
    assert moment_lemma1(N, cfg, t).empirical == float((w * w).sum())
    assert moment_lemma2(N, cfg, 2, t).empirical == float((w * w * (t.omega[2 : 2 + N] == 1)).sum())
    assert moment_lemma3(N, cfg, 6, spec, t).empirical == float((w * w * wide[6]).sum())
    rep = s_statistic(N, cfg, spec, t)
    assert rep.empirical == float(((hits - 1.0) * w * w).sum())
    assert rep.extra["multi_hit_count"] == int((hits >= 2).sum()) > 0


def test_each_piece_reads_one_target_mask(moment_setup, monkeypatch):
    # one core, so every piece runs in the caller: at CHUNK = 1000 the ten
    # pieces each sieve [N + a, N + a + 1000 + max shift) once; the passed
    # table is read only by the coverage check; Lemma 1 reads no targets
    N, cfg, t = moment_setup
    spec = StarSetSpec(N=N, r=2, eps=0.3)
    spans, span = [], sieve.FactorTable.span
    monkeypatch.setattr(sieve.FactorTable, "span", lambda self, lo, hi: spans.append((lo, hi)) or span(self, lo, hi))
    windows, window = [], sieve.prime_window

    def logged(lo, hi):  # primes_up_to sieves its segments from 0 through it too
        if lo >= N:
            windows.append((lo, hi))
        return window(lo, hi)

    monkeypatch.setattr(sieve, "prime_window", logged)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(sieve, "CHUNK", 1000)
    for call, top in ((lambda: moment_lemma1(N, cfg, t), None), (lambda: moment_lemma2(N, cfg, 2, t), 2),
                      (lambda: moment_lemma3(N, cfg, 2, spec, t), 2), (lambda: s_statistic(N, cfg, spec, t), 6)):
        spans.clear()
        windows.clear()
        call()
        assert spans == [(N, 2 * N + 6)]
        assert windows == ([] if top is None else [(N + a, N + a + 1000 + top) for a in range(0, N, 1000)])


def _peak_bytes(fn, *args) -> int:
    """tracemalloc peak of one call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_window_layers_hold_no_float_array_of_window_size():
    # doubling N from 2^21 to 2^22 may grow the peak of a returned mask by
    # its bool (1 byte per integer) but by no N-sized float64 or int16 array;
    # the counts and moment sums hold only chunk-sized buffers, so theirs
    # grow by less than 0.1 B per integer
    peaks = {}
    for N in (2**21, 2**22):
        t = build_factor_table(N, 2 * N + 9)
        cfg = WeightConfig(H=AdmissibleTuple((0, 2, 6)), l=1, R=N**0.25)
        spec = StarSetSpec(N=N, r=2, eps=0.3)
        peaks[N] = {
            "star_mask": _peak_bytes(star_mask, spec, t),
            "balanced_mask": _peak_bytes(balanced_mask, N, 2, 0.3, t),
            "count_star": _peak_bytes(count_star, spec, t),
            "count_eps_r": _peak_bytes(count_eps_r, N, 2, 0.3, t),
            "moment_lemma1": _peak_bytes(moment_lemma1, N, cfg, t),
            "moment_lemma2": _peak_bytes(moment_lemma2, N, cfg, 2, t),
            "moment_lemma3": _peak_bytes(moment_lemma3, N, cfg, 2, spec, t),
            "s_statistic": _peak_bytes(s_statistic, N, cfg, spec, t),
        }
        del t
    for name, small in peaks[2**21].items():
        allowance = 2.0 if name.endswith("_mask") else 0.1
        assert (peaks[2**22][name] - small) / 2**21 < allowance, (name, peaks)
