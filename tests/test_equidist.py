import math
import os

import numpy as np
import pytest

from primegaps import balanced, cli, equidist, sieve
from primegaps.balanced import StarSetSpec, count_star, star_mask
from primegaps.density import c0
from primegaps.equidist import (
    STAR_SET_WINDOW,
    DiscrepancyConfig,
    bv_prime_discrepancy,
    bv_star_discrepancy,
    weighted_discrepancy,
)
from primegaps.sieve import build_factor_table, log_integral, primes_up_to

# pinned totals, cross-checked by the structural tests below
BV_PRIME_1E5_Q50 = 893.3927885
BV_STAR_1E5_Q50 = 30841.48836
BV_MOBIUS_1E5_Q20 = 5996.08824


def test_config_validation():
    with pytest.raises(ValueError):
        DiscrepancyConfig(N=100, q_max=0)
    with pytest.raises(ValueError):
        DiscrepancyConfig(N=100, q_max=10, target="nope")
    with pytest.raises(ValueError):
        DiscrepancyConfig(N=100, q_max=10, target=STAR_SET_WINDOW)
    with pytest.raises(ValueError):
        DiscrepancyConfig(N=100, q_max=100)
    # the star set too: a q_max past the window would cost one pass per top
    with pytest.raises(ValueError, match="must stay below N"):
        DiscrepancyConfig(N=100, q_max=100, target=STAR_SET_WINDOW, spec=StarSetSpec(N=100, r=2, eps=0.3))
    # a star spec over another window base would silently count that window
    with pytest.raises(ValueError, match="window base"):
        DiscrepancyConfig(N=50, q_max=5, target=STAR_SET_WINDOW, spec=StarSetSpec(N=1000, r=2, eps=0.3))


def test_prime_rows_small_moduli(table_full_1e5):
    N = 10**5
    cfg = DiscrepancyConfig(N=N, q_max=50)
    rep = bv_prime_discrepancy(cfg, table_full_1e5)
    ps = [int(p) for p in primes_up_to(N)]
    li = log_integral(N)
    # q = 1: single class, deviation |pi(N) - Li(N)|
    assert rep.per_q[0].q == 1
    assert math.isclose(rep.per_q[0].max_abs_dev, abs(len(ps) - li), rel_tol=1e-12)
    # q = 2: only class 1 is coprime; count odd primes by hand
    odd = sum(1 for p in ps if p % 2 == 1)
    assert rep.per_q[1].worst_a == 1
    assert math.isclose(rep.per_q[1].max_abs_dev, abs(odd - li / 1), rel_tol=1e-12)
    # q = 3 by hand
    c1 = sum(1 for p in ps if p % 3 == 1)
    c2 = sum(1 for p in ps if p % 3 == 2)
    expect = max(abs(c1 - li / 2), abs(c2 - li / 2))
    assert math.isclose(rep.per_q[2].max_abs_dev, expect, rel_tol=1e-12)
    assert math.isclose(rep.total, math.fsum(r.max_abs_dev for r in rep.per_q), rel_tol=1e-15)
    assert math.isclose(rep.total, BV_PRIME_1E5_Q50, abs_tol=5e-4)


def test_prime_partition_identity(table_full_1e5):
    # per-class counts partition the primes for every q
    N = 10**5
    ps = np.array([int(p) for p in primes_up_to(N)])
    for q in (2, 6, 30, 47):
        counts = np.bincount(ps % q, minlength=q)
        assert counts.sum() == len(ps)
        # non-coprime classes hold only the primes dividing q
        for a in range(q):
            if math.gcd(a, q) > 1:
                assert counts[a] == sum(1 for p in ps if p % q == a and q % p == 0)


def test_prime_total_monotone_in_q_max(table_full_1e5):
    N = 10**5
    t20 = bv_prime_discrepancy(DiscrepancyConfig(N=N, q_max=20), table_full_1e5).total
    t50 = bv_prime_discrepancy(DiscrepancyConfig(N=N, q_max=50), table_full_1e5).total
    assert t50 > t20 > 0


def test_prime_scale_sanity(table_full_1e4, table_full_1e6):
    # the log-power rule q_max = sqrt(N) / ln^3 N is 0.13 at N = 1e4 and
    # 0.38 at 1e6, so its clamp to at least 1 sets q_max = 1 at both N;
    # q_max = 10 and 100 at N = 1e6 cover moduli where no clamp acts.  Each
    # total stays far below the trivial bound q_max * pi(N).
    cases = [(N, t, max(1, int(math.sqrt(N) / math.log(N) ** 3)))
             for N, t in ((10**4, table_full_1e4), (10**6, table_full_1e6))]
    cases += [(10**6, table_full_1e6, qm) for qm in (10, 100)]
    for N, t, qm in cases:
        rep = bv_prime_discrepancy(DiscrepancyConfig(N=N, q_max=qm), t)
        pi_n = int((t.omega[: N - t.lo + 1] == 1).sum())
        assert rep.total < 0.05 * qm * pi_n


def test_star_counts_check_r_before_the_window_scan(table_win_1e4, monkeypatch):
    def no_scan(spec, table=None):
        raise AssertionError("sieved the primes of the star set")

    monkeypatch.setattr(balanced, "_star_primes", no_scan)
    N = 10**4
    spec = StarSetSpec(N=N, r=65, eps=0.3)
    with pytest.raises(ValueError, match="2 <= r <= 64"):
        count_star(spec, table_win_1e4)
    with pytest.raises(ValueError, match="2 <= r <= 64"):
        bv_star_discrepancy(DiscrepancyConfig(N=N, q_max=10, target=STAR_SET_WINDOW, spec=spec), table_win_1e4)


def test_star_discrepancy_counts_match_count_star(table_win_1e5):
    N = 10**5
    spec = StarSetSpec(N=N, r=2, eps=0.3)
    cfg = DiscrepancyConfig(N=N, q_max=50, target=STAR_SET_WINDOW, spec=spec)
    rep = bv_star_discrepancy(cfg, table_win_1e5)
    count, _ = count_star(spec, table_win_1e5)
    # q = 1: the single class holds the whole set
    assert math.isclose(
        rep.per_q[0].max_abs_dev, abs(count - rep.per_q[0].main_term), rel_tol=1e-12
    )
    assert rep.per_q[0].alt_max_abs_dev is not None
    assert math.isclose(rep.total, BV_STAR_1E5_Q50, abs_tol=5e-3)
    with pytest.raises(ValueError):
        bv_star_discrepancy(DiscrepancyConfig(N=N, q_max=10), table_win_1e5)
    with pytest.raises(ValueError):
        bv_prime_discrepancy(cfg, table_win_1e5)


def test_prime_discrepancies_read_no_table(table_full_1e4, table_win_1e4):
    # the primes <= N come from a prime sieve; a table, when given, is only range-checked
    cfg = DiscrepancyConfig(N=10**4, q_max=30)
    f = np.cos(np.arange(1, 101))
    assert bv_prime_discrepancy(cfg) == bv_prime_discrepancy(cfg, table_full_1e4)
    assert weighted_discrepancy(cfg, 0.5, f) == weighted_discrepancy(cfg, 0.5, f, table_full_1e4)
    with pytest.raises(ValueError, match="does not cover"):
        bv_prime_discrepancy(cfg, table_win_1e4)
    with pytest.raises(ValueError, match="does not cover"):
        weighted_discrepancy(cfg, 0.5, f, table_win_1e4)


def test_weighted_zero_coefficients(table_full_1e4):
    N = 10**4
    cfg = DiscrepancyConfig(N=N, q_max=10)
    m_max = int(N**0.5)
    rep = weighted_discrepancy(cfg, 0.5, np.zeros(m_max), table_full_1e4)
    assert rep.total == 0.0


def test_weighted_m1_reduces_to_prime_case(table_full_1e4):
    # alpha close to 1 gives m_max = 1 and f(1) = 1: the weighted sum is the
    # plain prime discrepancy with main term Li(N)/phi(q)
    N = 10**4
    cfg = DiscrepancyConfig(N=N, q_max=15)
    wrep = weighted_discrepancy(cfg, 0.999, np.ones(1), table_full_1e4)
    prep = bv_prime_discrepancy(cfg, table_full_1e4)
    for wr, pr in zip(wrep.per_q, prep.per_q):
        assert math.isclose(wr.max_abs_dev, pr.max_abs_dev, rel_tol=1e-10)
    assert math.isclose(wrep.total, prep.total, rel_tol=1e-10)


def test_weighted_validation(table_full_1e4):
    N = 10**4
    cfg = DiscrepancyConfig(N=N, q_max=5)
    with pytest.raises(ValueError):
        weighted_discrepancy(cfg, 1.5, np.ones(10), table_full_1e4)
    with pytest.raises(ValueError):
        weighted_discrepancy(cfg, 0.5, np.ones(3), table_full_1e4)  # too short
    bad = np.ones(int(N**0.5))
    bad[0] = 2.0
    with pytest.raises(ValueError):
        weighted_discrepancy(cfg, 0.5, bad, table_full_1e4)
    # a star-set config is refused, not silently read as the primes <= N
    star = DiscrepancyConfig(N=N, q_max=5, target=STAR_SET_WINDOW,
                             spec=StarSetSpec(N=N, r=2, eps=0.3))
    with pytest.raises(ValueError, match="config target must be primes_le_N"):
        weighted_discrepancy(star, 0.5, np.ones(int(N**0.5)), table_full_1e4)


def test_weighted_mobius_pinned(table_full_1e5):
    from primegaps.sieve import factorize, mobius

    N = 10**5
    m_max = int(N**0.5)
    ft = build_factor_table(2, m_max + 1)
    f = np.array([1.0] + [float(mobius(factorize(ft, m))) for m in range(2, m_max + 1)])
    cfg = DiscrepancyConfig(N=N, q_max=20)
    rep = weighted_discrepancy(cfg, 0.5, f, table_full_1e5)
    assert math.isclose(rep.total, BV_MOBIUS_1E5_Q20, abs_tol=5e-3)


def test_weighted_hand_check_q3(table_full_1e4):
    # recompute the q = 3 row of a two-term weighted sum from scratch
    N = 10**4
    f = np.zeros(100)
    f[0], f[2] = 1.0, -0.5  # f(1) = 1, f(3) = -1/2
    cfg = DiscrepancyConfig(N=N, q_max=3)
    rep = weighted_discrepancy(cfg, 0.5, f, table_full_1e4)
    ps = [int(p) for p in primes_up_to(N)]
    li = log_integral
    best = -1.0
    for a in (1, 2):
        s = sum(1 for p in ps if p % 3 == a) - li(N) / 2
        # m = 3 shares a factor with q: primes drop out, main term stays
        s -= -0.5 * li(N / 3) / 2
        best = max(best, abs(s))
    assert math.isclose(rep.per_q[2].max_abs_dev, best, rel_tol=1e-10)


def _direct_rows(values, weights, q_max, main):
    """(q, worst_a, max_abs_dev, main_term) from a fresh bincount of values % q."""
    rows = []
    for q in range(1, q_max + 1):
        counts = np.bincount(values % q, weights=weights, minlength=q)
        coprime = [a for a in range(q) if math.gcd(a, q) == 1]
        term = main / len(coprime)
        devs = [abs(float(counts[a]) - term) for a in coprime]
        rows.append((q, coprime[devs.index(max(devs))], max(devs), term))
    return rows


@pytest.mark.parametrize("q_max, q_weighted", [(50, 15), (1, 1), (2, 2), (17, 17)])
def test_kernel_rows_match_direct_counts(
    q_max, q_weighted, table_full_1e4, table_full_1e5, table_win_1e5
):
    # rows from a full pass and rows folded down from a multiple of q alike
    # equal a recount without folding
    li, N = log_integral, 10**5
    rep = bv_prime_discrepancy(DiscrepancyConfig(N=N, q_max=q_max), table_full_1e5)
    rows = [(r.q, r.worst_a, r.max_abs_dev, r.main_term) for r in rep.per_q]
    assert rows == _direct_rows(np.array(primes_up_to(N)), None, q_max, li(N))

    spec = StarSetSpec(N=N, r=2, eps=0.3)
    cfg = DiscrepancyConfig(N=N, q_max=q_max, target=STAR_SET_WINDOW, spec=spec)
    rep = bv_star_discrepancy(cfg, table_win_1e5)
    members, c0v = N + np.flatnonzero(star_mask(spec, table_win_1e5)), c0(2, 0.3).value
    rows = [(r.q, r.worst_a, r.max_abs_dev, r.main_term) for r in rep.per_q]
    assert rows == _direct_rows(members, None, q_max, c0v * li(N))
    alt = _direct_rows(members, None, q_max, c0v * (li(2 * N) - li(N)))
    assert [(r.alt_max_abs_dev, r.alt_main_term) for r in rep.per_q] == [a[2:] for a in alt]

    # weighted, f(m) = cos m: class sums over the pairs (m, p) themselves
    N, f = 10**4, np.cos(np.arange(1, 101))
    rep = weighted_discrepancy(DiscrepancyConfig(N=N, q_max=q_weighted), 0.5, f, table_full_1e4)
    ps = np.array(primes_up_to(N))
    cuts = [int((ps <= N // m).sum()) for m in range(1, 101)]
    values = np.concatenate([m * ps[:c] for m, c in enumerate(cuts, start=1)])
    main = math.fsum(f[m - 1] * li(max(N / m, 2.0)) for m in range(1, 101))
    want = _direct_rows(values, np.repeat(f, cuts), q_weighted, main)
    for r, (q, a, dev, term) in zip(rep.per_q, want, strict=True):
        assert (r.q, r.worst_a) == (q, a)
        assert math.isclose(r.max_abs_dev, dev, rel_tol=1e-9)
        assert math.isclose(r.main_term, term, rel_tol=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.05])
def test_weighted_scatter_equals_the_loop_over_m(table_full_1e5, monkeypatch, alpha):
    # reference: g(n) built by one fancy-index add per m with f(m) != 0, in
    # ascending m; at BLOCK = 1000 the pairs of one m straddle the scatter's blocks
    N = 10**5
    m_max = int(N ** (1 - alpha))
    f = np.cos(np.arange(1, m_max + 1))
    f[::7] = 0.0
    ps = np.array(primes_up_to(N))
    g = np.zeros(N + 1)
    for m, fm in enumerate(f.tolist(), start=1):
        if fm:
            g[m * ps[: np.searchsorted(ps, N // m, side="right")]] += fm
    seen, sums = [], equidist._class_sums

    def recorded(dense, q):
        seen.append(dense)
        return sums(dense, q)

    monkeypatch.setattr(equidist, "_class_sums", recorded)
    monkeypatch.setattr(sieve, "BLOCK", 1000)
    weighted_discrepancy(DiscrepancyConfig(N=N, q_max=10), alpha, f, table_full_1e5)
    # each of the five tops 6..10 sums that g, in place
    assert len(seen) == 5 and all(x is seen[0] for x in seen)
    assert seen[0].tobytes() == g.tobytes()


def test_class_sums_equal_bincount_of_remainders():
    # the class sums of a dense g add each class in increasing n, as
    # bincount over n % q does, so every bit agrees; q = 1 runs over more
    # than two sieve.BLOCKs, where numpy's own sum of one column is pairwise
    rng = np.random.default_rng(7)
    size = 2 * sieve.BLOCK + 12345
    g = rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)
    g[rng.random(size) < 0.4] = 0.0
    n = np.arange(size)
    for q in (*range(1, 71), 128, 997, 1000, 4096):
        got = equidist._class_sums(g, q)
        assert got.tobytes() == np.bincount(n % q, weights=g, minlength=q).tobytes(), q


@pytest.mark.parametrize("q_max, total", [(1, 9.523503831481094), (2, 21566.573800883787),
                                          (7, 73765.33226885808)])
def test_weighted_cos_totals_pinned(q_max, total):
    # f(m) = cos m at N = 1e6: the totals of the residue bincount over g's
    # support, which the class sums of the dense g reproduce bit for bit
    rep = weighted_discrepancy(DiscrepancyConfig(N=10**6, q_max=q_max), 0.5, np.cos(np.arange(1, 1001)))
    assert rep.total == total


def test_coprime_classes_equal_those_of_gcd():
    # a prime near 1e6, 2^20, the primorial 510510 and the square 997^2
    for q in (*range(1, 5001), 999983, 1 << 20, 510510, 997**2):
        want = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
        assert np.array_equal(equidist._coprime_classes(q), want), q


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_per_class_counts_equal_bincount_of_remainders(dtype):
    # residues by scalar division equal values % q for positive values, up
    # to the largest int32
    rng = np.random.default_rng(0)
    top = np.iinfo(np.int32).max
    values = np.concatenate([np.arange(1, 300), rng.integers(1, top, 5000, endpoint=True),
                             np.arange(top - 300, top + 1)]).astype(dtype)
    for q in (1, 2, 3, 30, 997, 1000, 65536, 10**6 + 3):
        got = equidist._per_class_counts(values, q)
        assert np.array_equal(got, np.bincount(values % q, minlength=q)), q


def _spy_forks(monkeypatch) -> list:
    """Patch sieve._in_two to record the item count of every call that may fork, then run it."""
    calls, in_two = [], sieve._in_two

    def spy(job, items):
        if len(items) >= 2:
            calls.append(len(items))
        return in_two(job, items)

    monkeypatch.setattr(sieve, "_in_two", spy)
    return calls


@pytest.mark.parametrize("cpus", [None, {0}])
def test_forked_kernel_rows_match_direct_counts(cpus, table_full_1e6, table_win_1e6, monkeypatch):
    # at N = 1e6 every call below covers more than SEGMENT residues, so its
    # tops are shared with a forked child when two cores are free; on one
    # core they run inline.  Both give the rows of a recount without folding.
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    forks = _spy_forks(monkeypatch)
    li, N = log_integral, 10**6
    ps = np.array(primes_up_to(N))
    rep = bv_prime_discrepancy(DiscrepancyConfig(N=N, q_max=1000), table_full_1e6)
    rows = [(r.q, r.worst_a, r.max_abs_dev, r.main_term) for r in rep.per_q]
    assert rows == _direct_rows(ps, None, 1000, li(N))

    spec = StarSetSpec(N=N, r=2, eps=0.3)
    cfg = DiscrepancyConfig(N=N, q_max=1000, target=STAR_SET_WINDOW, spec=spec)
    rep = bv_star_discrepancy(cfg, table_win_1e6)
    members, c0v = N + np.flatnonzero(star_mask(spec, table_win_1e6)), c0(2, 0.3).value
    want = _direct_rows(members, None, 1000, c0v * li(N))
    alt = _direct_rows(members, None, 1000, c0v * (li(2 * N) - li(N)))
    rows = [(r.q, r.worst_a, r.max_abs_dev, r.main_term, r.alt_max_abs_dev, r.alt_main_term)
            for r in rep.per_q]
    assert rows == [w + a[2:] for w, a in zip(want, alt)]

    # f = 1: g counts the pairs (m, p), so its class sums are exact integers
    rep = weighted_discrepancy(DiscrepancyConfig(N=N, q_max=30), 0.5, np.ones(1000), table_full_1e6)
    values = np.concatenate([m * ps[ps <= N // m] for m in range(1, 1001)])
    main = math.fsum(li(max(N / m, 2.0)) for m in range(1, 1001))
    rows = [(r.q, r.worst_a, r.max_abs_dev, r.main_term) for r in rep.per_q]
    assert rows == _direct_rows(values, None, 30, main)
    assert forks == [500, 500, 15]


def test_small_discrepancy_calls_do_not_fork(tmp_path, monkeypatch):
    # the N = 1e5 calls of the study benchmark: the discrepancy passes
    # cover at most 5e5 residues, the tables are under one CHUNK and the
    # moment windows are one chunk no longer than CHUNK // 2
    forks = _spy_forks(monkeypatch)
    N = ["--n-window", "100000"]
    star = ["--r", "2", "--eps", "0.3"]
    moment = [*N, "--k", "3", "--l", "1", "--big-r", repr((10**5) ** 0.25), *star]
    weight = [*N, "--k", "3", "--l", "1", "--big-r", repr((10**5) ** 0.5)]
    for argv in (["bv", *N, "--q-max", "100"], ["bv-star", *N, "--q-max", "100", *star],
                 ["bv-weighted", *N, "--q-max", "10", "--alpha", "0.5", "--f", "mobius"],
                 ["count-star", *N, *star], ["moments", "--variant", "lemma3", "--h", "2", *moment],
                 ["s-stat", *moment], ["weights", *weight], ["weights", *weight, "--format", "csv"]):
        assert cli.main([*argv, "--out", str(tmp_path / "out.json")]) == 0
    assert forks == []
