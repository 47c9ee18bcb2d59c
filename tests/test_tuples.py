import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import density
from primegaps.sieve import primes_up_to
from primegaps.tuples import (
    AdmissibleTuple,
    GpyConstantsQuery,
    generate_tuple,
    gpy_constants,
    is_admissible,
    min_k_for_two,
    nu_p,
    positivity_factor,
    read_tuple_file,
    singular_series,
)

TWIN_CONSTANT = 1.3203236316  # 2 * C_2, product over odd primes of 1 - 1/(p-1)^2


def test_tuple_validation():
    with pytest.raises(ValueError):
        AdmissibleTuple(())
    with pytest.raises(ValueError):
        AdmissibleTuple((0, 2, 2))
    with pytest.raises(ValueError):
        AdmissibleTuple((-2, 0))
    t = AdmissibleTuple((0, 2, 6))
    assert t.k == 3 and t.diameter == 6


def test_nu_p_examples():
    H = AdmissibleTuple((0, 2, 6))
    assert nu_p(H, 5) == 3
    assert nu_p(H, 3) == 2
    assert nu_p(AdmissibleTuple((0,)), 7) == 1


def test_admissibility_examples():
    assert is_admissible(AdmissibleTuple((0, 2, 6)))
    assert not is_admissible(AdmissibleTuple((0, 1)))
    assert is_admissible(AdmissibleTuple((0,)))


def test_singular_series_examples():
    assert singular_series(AdmissibleTuple((0,)), 10**4).value == 1.0
    assert singular_series(AdmissibleTuple((0, 1)), 10**4).value == 0.0
    s = singular_series(AdmissibleTuple((0, 2)), 10**6)
    assert math.isclose(s.value, TWIN_CONSTANT, rel_tol=1e-7)
    assert math.isclose(s.value, 1.320324, abs_tol=1e-6)


def test_singular_series_truncation_stability():
    H = AdmissibleTuple((0, 4, 6, 10))
    for p_max in (10**4, 10**5):
        a = singular_series(H, p_max)
        b = singular_series(H, 2 * p_max)
        assert abs(math.log(b.value / a.value)) < a.tail_log_bound


def test_generate_tuple_small_cases():
    assert generate_tuple(1).offsets == (0,)
    assert generate_tuple(2).offsets == (0, 2)
    assert generate_tuple(3).offsets == (0, 2, 6)
    t6 = generate_tuple(6)
    assert t6.k == 6 and is_admissible(t6)
    assert t6.diameter >= 16


def _minimal_diameter(k):
    """Exhaustive minimal-diameter oracle for small k."""
    d = k - 1
    while True:
        for mid in itertools.combinations(range(1, d), k - 2):
            cand = AdmissibleTuple((0,) + mid + (d,))
            if is_admissible(cand):
                return d
        d += 1


def test_generated_diameter_matches_minimum_for_small_k():
    for k in range(2, 7):
        assert generate_tuple(k).diameter == _minimal_diameter(k)


def test_generate_tuple_deterministic_and_admissible():
    for k in (1, 5, 12, 25):
        a, b = generate_tuple(k), generate_tuple(k)
        assert a.offsets == b.offsets
        assert a.offsets[0] == 0 and a.k == k
        assert is_admissible(a)


def test_gpy_constants():
    assert gpy_constants(GpyConstantsQuery(theta=0.55))[0] == 441
    assert gpy_constants(GpyConstantsQuery(theta=1.0))[0] == 9
    k0, c = gpy_constants(GpyConstantsQuery(theta=0.55))
    assert math.isclose(c, 2 / 0.05**2 * math.log(1 / 0.05), rel_tol=1e-12)
    with pytest.raises(ValueError):
        GpyConstantsQuery(theta=0.5)


def test_positivity_factor_examples():
    assert math.isclose(
        positivity_factor(100, 5, 0.4014), 100 / 111 * 11 / 12 * 1.4014 - 1, rel_tol=1e-12
    )
    assert math.isclose(positivity_factor(100, 5, 0.4014), 0.157, abs_tol=1e-3)
    assert positivity_factor(1, 0, 10.0) == 1.75


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=0, max_value=1000))
def test_positivity_factor_negative_without_density_boost(k, l):
    assert positivity_factor(k, min(l, k), 0.0) < 0


def test_min_k_for_two_reference_scan():
    res = min_k_for_two(2, 0.2, k_cap=200)
    assert res is not None
    # independent exhaustive scan over k <= 200, l <= k
    c0v = 2 * math.log(1.1 / 0.9)
    expect = None
    for k in range(1, 201):
        for l in range(0, k + 1):
            if k / (k + 2 * l + 1) * (2 * l + 1) / (2 * l + 2) * (1 + c0v) - 1 > 0:
                expect = (k, l)
                break
        if expect:
            break
    assert (res.k0, res.l_star) == expect == (30, 2)


def test_min_k_nonincreasing_in_eps():
    ks = [min_k_for_two(2, eps, k_cap=100_000).k0 for eps in (0.05, 0.1, 0.2, 0.3)]
    assert all(b <= a for a, b in zip(ks, ks[1:]))
    assert min_k_for_two(2, 0.3, 200).k0 <= min_k_for_two(2, 0.2, 200).k0


def _random_tuple(rng, k):
    offs = sorted(rng.sample(range(0, 60), k))
    return AdmissibleTuple(tuple(o - offs[0] for o in offs))


def test_admissible_iff_nonzero_series():
    rng = random.Random(7)
    for _ in range(100):
        H = _random_tuple(rng, rng.randint(1, 10))
        s = singular_series(H, 10**4)
        assert is_admissible(H) == (s.value != 0.0)


def test_translation_invariance():
    rng = random.Random(11)
    for _ in range(25):
        H = _random_tuple(rng, rng.randint(2, 8))
        c = rng.randint(1, 50)
        Hc = AdmissibleTuple(tuple(h + c for h in H.offsets))
        for p in (2, 3, 5, 7, 11, 13):
            assert nu_p(H, p) == nu_p(Hc, p)
        a = singular_series(H, 10**4).value
        b = singular_series(Hc, 10**4).value
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_nu_p_saturates_for_large_p():
    H = AdmissibleTuple((0, 2, 6, 8))
    for p in (11, 101, 997):
        assert nu_p(H, p) == H.k


def test_tuple_file_roundtrip(tmp_path):
    path = tmp_path / "tuples.txt"
    ts = [generate_tuple(k) for k in (2, 3, 6)]
    path.write_text("# test tuples\n" + "".join(",".join(map(str, t.offsets)) + "\n" for t in ts))
    back = read_tuple_file(path)
    assert [t.offsets for t in back] == [t.offsets for t in ts]
    # comments and blank lines are ignored
    path.write_text("# comment\n\n0,2,6  # trailing\n")
    assert read_tuple_file(path)[0].offsets == (0, 2, 6)
