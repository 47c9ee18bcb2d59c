import math
import tracemalloc

import pytest
from scipy import integrate
from scipy.fft import next_fast_len

from oracles import c0_r2, c0_r3  # perfbench/oracles.py, on the path via conftest.py
from primegaps.density import (
    R_MAX,
    _GRIDS,
    _smooth_len,
    c0,
    c0_monte_carlo,
    c0_tail_sum,
    c0_upper_bound,
)

# pinned by adaptive quadrature, cross-checked by Monte Carlo below
C0_3_01 = 0.0225234703676394

# float.hex(c0(r, 0.3).value) for r = 2..8 with FFT lengths from scipy.fft.next_fast_len
C0_HEX_03 = ("0x1.35891deb9a3b1p-1", "0x1.a2a861b67df29p-3", "0x1.2af43bd01ae2bp-4",
             "0x1.945f803653489p-6", "0x1.0c5fbe0d1138fp-7", "0x1.5e6bcd5e7bf68p-9",
             "0x1.c484310933069p-11")


def test_smooth_len_matches_scipy():
    lengths = [*range(1, 20000), *(r * (m - 1) + 1 for r in range(2, R_MAX + 1) for m in _GRIDS)]
    assert [_smooth_len(n) for n in lengths] == [next_fast_len(n, real=True) for n in lengths]


def test_c0_bits_pinned():
    assert tuple(float.hex(c0(r, 0.3).value) for r in range(2, 9)) == C0_HEX_03


def test_degenerate_box_is_zero():
    assert c0(2, 0.0).value == 0.0
    assert c0(3, 0.0).value == 0.0


def test_r2_closed_form_value():
    res = c0(2, 0.1)
    assert math.isclose(res.value, 2 * math.log(1.05 / 0.95), rel_tol=1e-15)
    assert math.isclose(res.value, 0.2001669171, rel_tol=1e-9)


def test_c0_matches_r2_closed_form():
    for eps in (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.9):
        assert abs(c0(2, eps).value - c0_r2(eps)) < 1e-13


def test_c0_matches_r3_quadrature():
    for eps in (0.01, 0.05, 0.1, 0.3, 0.5, 0.9):
        assert abs(c0(3, eps).value - c0_r3(eps)) < 1e-11


def _c0_r4_oracle(eps):
    """C0(4, eps) as the 1-D integral of F(t) F(1 - t), F = f * f in closed form."""
    a1, a2 = (1 - eps / 2) / 4, (1 + eps / 2) / 4

    def F(t):
        lo, hi = max(a1, t - a2), min(a2, t - a1)
        return (math.log(hi / (t - hi)) - math.log(lo / (t - lo))) / t

    val, _ = integrate.quad(
        lambda t: F(t) * F(1 - t), 2 * a1, 2 * a2, points=[a1 + a2], epsabs=0, epsrel=1e-13
    )
    return val


def test_c0_matches_r4_one_dimensional_oracle():
    for eps in (0.05, 0.3, 0.9):
        assert math.isclose(c0(4, eps).value, _c0_r4_oracle(eps), rel_tol=1e-12)


def test_c0_within_monte_carlo_bar():
    for r in range(5, 9):
        mc = c0_monte_carlo(r, 0.3)
        # abs_error_estimate is already 3 standard errors
        assert abs(c0(r, 0.3).value - mc.value) < mc.abs_error_estimate


def test_oversized_r_fails_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            c0(65, 0.1)
        with pytest.raises(ValueError):
            c0(1_000_000, 0.1)
        with pytest.raises(ValueError):
            c0_tail_sum(0.05, 65)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert 0 < c0(64, 0.5).value <= c0_upper_bound(64, 0.5)


def test_r3_quadrature_pinned_and_mc_crosscheck():
    quad = c0_r3(0.1)
    assert math.isclose(quad, C0_3_01, rel_tol=1e-9)
    mc = c0_monte_carlo(3, 0.1, samples=2_000_000, seed=1)
    # abs_error_estimate is already 3 standard errors
    assert abs(mc.value - quad) < 1.5 * mc.abs_error_estimate


def test_invalid_args():
    with pytest.raises(ValueError):
        c0(1, 0.1)
    with pytest.raises(ValueError):
        c0(2, 1.0)
    with pytest.raises(ValueError):
        c0_upper_bound(2, 0.0)


def test_upper_bound_examples():
    assert math.isclose(c0_upper_bound(2, 0.1), 0.2 / 0.95**2, rel_tol=1e-15)
    assert math.isclose(c0_upper_bound(2, 0.1), 0.221607, abs_tol=1e-6)
    assert math.isclose(c0_upper_bound(3, 0.1), 0.03 / 0.95**3, rel_tol=1e-15)
    assert math.isclose(c0_upper_bound(3, 0.1), 0.0349905, abs_tol=1e-6)
    assert c0_upper_bound(2, 1e-9) < 1e-8


def test_value_below_upper_bound_on_grid():
    for r in range(2, 9):
        for i in range(1, 21):
            eps = 0.2 * i / 20
            assert c0(r, eps).value <= c0_upper_bound(r, eps)


def test_strictly_increasing_in_eps():
    for r in range(2, 9):
        grid = [c0(r, 0.05 * i).value for i in range(0, 11)]
        assert all(b > a for a, b in zip(grid, grid[1:]))


def test_tail_sum_examples():
    total, tail = c0_tail_sum(0.05, 6)
    assert total + tail < 0.15
    total, tail = c0_tail_sum(0.01, 8)
    assert math.isclose(total, c0(2, 0.01).value, rel_tol=2e-2)  # r = 2 dominates
    assert math.isclose(c0(2, 0.01).value, 0.0200002, abs_tol=2e-6)
    # shrinking eps drives the sum to zero
    t1, _ = c0_tail_sum(0.05, 4)
    t2, _ = c0_tail_sum(0.01, 4)
    assert t2 < t1


def test_tail_bound_dominates_true_tail():
    # the analytic tail bound must exceed the next explicit terms
    eps, r_max = 0.05, 4
    _, tail = c0_tail_sum(eps, r_max)
    explicit = sum(c0_upper_bound(r, eps) for r in range(r_max + 1, r_max + 6))
    assert tail >= explicit


def test_monte_carlo_deterministic():
    a = c0_monte_carlo(4, 0.2, samples=100_000, seed=7)
    b = c0_monte_carlo(4, 0.2, samples=100_000, seed=7)
    assert a.value == b.value
