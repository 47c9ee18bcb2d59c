"""The star-set density constant C0(r, eps), its upper bound and tail sum.

C0(r, eps) is the integral of 1/(a_1 ... a_{r-1} (1 - sum a_i)) over the
box [a1, a2]^{r-1}, restricted by the indicator a1 <= 1 - sum a_i <= a2
(the last prime exponent must land in the same interval as the others;
for r = 2 the restriction is automatic since a1 + a2 = 1).  That is
f^{*r}(1) for f(a) = 1/a on [a1, a2], which `c0` evaluates for every r by
the FFT r-th power of f sampled at cell midpoints (1 is the centre node
for an odd cell count) and one Richardson step between two grids.  A
seeded Monte Carlo estimate stays as a cross-check; the r = 2 closed form
and the r = 3 integral that `c0` is checked against live outside the
package, in perfbench/oracles.py.  f is bounded on [a1, a2] for eps < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

R_MAX = 64  # no integer below 2**64 has more prime factors
_GRIDS = (2001, 6003)  # odd cell counts; their ratio 3 sets the Richardson divisor 3**2 - 1
_MC_CHUNK = 1 << 19


@dataclass(frozen=True)
class DensityResult:
    """C0(r, eps) and an error figure.

    For `c0`, abs_error_estimate is the Richardson correction |fine - coarse|/8:
    the error of the fine grid alone, 5-6 orders above that of the returned
    value (1.3e-10 at r = 2, eps = 0.3, where the value is within 1e-16).
    """

    r: int
    eps: float
    value: float
    abs_error_estimate: float


def check_args(r: int, eps: float) -> None:
    """Raise ValueError unless 2 <= r <= R_MAX and 0 <= eps < 1."""
    if not 2 <= r <= R_MAX:
        raise ValueError(f"density constant needs 2 <= r <= {R_MAX}, got r={r}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"need eps in [0, 1), got eps={eps}")


def _bounds(r: int, eps: float) -> tuple[float, float]:
    return (1.0 - eps / 2.0) / r, (1.0 + eps / 2.0) / r


def c0_monte_carlo(r: int, eps: float, samples: int = 2_000_000, seed: int = 0) -> DensityResult:
    """C0 by seeded Monte Carlo over the (r-1)-dimensional box.

    Sampling is chunked in a fixed order with one PCG64 stream, so the
    result is deterministic for a given (samples, seed).
    """
    check_args(r, eps)
    if eps == 0.0:
        return DensityResult(r, eps, 0.0, 0.0)
    a1, a2 = _bounds(r, eps)
    dim = r - 1
    volume = (a2 - a1) ** dim
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        u = rng.uniform(a1, a2, size=(m, dim))
        last = 1.0 - u.sum(axis=1)
        ok = (last >= a1) & (last <= a2)
        vals = np.zeros(m)
        if ok.any():
            vals[ok] = 1.0 / (np.prod(u[ok], axis=1) * last[ok])
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    std_err = volume * math.sqrt(var / samples)
    return DensityResult(r, eps, volume * mean, 3.0 * std_err)


def _midpoint_self_convolution(r: int, a1: float, a2: float, m: int) -> float:
    """f^{*r}(1) from f sampled at the midpoints of m cells of [a1, a2], m odd."""
    h = (a2 - a1) / m
    g = h / (a1 + h * (np.arange(m) + 0.5))
    n = r * (m - 1) + 1
    size = next_fast_len(n, real=True)
    # numpy's FFT keeps no plan cache, unlike scipy's (~4 MiB for r <= 8)
    return float(np.fft.irfft(np.fft.rfft(g, size) ** r, size)[n // 2]) / h


def c0(r: int, eps: float, *, seed: int | None = None) -> DensityResult:
    """C0(r, eps) = f^{*r}(1) by FFT; deterministic, so `seed` is accepted and ignored."""
    check_args(r, eps)
    if eps == 0.0:
        return DensityResult(r, eps, 0.0, 0.0)
    a1, a2 = _bounds(r, eps)
    coarse, fine = (_midpoint_self_convolution(r, a1, a2, m) for m in _GRIDS)
    correction = (fine - coarse) / 8.0
    return DensityResult(r, eps, fine + correction, abs(correction))


def c0_upper_bound(r: int, eps: float) -> float:
    """The elementary bound r * eps^(r-1) / (1 - eps/2)^r."""
    if r < 2:
        raise ValueError(f"need r >= 2, got r={r}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"need eps in (0, 1), got eps={eps}")
    return r * eps ** (r - 1) / (1.0 - eps / 2.0) ** r


def _upper_bound_tail(eps: float, r_max: int) -> float:
    """Closed form for sum_{r > r_max} r * eps^(r-1) / (1 - eps/2)^r."""
    y = eps / (1.0 - eps / 2.0)
    if y >= 1.0:
        raise ValueError(f"tail series diverges for eps={eps}")
    m = r_max + 1
    # sum_{r >= m} r y^r = y^m (m - (m-1) y) / (1-y)^2
    series = y**m * (m - (m - 1) * y) / (1.0 - y) ** 2
    return series / eps


def c0_tail_sum(eps: float, r_max: int) -> tuple[float, float]:
    """Sum of C0(r, eps) for r = 2..r_max, plus an analytic bound on the rest.

    The tail bound comes from the elementary upper bound summed in closed
    form.  For eps <= 0.05 the combined value is checked against the 3*eps
    budget that makes the balanced composites negligible next to the primes.
    """
    if not 0.0 < eps <= 0.1:
        raise ValueError(f"tail sum is asserted for eps in (0, 0.1], got {eps}")
    if not 3 <= r_max <= R_MAX:
        raise ValueError(f"need 3 <= r_max <= {R_MAX}, got {r_max}")
    total = math.fsum(c0(r, eps).value for r in range(2, r_max + 1))
    tail = _upper_bound_tail(eps, r_max)
    if eps <= 0.05 and not total + tail < 3.0 * eps:
        raise ArithmeticError(
            f"density tail budget violated: sum={total} tail={tail} vs 3*eps={3 * eps}"
        )
    return total, tail
