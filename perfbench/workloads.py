"""The benchmark workloads: inputs from a seed, one pass of calls, and checks.

A workload object makes its inputs from the seed in its constructor.
`run_pass` makes one closed-loop pass of calls into the package and
returns the raw result of every operation; `summarize` turns those into
small JSON values (done outside the timed region); `check` compares a
pass's summary with references that do not come from the code under
test, recording failures per operation in a `Checks`.

Seed 0 gives the pinned inputs of the package's acceptance tests
(N = 1e7, H = (0, 2, 6), l = 1, eps = 0.3); other seeds move N, H and
eps within ranges that keep the cost of a pass the same.

Functions are looked up on their modules at call time (`sieve.build_...`)
so that the tracer's wrappers are the ones called in a traced run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import defaultdict
from pathlib import Path

import numpy as np

import oracles
from primegaps import balanced, cli, density, equidist, sieve, tuples, weights

DEFAULT_SEED = 0
TIMESTAMP = "2026-01-01T00:00:00"

#: Pinned values of the default window (tests/test_acceptance.py).
PIN_STAR_COUNT = 147144
PIN_LEMMA1 = 372079576.594330


class Raised:
    """Marker for an operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def attempt(raw: dict, op: str, fn, *args, **kwargs):
    """Call fn, store its result (or a Raised marker) under op, return the result."""
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:  # a raising operation is counted as failed, not fatal
        raw[op] = Raised(exc)
        return None
    raw[op] = value
    return value


class Checks:
    """Output checks, failures kept per operation.

    With `perturb` set to an operation name, the first expected value
    checked for that operation is perturbed; the self-test uses this to
    show that a wrong expected value is counted as a failure.
    """

    def __init__(self, perturb: str | None = None):
        self.failures: dict[str, list[str]] = defaultdict(list)
        self.count = 0
        self.perturb = perturb

    def _want(self, op, want):
        if op == self.perturb and not isinstance(want, bool):
            self.perturb = None
            return want + 1 if isinstance(want, int) else want * (1 + 1e-6) + 1e-6
        return want

    def true(self, op: str, ok: bool, what: str) -> None:
        self.count += 1
        if not ok:
            self.failures[op].append(what)

    def equal(self, op: str, got, want, what: str) -> None:
        want = self._want(op, want)
        self.true(op, got == want, f"{what}: got {got!r}, want {want!r}")

    def close(self, op: str, got: float, want: float, what: str, rel=1e-9, abs_tol=0.0) -> None:
        want = self._want(op, want)
        ok = math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol)
        self.true(op, ok, f"{what}: got {got!r}, want {want!r}")


def _report(rep) -> dict:
    rows = [[r.q, r.worst_a, r.max_abs_dev, r.main_term, r.alt_max_abs_dev, r.alt_main_term]
            for r in rep.per_q]
    return {"total": rep.total, "main": rep.main_term_used, "rows": rows}


def _moment(rep) -> list:
    return [rep.empirical, rep.predicted_main_term, rep.ratio,
            rep.extra.get("multi_hit_count")]


class Workload:
    name = ""
    ops: tuple[str, ...] = ()
    perturb_op = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.state: dict = {}

    def summarize(self, raw: dict) -> dict:
        out = {}
        for op in self.ops:
            value = raw.get(op)
            if isinstance(value, Raised):
                out[op] = {"raised": value.text}
            elif value is None:
                out[op] = {"raised": "not run"}
            else:
                out[op] = self._summary(op, value)
        return json.loads(json.dumps(out))

    def check(self, summary: dict, checks: Checks) -> None:
        """Run every operation's checks; a check that raises fails its operation."""
        rng = random.Random(self.seed + 7919)
        for op in self.ops:
            got = summary[op]
            if isinstance(got, dict) and "raised" in got:
                checks.true(op, False, got["raised"])
                continue
            try:
                self.checker(op)(got, summary, checks, rng)
            except Exception as exc:  # the check itself failing counts against the operation
                checks.true(op, False, f"check raised {type(exc).__name__}: {exc}")

    def checker(self, op: str):
        return getattr(self, "check_" + op.replace("-", "_"))

    def pass_bytes(self, summary: dict) -> int:
        """Bytes of output files a pass wrote."""
        return 0

    def _check_factors(self, op, table, lo, hi, samples, checks, rng) -> None:
        for n in (rng.randrange(lo, hi) for _ in range(samples)):
            i = n - table.lo
            got = (int(table.omega[i]), int(table.p_minus[i]), int(table.p_plus[i]))
            checks.equal(op, got, oracles.factor_stats(n), f"(Omega, P-, P+) of {n}")

    def _check_mask(self, op, mask, N, member, checks, rng, samples=150) -> None:
        """Sample members of a mask over [N, 2N) and random n; compare with sympy."""
        idx = np.flatnonzero(mask)
        picks = [N + int(idx[j]) for j in rng.sample(range(len(idx)), min(samples, len(idx)))]
        picks += [rng.randrange(N, 2 * N) for _ in range(samples)]
        for n in picks:
            checks.equal(op, bool(mask[n - N]), member(n), f"membership of {n}")


# ------------------------------------------------------------------ window


class Window(Workload):
    """N = 1e7 over [N, 2N + 9): sieve, star and balance masks, moment sums."""

    name = "window"
    ops = ("build_factor_table", "count_star_r2", "count_star_r3", "count_eps_r",
           "moment_lemma1", "moment_lemma2", "moment_lemma3", "s_statistic")
    perturb_op = "count_star_r2"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        if seed == DEFAULT_SEED:
            self.N, self.H, self.eps = 10**7, (0, 2, 6), 0.3
        else:
            self.N = 10**7 + self.rng.randrange(1, 50_000)
            self.H = self.rng.choice(((0, 2, 6), (0, 4, 6)))
            self.eps = self.rng.choice((0.25, 0.3, 0.35))
        self.l, self.h = 1, self.H[1]
        self.R = self.N**0.25

    def run_pass(self) -> dict:
        self.state.clear()  # release the previous pass's table before building anew
        N = self.N
        cfg = weights.WeightConfig(H=tuples.AdmissibleTuple(self.H), l=self.l, R=self.R)
        spec2 = balanced.StarSetSpec(N=N, r=2, eps=self.eps)
        spec3 = balanced.StarSetSpec(N=N, r=3, eps=self.eps)
        raw: dict = {}
        table = attempt(raw, "build_factor_table", sieve.build_factor_table, N, 2 * N + 9)
        attempt(raw, "count_star_r2", balanced.count_star, spec2, table)
        attempt(raw, "count_star_r3", balanced.count_star, spec3, table)
        attempt(raw, "count_eps_r", balanced.count_eps_r, N, 2, self.eps, table)
        attempt(raw, "moment_lemma1", weights.moment_lemma1, N, cfg, table)
        attempt(raw, "moment_lemma2", weights.moment_lemma2, N, cfg, self.h, table)
        attempt(raw, "moment_lemma3", weights.moment_lemma3, N, cfg, self.h, spec2, table)
        attempt(raw, "s_statistic", weights.s_statistic, N, cfg, spec2, table)
        self.state.update(table=table, cfg=cfg, spec2=spec2, spec3=spec3)
        return raw

    def _summary(self, op, value):
        if op == "build_factor_table":
            return [value.lo, value.hi]
        if op.startswith("count_star"):
            return list(value)
        if op == "count_eps_r":
            return value
        return _moment(value)

    def check_build_factor_table(self, got, s, checks, rng):
        checks.equal("build_factor_table", got, [self.N, 2 * self.N + 9], "window bounds")
        table = self.state["table"]
        self._check_factors("build_factor_table", table, table.lo, table.hi, 200, checks, rng)

    def _check_star(self, op, r, spec, got, checks):
        N, eps = self.N, self.eps
        count, predicted = got
        if op == "count_star_r2" and self.seed == DEFAULT_SEED:
            checks.equal(op, count, PIN_STAR_COUNT, "pinned r=2 star count at N=1e7")
        members = self._members(r)
        checks.equal(op, count, len(members), "count of members found by prime-tuple enumeration")
        mask = balanced.star_mask(spec, self.state["table"])
        checks.true(op, np.array_equal(N + np.flatnonzero(mask), members),
                    "star mask equals the enumerated members")
        c0v = oracles.c0_r2(eps) if r == 2 else oracles.c0_r3(eps)
        checks.close(op, predicted, c0v * N / math.log(N), "prediction C0 N / ln N", rel=1e-8)

    def _members(self, r: int) -> np.ndarray:
        if ("members", r) not in self.state:
            self.state["members", r] = oracles.star_members(self.N, r, self.eps)
        return self.state["members", r]

    def check_count_star_r2(self, got, s, checks, rng):
        self._check_star("count_star_r2", 2, self.state["spec2"], got, checks)

    def check_count_star_r3(self, got, s, checks, rng):
        self._check_star("count_star_r3", 3, self.state["spec3"], got, checks)

    def check_count_eps_r(self, got, s, checks, rng):
        N, eps = self.N, self.eps
        checks.equal("count_eps_r", got, oracles.balanced_count_r2(N, eps, oracles.primes_below(N + 1)),
                     "exact count by prime-pair enumeration")
        mask = balanced.balanced_mask(N, 2, eps, self.state["table"])
        checks.equal("count_eps_r", got, int(mask.sum()), "count equals the balance mask population")
        self._check_mask("count_eps_r", mask, N, lambda n: oracles.is_balanced(n, 2, eps), checks, rng)
        star = s["count_star_r2"]
        if isinstance(star, list):
            checks.true("count_eps_r", star[0] <= got, "r=2 star set lies inside the balanced set")

    def _weights(self):
        """Batch weights of the window, checked once against the per-n oracles."""
        if "w" not in self.state:
            N, cfg, table = self.N, self.state["cfg"], self.state["table"]
            w = weights.lambda_r_batch(N, 2 * N, cfg, table)
            rng = random.Random(self.seed + 104729)
            bad = []
            for n in rng.sample(range(N, 2 * N), 30):
                if not math.isclose(w[n - N], weights.lambda_r_naive(n, cfg, table),
                                    rel_tol=1e-9, abs_tol=1e-12):
                    bad.append(f"lambda_r_batch != lambda_r_naive at n={n}")
            for n in rng.sample(range(N, 2 * N), 10):
                if not math.isclose(w[n - N], oracles.naive_weight(n, self.H, self.l, self.R),
                                    rel_tol=1e-9, abs_tol=1e-12):
                    bad.append(f"lambda_r_batch != definition at n={n}")
            self.state["w"], self.state["w_bad"] = w, bad
        return self.state["w"], self.state["w_bad"]

    def _prime(self, h: int) -> np.ndarray:
        """Primality of n + h for n in [N, 2N), from the benchmark's own sieve."""
        if "primes" not in self.state:
            self.state["primes"] = oracles.prime_mask(self.N, 2 * self.N + 9)
        return self.state["primes"][h : h + self.N]

    def _wide(self, h: int) -> np.ndarray:
        """Indicator of n + h prime or a star member, for n in [N, 2N), from oracles."""
        if "star" not in self.state:
            star = np.zeros(self.N + 9, dtype=bool)
            star[self._members(2) - self.N] = True
            self.state["star"] = star
        return self._prime(h) | self.state["star"][h : h + self.N]

    def _moment_common(self, op, checks):
        w, bad = self._weights()
        for msg in bad:
            checks.true(op, False, msg)
        if "w2" not in self.state:
            self.state["w2"] = w * w
        return self.state["w2"]

    def check_moment_lemma1(self, got, s, checks, rng):
        w2 = self._moment_common("moment_lemma1", checks)
        emp = got[0]
        if self.seed == DEFAULT_SEED:
            checks.close("moment_lemma1", emp, PIN_LEMMA1, "pinned Lemma-1 sum at N=1e7", rel=1e-9)
        checks.close("moment_lemma1", emp, float(np.sum(w2)), "sum of squared weights")
        model, bound = oracles.lemma1_model(self.N, self.H, self.l, self.R)
        checks.true("moment_lemma1", abs(emp - model) <= bound + 1e-9 * abs(model),
                    f"|{emp} - model {model}| within the counting bound {bound}")

    def check_moment_lemma2(self, got, s, checks, rng):
        w2 = self._moment_common("moment_lemma2", checks)
        want = float(np.sum(w2[self._prime(self.h)]))
        checks.close("moment_lemma2", got[0], want, "sum of squared weights at primes n + h")

    def check_moment_lemma3(self, got, s, checks, rng):
        w2 = self._moment_common("moment_lemma3", checks)
        want = float(np.sum(w2[self._wide(self.h)]))
        checks.close("moment_lemma3", got[0], want, "sum of squared weights at primes or star members")
        l2, l1 = s["moment_lemma2"], s["moment_lemma1"]
        if isinstance(l2, list) and isinstance(l1, list):
            checks.true("moment_lemma3", 0 < l2[0] <= got[0] <= l1[0], "Lemma 2 <= Lemma 3 <= Lemma 1")

    def check_s_statistic(self, got, s, checks, rng):
        w2 = self._moment_common("s_statistic", checks)
        hits = sum(self._wide(h).astype(np.int64) for h in self.H)
        want = float(np.sum((hits - 1) * w2))
        checks.close("s_statistic", got[0], want, "sum of (hits - 1) w^2",
                     rel=1e-9, abs_tol=1e-9 * float(np.sum(w2)))
        checks.equal("s_statistic", got[3], int((hits >= 2).sum()), "n with two or more hits")


# ------------------------------------------------------------------ moduli


class Moduli(Workload):
    """N = 1e6: per-modulus discrepancy loops and weights at R = N^(1/2)."""

    name = "moduli"
    ops = ("build_factor_table", "mobius_coefficients", "bv_prime_discrepancy",
           "bv_star_discrepancy", "weighted_const1", "weighted_mobius",
           "moment_lemma1_k3", "moment_lemma1_k6")
    perturb_op = "bv_prime_discrepancy"
    Q_BV, Q_WEIGHTED, ALPHA = 1000, 30, 0.5

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        if seed == DEFAULT_SEED:
            self.N, self.H, self.eps = 10**6, (0, 2, 6), 0.3
        else:
            self.N = 10**6 + self.rng.randrange(1, 5_000)
            self.H = self.rng.choice(((0, 2, 6), (0, 4, 6)))
            self.eps = self.rng.choice((0.25, 0.3, 0.35))
        self.R = self.N**0.5
        self.m_max = int(self.N ** (1.0 - self.ALPHA))
        self.hi = 2 * self.N + 17  # covers [2, N] and [N, 2N + 16] for k = 6

    def _mobius(self, table) -> np.ndarray:
        return np.array([1.0] + [float(sieve.mobius(sieve.factorize(table, m)))
                                 for m in range(2, self.m_max + 1)])

    def run_pass(self) -> dict:
        self.state.clear()
        N = self.N
        spec = balanced.StarSetSpec(N=N, r=2, eps=self.eps)
        bv_cfg = equidist.DiscrepancyConfig(N=N, q_max=self.Q_BV)
        star_cfg = equidist.DiscrepancyConfig(N=N, q_max=self.Q_BV,
                                              target=equidist.STAR_SET_WINDOW, spec=spec)
        w_cfg = equidist.DiscrepancyConfig(N=N, q_max=self.Q_WEIGHTED)
        k3 = weights.WeightConfig(H=tuples.AdmissibleTuple(self.H), l=1, R=self.R)
        k6 = weights.WeightConfig(H=tuples.generate_tuple(6), l=1, R=self.R)
        raw: dict = {}
        table = attempt(raw, "build_factor_table", sieve.build_factor_table, 2, self.hi)
        f_mob = attempt(raw, "mobius_coefficients", self._mobius, table)
        attempt(raw, "bv_prime_discrepancy", equidist.bv_prime_discrepancy, bv_cfg, table)
        attempt(raw, "bv_star_discrepancy", equidist.bv_star_discrepancy, star_cfg, table)
        attempt(raw, "weighted_const1", equidist.weighted_discrepancy,
                w_cfg, self.ALPHA, np.ones(self.m_max), table)
        attempt(raw, "weighted_mobius", equidist.weighted_discrepancy, w_cfg, self.ALPHA, f_mob, table)
        attempt(raw, "moment_lemma1_k3", weights.moment_lemma1, N, k3, table)
        attempt(raw, "moment_lemma1_k6", weights.moment_lemma1, N, k6, table)
        self.state.update(table=table, spec=spec, k3=k3, k6=k6)
        return raw

    def _summary(self, op, value):
        if op == "build_factor_table":
            return [value.lo, value.hi]
        if op == "mobius_coefficients":
            return [int(v) for v in value]
        if op.startswith("moment"):
            return _moment(value)
        return _report(value)

    def _primes(self) -> np.ndarray:
        if "primes" not in self.state:
            self.state["primes"] = oracles.primes_below(self.N + 1)
        return self.state["primes"]

    def check_build_factor_table(self, got, s, checks, rng):
        checks.equal("build_factor_table", got, [2, self.hi], "table bounds")
        self._check_factors("build_factor_table", self.state["table"], 2, self.hi, 200, checks, rng)

    def check_mobius_coefficients(self, got, s, checks, rng):
        want = [oracles.mobius(m) for m in range(1, self.m_max + 1)]
        checks.equal("mobius_coefficients", got, want, "mu(m) for m <= N^(1 - alpha)")

    def _check_rows(self, op, rep, targets, main_of, checks, rng, alt_of=None):
        """Recompute worst-class deviations at sampled q from oracle class counts."""
        rows = rep["rows"]
        checks.equal(op, len(rows), self.Q_BV, "one row per modulus")
        checks.close(op, rep["total"], math.fsum(r[2] for r in rows), "total is the sum of row maxima")
        q1 = rows[0]
        checks.true(op, min(abs(q1[3] + q1[2] - len(targets)), abs(q1[3] - q1[2] - len(targets))) < 1e-6,
                    "q = 1 class total equals the target count")
        for q in [1, 2, self.Q_BV] + rng.sample(range(3, self.Q_BV), 6):
            counts = np.bincount(targets % q, minlength=q)
            coprime = [a for a in range(q) if math.gcd(a, q) == 1]
            row = rows[q - 1]
            for main, col in ((main_of(q), 2),) + (((alt_of(q), 4),) if alt_of else ()):
                checks.close(op, row[col + 1], main, f"main term at q={q}", rel=1e-9)
                dev = max(abs(float(counts[a]) - main) for a in coprime)
                checks.close(op, row[col], dev, f"worst-class deviation at q={q}", rel=1e-9, abs_tol=1e-6)

    def check_bv_prime_discrepancy(self, got, s, checks, rng):
        li_n = oracles.offset_li(self.N)
        checks.close("bv_prime_discrepancy", got["main"], li_n, "main term Li(N)")
        self._check_rows("bv_prime_discrepancy", got, self._primes(),
                         lambda q: li_n / oracles.phi(q), checks, rng)

    def check_bv_star_discrepancy(self, got, s, checks, rng):
        N, eps = self.N, self.eps
        members = oracles.star_members(N, 2, eps)
        mask = balanced.star_mask(self.state["spec"], self.state["table"])
        checks.true("bv_star_discrepancy", np.array_equal(N + np.flatnonzero(mask), members),
                    "star mask equals the enumerated members")
        c0v, li_n = oracles.c0_r2(eps), oracles.offset_li(N)
        li_w = oracles.offset_li(2 * N) - li_n
        checks.close("bv_star_discrepancy", got["main"], c0v * li_n, "main term C0 Li(N)")
        self._check_rows("bv_star_discrepancy", got, members,
                         lambda q: c0v * li_n / oracles.phi(q), checks, rng,
                         alt_of=lambda q: c0v * li_w / oracles.phi(q))

    def _check_weighted(self, op, got, f, checks, rng):
        N, primes = self.N, self._primes()
        rows = got["rows"]
        checks.equal(op, len(rows), self.Q_WEIGHTED, "one row per modulus")
        li = [oracles.offset_li(max(N / m, 2.0)) for m in range(1, self.m_max + 1)]
        for q in (1, rng.randrange(2, self.Q_WEIGHTED + 1)):
            phi_q = oracles.phi(q)
            base = math.fsum(f[m - 1] * li[m - 1] for m in range(1, self.m_max + 1)) / phi_q
            acc = np.zeros(q)
            for m in range(1, self.m_max + 1):
                if f[m - 1] != 0 and math.gcd(m, q) == 1:
                    cut = np.searchsorted(primes, N // m, side="right")
                    acc += f[m - 1] * np.bincount((m * primes[:cut]) % q, minlength=q)
            dev = max(abs(acc[a] - base) for a in range(q) if math.gcd(a, q) == 1)
            row = rows[q - 1]
            checks.close(op, row[3], base, f"main term at q={q}", rel=1e-9, abs_tol=1e-6)
            checks.close(op, row[2], dev, f"worst-class deviation at q={q}", rel=1e-9, abs_tol=1e-6)

    def check_weighted_const1(self, got, s, checks, rng):
        self._check_weighted("weighted_const1", got, [1] * self.m_max, checks, rng)

    def check_weighted_mobius(self, got, s, checks, rng):
        f = [oracles.mobius(m) for m in range(1, self.m_max + 1)]
        self._check_weighted("weighted_mobius", got, f, checks, rng)

    def _check_lemma1(self, op, cfg, got, checks, rng):
        N, table = self.N, self.state["table"]
        offsets = tuple(cfg.H.offsets)
        model, bound = oracles.lemma1_model(N, offsets, cfg.l, cfg.R)
        checks.true(op, abs(got[0] - model) <= bound + 1e-9 * abs(model),
                    f"|{got[0]} - model {model}| within the counting bound {bound}")
        n0 = rng.randrange(N, 2 * N - 64)
        wb = weights.lambda_r_batch(n0, n0 + 64, cfg, table)
        for n in rng.sample(range(n0, n0 + 64), 12):
            checks.close(op, wb[n - n0], weights.lambda_r_naive(n, cfg, table),
                         f"lambda_r_batch vs lambda_r_naive at n={n}", rel=1e-9, abs_tol=1e-9)
        for n in rng.sample(range(n0, n0 + 64), 4):
            checks.close(op, wb[n - n0], oracles.naive_weight(n, offsets, cfg.l, cfg.R),
                         f"lambda_r_batch vs definition at n={n}", rel=1e-9, abs_tol=1e-9)

    def check_moment_lemma1_k3(self, got, s, checks, rng):
        self._check_lemma1("moment_lemma1_k3", self.state["k3"], got, checks, rng)

    def check_moment_lemma1_k6(self, got, s, checks, rng):
        self._check_lemma1("moment_lemma1_k6", self.state["k6"], got, checks, rng)


# ------------------------------------------------------------------- study


class Study(Workload):
    """In-process CLI calls as scripts and users make them, output to files."""

    name = "study"
    perturb_op = "density-r2-e0.3"
    DENSITY = tuple((r, e) for e in (0.05, 0.3) for r in range(2, 9))

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = self.rng
        default = seed == DEFAULT_SEED
        self.N = 10**5 if default else 10**5 + rng.randrange(1, 1_000)
        self.eps = 0.3 if default else rng.choice((0.25, 0.3, 0.35))
        self.n_classify = 999_999 if default else rng.randrange(10**6, 10**7)
        self.k_tuple = 6 if default else rng.choice((4, 5, 6, 7, 8))
        self.theta = 0.971 if default else rng.choice((0.6, 0.75, 0.9, 0.971))
        self.q_bv, self.q_weighted = 100, 10
        N = self.N
        r4, r2 = repr(N**0.25), repr(N**0.5)
        moment = ["--n-window", str(N), "--k", "3", "--l", "1", "--big-r", r4,
                  "--r", "2", "--eps", str(self.eps)]
        calls = {f"density-r{r}-e{e}": ["density", "--r", str(r), "--eps", str(e)]
                 for r, e in self.DENSITY}
        calls.update({
            "classify": ["classify", "--n", str(self.n_classify)],
            "tuple": ["tuple", "--k", str(self.k_tuple)],
            "constants": ["constants", "--theta", str(self.theta)],
            "singular-series": ["singular-series", "--k", "3"],
            "count-star": ["count-star", "--n-window", str(N), "--r", "2", "--eps", str(self.eps)],
            "moments": ["moments", "--variant", "lemma3", "--h", "2"] + moment,
            "s-stat": ["s-stat"] + moment,
            "bv": ["bv", "--n-window", str(N), "--q-max", str(self.q_bv)],
            "bv-star": ["bv-star", "--n-window", str(N), "--q-max", str(self.q_bv),
                        "--r", "2", "--eps", str(self.eps)],
            "bv-weighted": ["bv-weighted", "--n-window", str(N), "--q-max", str(self.q_weighted),
                            "--alpha", "0.5", "--f", "mobius"],
            "weights-json": ["weights", "--n-window", str(N), "--k", "3", "--l", "1", "--big-r", r2],
            "weights-csv": ["weights", "--n-window", str(N), "--k", "3", "--l", "1", "--big-r", r2,
                            "--format", "csv"],
        })
        self.density_ops = {f"density-r{r}-e{e}": (r, e) for r, e in self.DENSITY}
        self.calls, self.paths = {}, {}
        for op, argv in calls.items():
            ext = "csv" if "csv" in argv else "json"
            self.paths[op] = workdir / f"{op}.{ext}"
            self.calls[op] = argv + ["--seed", str(seed), "--timestamp", TIMESTAMP,
                                     "--out", str(self.paths[op])]
        self.ops = tuple(self.calls) + ("min_k_for_two",)

    def run_pass(self) -> dict:
        raw: dict = {}
        for op, argv in self.calls.items():
            self.paths[op].unlink(missing_ok=True)
            attempt(raw, op, cli.main, argv)
        attempt(raw, "min_k_for_two", lambda: [tuples.min_k_for_two(r, self.eps) for r in (2, 3)])
        return raw

    def _summary(self, op, value):
        if op == "min_k_for_two":
            return [[m.k0, m.l_star, m.k0_sqrt_rule, m.l_sqrt_rule, m.c0_val] for m in value]
        data = self.paths[op].read_bytes() if self.paths[op].exists() else b""
        return [value, hashlib.sha256(data).hexdigest(), len(data)]

    def pass_bytes(self, summary: dict) -> int:
        return sum(v[2] for op, v in summary.items() if op != "min_k_for_two" and isinstance(v, list))

    def check(self, summary: dict, checks: Checks) -> None:
        for op in self.calls:
            got = summary[op]
            if isinstance(got, list):
                checks.equal(op, got[0], 0, "exit code")
        super().check(summary, checks)

    def _load(self, op):
        return json.loads(self.paths[op].read_text())["results"]

    def _manifest_ok(self, op, checks):
        path = self.paths[op]
        head = path.read_text().split("\n", 1)[0] if path.suffix == ".csv" else None
        manifest = (json.loads(head.split(": ", 1)[1]) if head
                    else json.loads(path.read_text())["manifest"])
        checks.equal(op, (manifest["timestamp"], manifest["seed"]), (TIMESTAMP, self.seed),
                     "manifest timestamp and seed")

    def checker(self, op: str):
        if op in self.density_ops:
            return lambda got, s, checks, rng: self._check_density(*self.density_ops[op], checks)
        return super().checker(op)

    def _check_density(self, r, e, checks):
        op = f"density-r{r}-e{e}"
        res = self._load(op)
        direct = density.c0(r, e, seed=self.seed)
        checks.equal(op, res["value"], direct.value, "value equals a direct c0 call")
        checks.true(op, res["value"] <= oracles.c0_bound(r, e), "value below the upper bound")
        checks.close(op, res["upper_bound"], oracles.c0_bound(r, e), "reported upper bound")
        if r == 2:
            checks.close(op, res["value"], oracles.c0_r2(e), "closed form", rel=1e-12)
        elif r == 3:
            checks.close(op, res["value"], oracles.c0_r3(e), "1-D integral", rel=1e-8)
        else:
            # The Monte Carlo route, checked where an exact value exists: r = 3.
            # Its bar is 3 sigma; 5 sigma keeps a correct route from failing by chance.
            key = ("mc3", e)
            if key not in self.state:
                mc = density.c0_monte_carlo(3, e, seed=self.seed)
                self.state[key] = abs(mc.value - oracles.c0_r3(e)) <= mc.abs_error_estimate * 5 / 3
            checks.true(op, self.state[key], "Monte Carlo route within its bar of the r=3 integral")

    def check_classify(self, got, s, checks, rng):
        res = self._load("classify")
        omega, pmin, pmax = oracles.factor_stats(self.n_classify)
        want = 0.0 if pmin == pmax else 1 - math.log(pmin) / math.log(pmax)
        checks.equal("classify", (res["n"], res["omega"], res["is_prime"]),
                     (self.n_classify, omega, int(omega == 1)), "n, Omega, primality")
        checks.close("classify", res["threshold"], want, "balance threshold", rel=1e-12, abs_tol=1e-15)

    def check_tuple(self, got, s, checks, rng):
        res = self._load("tuple")
        t = tuples.generate_tuple(self.k_tuple)
        checks.equal("tuple", res["offsets"], list(t.offsets), "offsets equal a direct call")
        checks.equal("tuple", res["admissible"], int(oracles.admissible(tuple(res["offsets"]))),
                     "admissibility")
        checks.equal("tuple", res["diameter"], res["offsets"][-1] - res["offsets"][0], "diameter")

    def check_constants(self, got, s, checks, rng):
        res = self._load("constants")
        k0, c = tuples.gpy_constants(tuples.GpyConstantsQuery(theta=self.theta))
        checks.equal("constants", (res["formula_k0"], res["formula_c_asymptotic"]), (k0, c),
                     "constants equal a direct call")

    def check_singular_series(self, got, s, checks, rng):
        res = self._load("singular-series")
        direct = tuples.singular_series(tuples.generate_tuple(3), 1_000_000)
        checks.equal("singular-series", res["value"], direct.value, "value equals a direct call")

    def check_count_star(self, got, s, checks, rng):
        res = self._load("count-star")
        N = self.N
        spec = balanced.StarSetSpec(N=N, r=2, eps=self.eps)
        table = sieve.build_factor_table(N, 2 * N)
        count, predicted = balanced.count_star(spec, table)
        checks.equal("count-star", (res["count"], res["predicted"]), (count, predicted),
                     "count equals a direct call")
        checks.equal("count-star", res["count"], len(oracles.star_members(N, 2, self.eps)),
                     "count of members found by prime-pair enumeration")

    def _moment_direct(self, variant):
        N = self.N
        cfg = weights.WeightConfig(H=tuples.generate_tuple(3), l=1, R=N**0.25)
        spec = balanced.StarSetSpec(N=N, r=2, eps=self.eps)
        table = sieve.build_factor_table(N, 2 * N + 7)
        if variant == "lemma3":
            return weights.moment_lemma3(N, cfg, 2, spec, table)
        return weights.s_statistic(N, cfg, spec, table)

    def check_moments(self, got, s, checks, rng):
        res, rep = self._load("moments"), self._moment_direct("lemma3")
        checks.equal("moments", (res["empirical"], res["predicted"]),
                     (rep.empirical, rep.predicted_main_term), "Lemma 3 equals a direct call")

    def check_s_stat(self, got, s, checks, rng):
        res, rep = self._load("s-stat"), self._moment_direct("s")
        checks.equal("s-stat", (res["empirical"], res["multi_hit_count"]),
                     (rep.empirical, rep.extra["multi_hit_count"]), "S equals a direct call")

    def _check_bv(self, op, rep, checks):
        payload = json.loads(self.paths[op].read_text())
        self._manifest_ok(op, checks)
        checks.equal(op, payload["results"]["total"], rep.total, "total equals a direct call")
        checks.equal(op, [r["max_abs_dev"] for r in payload["rows"]],
                     [r.max_abs_dev for r in rep.per_q], "rows equal a direct call")

    def check_bv(self, got, s, checks, rng):
        N = self.N
        rep = equidist.bv_prime_discrepancy(equidist.DiscrepancyConfig(N=N, q_max=self.q_bv),
                                            sieve.build_factor_table(2, N + 1))
        self._check_bv("bv", rep, checks)

    def check_bv_star(self, got, s, checks, rng):
        N = self.N
        spec = balanced.StarSetSpec(N=N, r=2, eps=self.eps)
        cfg = equidist.DiscrepancyConfig(N=N, q_max=self.q_bv, target=equidist.STAR_SET_WINDOW,
                                         spec=spec)
        rep = equidist.bv_star_discrepancy(cfg, sieve.build_factor_table(N, 2 * N))
        self._check_bv("bv-star", rep, checks)

    def check_bv_weighted(self, got, s, checks, rng):
        N = self.N
        m_max = int(N**0.5)
        f = np.array([oracles.mobius(m) for m in range(1, m_max + 1)], dtype=np.float64)
        rep = equidist.weighted_discrepancy(equidist.DiscrepancyConfig(N=N, q_max=self.q_weighted),
                                            0.5, f, sieve.build_factor_table(2, N + 1))
        self._check_bv("bv-weighted", rep, checks)

    def _direct_weights(self):
        if "w" not in self.state:
            cfg = weights.WeightConfig(H=tuples.generate_tuple(3), l=1, R=self.N**0.5)
            self.state["w"] = weights.lambda_r_batch(self.N, 2 * self.N, cfg)
        return self.state["w"]

    def check_weights_json(self, got, s, checks, rng):
        op, N = "weights-json", self.N
        payload = json.loads(self.paths[op].read_text())
        self._manifest_ok(op, checks)
        w = self._direct_weights()
        rows = payload["rows"]
        checks.equal(op, payload["results"]["count"], N, "row count")
        checks.true(op, [r["n"] for r in rows] == list(range(N, 2 * N)), "n column")
        checks.true(op, bool(np.array_equal(np.array([r["weight"] for r in rows]), w)),
                    "weights equal a direct lambda_r_batch call")
        for n in rng.sample(range(N, 2 * N), 10):
            checks.close(op, w[n - N], oracles.naive_weight(n, (0, 2, 6), 1, N**0.5),
                         f"weight at n={n} vs definition", rel=1e-9, abs_tol=1e-9)

    def check_weights_csv(self, got, s, checks, rng):
        op, N = "weights-csv", self.N
        self._manifest_ok(op, checks)
        lines = self.paths[op].read_text().splitlines()
        checks.equal(op, lines[1], "n,weight", "header")
        data = np.loadtxt(lines[2:], delimiter=",")
        w = self._direct_weights()
        checks.true(op, bool(np.array_equal(data[:, 0], np.arange(N, 2 * N))), "n column")
        want = np.array([float(f"{v:.15g}") for v in w])
        checks.true(op, bool(np.array_equal(data[:, 1], want)), "weights to 15 significant digits")

    def check_min_k_for_two(self, got, s, checks, rng):
        for (k0, l_star, *_rest), r in zip(got, (2, 3)):
            c0v = oracles.c0_r2(self.eps) if r == 2 else oracles.c0_r3(self.eps)
            checks.equal("min_k_for_two", [k0, l_star], list(oracles.min_k(c0v)),
                         f"smallest (k, l) with a positive factor at r={r}")


WORKLOADS = {w.name: w for w in (Window, Moduli, Study)}
