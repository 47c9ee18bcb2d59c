"""Per-layer metrics from a traced run's span tree.

Times are self times: a span's duration minus the part its child spans
cover.  `<module>.<function>.s` is the self time of that function per
pass, `<module>.self_s` sums a module's functions, and `trace.untraced_s`
is the self time of the pass root, i.e. time outside any package call.
Module self times plus `trace.untraced_s` add up to the traced pass.
`cli.<subcommand>.s` is the whole time of `cli.main` calls for that
subcommand.

Metrics whose unit ends in `.computed` are work counts derived from the
inputs a span received (window bounds, R, q_max, ...) or from array sizes,
not measured by a clock.  `.calls` counts are read from the span tree.
"""

from __future__ import annotations

import math
from collections import defaultdict

from oracles import phi, weight_work

MODULES = ("sieve", "balanced", "density", "tuples", "weights", "equidist", "cli")
SUBCOMMANDS = ("classify", "count-star", "density", "tuple", "singular-series", "constants",
               "weights", "moments", "s-stat", "bv", "bv-star", "bv-weighted")
FUNCTIONS = (
    "sieve.build_factor_table", "balanced.star_mask", "balanced.count_star",
    "balanced.count_eps_r", "density.c0", "density.c0_monte_carlo", "tuples.singular_series",
    "tuples.min_k_for_two", "weights.lambda_r_batch", "weights.moment_lemma1",
    "weights.moment_lemma2", "weights.moment_lemma3", "weights.s_statistic",
    "equidist.bv_prime_discrepancy", "equidist.bv_star_discrepancy",
    "equidist.weighted_discrepancy",
)
CALLS = ("sieve.build_factor_table", "balanced.star_mask", "density.c0",
         "tuples.singular_series", "weights.lambda_r_batch", "sieve.log_integral")
MiB = float(1 << 20)

#: name -> unit for every per-layer metric, in report order.
UNITS: dict[str, str] = {}
UNITS.update({f"{m}.self_s": "s" for m in MODULES})
UNITS.update({f"{f}.s": "s" for f in FUNCTIONS})
UNITS.update({f"{f}.calls": "count" for f in CALLS})
UNITS.update({
    "sieve.table_mb": "MiB.computed",
    "sieve.integers": "count.computed",
    "sieve.peak_alloc_mb": "MiB",  # tracemalloc peak, from the memory pass
    "weights.moduli": "count.computed",
    "weights.classes": "count.computed",
    "weights.slice_updates": "count.computed",
    "weights.recompute_ratio": "ratio",
    "equidist.q_passes": "count.computed",
    "equidist.q_sum": "count.computed",
    "equidist.residue_classes": "count.computed",
    "equidist.weighted_pairs": "count.computed",
    "equidist.li_evals": "count.computed",
    "equidist.li_distinct": "count.computed",
    "density.mc_samples": "count.computed",
})
UNITS.update({f"cli.{s}.s": "s" for s in SUBCOMMANDS})
UNITS.update({
    "cli.bytes_out": "bytes",
    "proc.cpu_s": "s",
    "trace.pass_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
})


def pass_metrics(spans: list, counts: dict[str, int]) -> dict[str, float]:
    """Layer metrics of one traced pass; spans[0] must be the pass root.

    counts holds the calls of functions the tracer counts without spans.
    """
    out = dict.fromkeys(UNITS, 0.0)
    for name, calls in counts.items():
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += calls
    child_time = defaultdict(float)
    for _, _, parent, _, t0, t1, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    distinct_weights = set()
    root = spans[0]
    for _, sid, parent, name, t0, t1, peak, info in spans:
        self_s = (t1 - t0) - child_time[sid]
        module = name.split(".", 1)[0]
        if sid == root[1]:
            out["trace.untraced_s"] += self_s
            continue
        out[f"{module}.self_s"] += self_s
        if f"{name}.s" in out:
            out[f"{name}.s"] += self_s
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
        if info is None:
            continue
        if name == "sieve.build_factor_table":
            lo, hi, nbytes = info
            out["sieve.table_mb"] = max(out["sieve.table_mb"], nbytes / MiB)
            out["sieve.integers"] += hi - lo
            if peak is not None:
                out["sieve.peak_alloc_mb"] = max(out["sieve.peak_alloc_mb"], peak / MiB)
        elif name == "weights.lambda_r_batch":
            lo, hi, offsets, l, R = info
            distinct_weights.add(info)
            moduli, classes, per_len = weight_work(R, offsets)
            out["weights.moduli"] += moduli
            out["weights.classes"] += classes
            out["weights.slice_updates"] += round(per_len * (hi - lo))
        elif name in ("equidist.bv_prime_discrepancy", "equidist.bv_star_discrepancy"):
            scans = 2 if name.endswith("star_discrepancy") else 1
            out["equidist.q_passes"] += info
            out["equidist.q_sum"] += info * (info + 1) // 2
            out["equidist.residue_classes"] += scans * sum(phi(q) for q in range(1, info + 1))
        elif name == "equidist.weighted_discrepancy":
            N, alpha, q_max, f = info
            m_max = int(N ** (1.0 - alpha))
            out["equidist.weighted_pairs"] += m_max * q_max
            out["equidist.li_evals"] += m_max * q_max
            out["equidist.li_distinct"] += m_max
            live = [m for m in range(1, m_max + 1) if f[m - 1] != 0.0]
            for q in range(1, q_max + 1):
                passes = sum(1 for m in live if math.gcd(m, q) == 1)
                out["equidist.q_passes"] += passes
                out["equidist.q_sum"] += passes * q
                out["equidist.residue_classes"] += phi(q)
        elif name == "density.c0_monte_carlo":
            out["density.mc_samples"] += info
        elif name == "cli.main" and f"cli.{info}.s" in out:
            out[f"cli.{info}.s"] += t1 - t0
    calls = out["weights.lambda_r_batch.calls"]
    out["weights.recompute_ratio"] = calls / len(distinct_weights) if distinct_weights else 0.0
    out["trace.pass_s"] = root[5] - root[4]
    out["trace.spans"] = len(spans) - 1
    return out


def median_pass(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Metrics of the pass with the median traced time (the lower one of two).

    One whole pass is reported rather than per-metric medians, so that its
    self times still add up to its pass time.
    """
    ranked = sorted(per_pass, key=lambda m: m["trace.pass_s"])
    return dict(ranked[(len(ranked) - 1) // 2])
