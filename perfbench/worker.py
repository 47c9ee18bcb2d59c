"""One benchmark child process: timed passes, or one checked pass.

    python3 perfbench/worker.py --role time|check --workload NAME --seed N
        --seconds S --trace 0|1 --workdir DIR --result FILE

`--role time` runs an untimed warm-up pass, then timed passes in a closed
loop until S seconds have passed (at least one).  With `--trace 1` it
times one untraced reference pass after the warm-up, installs the tracer
and traces the remaining passes.  `--role check` runs one pass and checks
its outputs.  Both write a JSON result file; `run.py` reads it.  The
package must be importable (run.py puts `src` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import time
import warnings
from pathlib import Path

import layers
import workloads
from tracer import Tracer


def timed_passes(wl, seconds: float, trace: bool, workdir: Path) -> dict:
    summaries, walls, cpus = [], [], []

    def one_pass(run) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        raw = run()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        summaries.append(wl.summarize(raw))

    one_pass(wl.run_pass)  # warm-up: lazy imports, first allocations
    result: dict = {"warmup_s": walls.pop()}
    cpus.pop()
    tracer = None
    if trace:
        one_pass(wl.run_pass)  # untraced reference for the tracing overhead
        result["reference_s"], result["reference_cpu_s"] = walls.pop(), cpus.pop()
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.pass_no += 1
            one_pass(lambda: tracer.span("bench.pass", wl.run_pass))
        else:
            one_pass(wl.run_pass)
        if time.perf_counter() - start >= seconds:
            break
    if tracer:
        timed = tracer.pass_no
        one_pass(lambda: tracer.memory_pass(wl.run_pass))
        result["memory_pass_s"] = walls.pop()
        cpus.pop()
        tracer.uninstall()
        result["layers"] = layer_metrics(wl, tracer, timed, summaries, result)
        spans_file = workdir.parent / f"spans-{wl.name}-seed{wl.seed}.json"
        spans_file.write_text(json.dumps([list(s[:7]) for s in tracer.spans]))
        result["spans_file"] = str(spans_file)
    result.update(walls=walls, cpus=cpus, summaries=summaries)
    return result


def layer_metrics(wl, tracer, timed: int, summaries, result) -> dict:
    """The median timed traced pass; memory peaks from the memory pass."""
    by_pass: dict[int, list] = {}
    for span in tracer.spans:
        by_pass.setdefault(span[0], []).append(span)
    counts: dict[int, dict[str, int]] = {}
    for (p, name), calls in tracer.counts.items():
        counts.setdefault(p, {})[name] = calls
    out = layers.median_pass([layers.pass_metrics(by_pass[p], counts.get(p, {}))
                              for p in range(1, timed + 1)])
    out["cli.bytes_out"] = wl.pass_bytes(summaries[-1])  # output bytes are equal in every pass
    memory = layers.pass_metrics(by_pass[timed + 1], counts.get(timed + 1, {}))
    out["sieve.peak_alloc_mb"] = memory["sieve.peak_alloc_mb"]
    out["proc.cpu_s"] = result["reference_cpu_s"]
    out["trace.overhead_s"] = out["trace.pass_s"] - result["reference_s"]
    return out


def checked_pass(wl) -> dict:
    summary = wl.summarize(wl.run_pass())
    checks = workloads.Checks()
    wl.check(summary, checks)
    perturbed = workloads.Checks(perturb=wl.perturb_op)
    wl.check(summary, perturbed)
    return {
        "summary": summary,
        "failures": checks.failures,
        "checks_run": checks.count,
        "perturbed_op": wl.perturb_op,
        "perturbed_failures": perturbed.failures,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("time", "check"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()
    warnings.simplefilter("ignore")  # range warnings of the moment sums are expected here
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    if args.role == "time":
        result = timed_passes(wl, args.seconds, bool(args.trace), args.workdir)
    else:
        result = checked_pass(wl)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
