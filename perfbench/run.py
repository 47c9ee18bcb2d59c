#!/usr/bin/env python3
"""Benchmark of the primegaps package: one workload, one seed, one run.

    python3 perfbench/run.py --workload {window,moduli,study} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src`.
Each run uses fresh child processes, started one after another:

1. set-up (`--trace 0` only): a warm-up and then SETUP_RUNS fresh
   interpreters that each `import primegaps.cli`; `setup_s` is the median;
2. the timed process: warm-up pass, then closed-loop passes for S seconds.
   `wall_s` is the median pass; `peak_rss_mb` is this child's own peak
   resident set, read with os.wait4 (per-child rusage; RUSAGE_CHILDREN
   would give the largest over all children).  With `--trace 1` the passes
   are traced and the per-layer metrics are reported instead;
3. the check process: one more pass whose outputs are checked against
   independent references, plus a self-test that a perturbed expected value
   is counted as a failure.

An operation fails when it raises, when its output in any pass differs
from the checked pass, or when the checked pass fails a check.  The last
line printed is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_RUNS = 5
DEADLINE_S = 170.0  # a run must end within 180 s; children are killed after this
MiB = 1024.0  # ru_maxrss is in KiB on Linux

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], deadline: float):
    """Run a child to completion; return (exit code, its own rusage, wall seconds).

    Waits on a pidfd, so the end time is exact.  The child is killed once
    time.perf_counter() passes the deadline, or if this process is
    interrupted while waiting; either way it is reaped before returning.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=sys.stderr)
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.perf_counter()))
        if not ready:
            proc.kill()
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        os.close(fd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, wall


def measure_setup(deadline: float) -> list[float]:
    argv = [sys.executable, "-c", "import primegaps.cli"]
    times = []
    for i in range(SETUP_RUNS + 1):
        code, _, wall = run_child(argv, deadline)
        if code != 0:
            raise RuntimeError(f"importing primegaps.cli failed with exit code {code}")
        if i:  # the first import also writes bytecode caches
            times.append(wall)
    return times


def run_worker(role: str, args, workdir: Path, deadline: float) -> tuple[dict, object]:
    result = workdir / f"{role}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir), "--result", str(result)]
    code, usage, _ = run_child(argv, deadline)
    if code != 0 or not result.exists():
        raise RuntimeError(f"{role} process failed with exit code {code}")
    return json.loads(result.read_text()), usage


def count_failed(ops, summaries, reference, failures) -> int:
    """Operations over all passes that failed: raised, differed or failed a check."""
    failed = 0
    for summary in summaries:
        for op in ops:
            if op in failures or summary.get(op) != reference.get(op):
                failed += 1
    return failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("window", "moduli", "study"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "primegaps" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        setup = measure_setup(deadline) if args.trace == 0 else []
        timed, usage = run_worker("time", args, workdir, deadline)
        checked, _ = run_worker("check", args, workdir, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = checked["summary"]
    ops = list(reference)
    summaries = timed["summaries"] + [reference]
    attempted = len(ops) * len(summaries)
    failed = count_failed(ops, summaries, reference, checked["failures"])
    # Self-test: with one expected value perturbed, that operation fails in every pass.
    perturbed_op = checked["perturbed_op"]
    self_test_ok = (count_failed([perturbed_op], summaries, reference, checked["perturbed_failures"])
                    == len(summaries))

    walls = timed["walls"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"timed passes={len(walls)} (+ warm-up, + checked pass)")
    for op, msgs in checked["failures"].items():
        print(f"  FAILED {op}: {msgs[0]}" + (f" (+{len(msgs) - 1} more)" if len(msgs) > 1 else ""))
    print(f"  checks run: {checked['checks_run']}; self-test (perturbed {perturbed_op}): "
          f"{'counted as failure' if self_test_ok else 'NOT DETECTED'}")
    print(f"  fail_rate      {failed / attempted:.4g} ratio  ({failed}/{attempted} operations failed)")

    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": usage.ru_maxrss / MiB,
        }
        print(f"  setup_s        {metrics['setup_s']:.4f} s    median of {len(setup)} fresh imports "
              f"(min {min(setup):.4f}, max {max(setup):.4f})")
        print(f"  wall_s         {metrics['wall_s']:.4f} s    median of {len(walls)} passes "
              f"(min {min(walls):.4f}, max {max(walls):.4f}; warm-up {timed['warmup_s']:.4f})")
        print(f"  peak_rss_mb    {metrics['peak_rss_mb']:.1f} MiB  timed process, os.wait4 rusage")
        units = END_TO_END
    else:
        import layers

        metrics = timed["layers"]
        units = layers.UNITS
        pass_s = metrics["trace.pass_s"]
        accounted = sum(metrics[f"{m}.self_s"] for m in layers.MODULES) + metrics["trace.untraced_s"]
        print(f"  traced pass {pass_s:.4f} s (untraced reference {timed['reference_s']:.4f} s, "
              f"tracemalloc pass {timed['memory_pass_s']:.4f} s); module self times + untraced "
              f"remainder = {accounted:.4f} s; spans in {timed['spans_file']}")
        for name in sorted(units, key=lambda k: -metrics[k] if units[k] == "s" else 0):
            if metrics[name]:
                share = f"{100 * metrics[name] / pass_s:5.1f}%" if units[name] == "s" else ""
                print(f"  {name:38s} {metrics[name]:>14.6g} {units[name]:15s} {share}")

    print(json.dumps({
        "correct": failed == 0 and self_test_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
