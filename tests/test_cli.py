import argparse
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import primegaps
import numpy as np

from primegaps import cli, equidist, sieve, weights
from primegaps.cli import build_parser, main
from primegaps.density import c0
from primegaps.sieve import build_factor_table, primes_up_to
from primegaps.tuples import generate_tuple
from primegaps.weights import WeightConfig, lambda_r_batch

TS = "2024-01-01T00:00:00"

# small arguments for every subcommand
SUBCOMMANDS = {
    "classify": ["--n", "49"],
    "count-star": ["--n-window", "1000", "--r", "2", "--eps", "0.3"],
    "density": ["--r", "2", "--eps", "0.1"],
    "tuple": ["--k", "6"],
    "singular-series": ["--k", "3", "--p-max", "10000"],
    "constants": ["--theta", "0.971"],
    "weights": ["--n-window", "100", "--k", "2", "--l", "1", "--big-r", "10"],
    "moments": ["--variant", "lemma3", "--h", "2", "--n-window", "1000", "--k", "3", "--l", "1",
                "--big-r", "5.6"],
    "s-stat": ["--n-window", "1000", "--k", "3", "--l", "1", "--big-r", "5.6"],
    "bv": ["--n-window", "1000", "--q-max", "5"],
    "bv-star": ["--n-window", "1000", "--q-max", "3", "--r", "2", "--eps", "0.3"],
    "bv-weighted": ["--n-window", "1000", "--q-max", "3", "--alpha", "0.5", "--f", "mobius"],
}


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv, "--timestamp", TS)
    assert rc == 0
    return json.loads(out)


def test_classify_json(capsys):
    doc = run_json(capsys, "classify", "--n", "49")
    assert doc["results"]["omega"] == 2
    assert doc["results"]["threshold"] == 0.0
    assert doc["results"]["is_prime"] == 0
    man = doc["manifest"]
    assert man["subcommand"] == "classify"
    assert man["parameters"]["n"] == 49
    assert man["seed"] == 0
    assert man["timestamp"] == TS


def test_classify_prime(capsys):
    doc = run_json(capsys, "classify", "--n", "97")
    assert doc["results"]["is_prime"] == 1
    assert doc["results"]["threshold"] == 0.0


def test_classify_high_up(capsys):
    # 2^50 - 3 = 59 * 176329 * 108224111: the walk sieves by the 2,063,689
    # primes up to 2^25, of which only 59 and 176329 hit the one integer
    n = 2**50 - 3
    res = run_json(capsys, "classify", "--n", str(n))["results"]
    assert (res["n"], res["omega"], res["is_prime"]) == (n, 3, 0)
    assert res["threshold"] == 0.7795891719468148 == 1 - math.log(59) / math.log(108224111)


def test_classify_builds_only_the_integer_it_reads(capsys, monkeypatch):
    windows = []
    build = cli.build_factor_table

    def spy(lo, hi):
        windows.append((lo, hi))
        return build(lo, hi)

    monkeypatch.setattr(cli, "build_factor_table", spy)
    assert run_json(capsys, "classify", "--n", "49")["results"]["omega"] == 2
    assert run_json(capsys, "classify", "--n", str(2**31 - 1))["results"]["is_prime"] == 1
    assert windows == [(49, 50), (2**31 - 1, 2**31)]


def test_density_value_and_manifest(capsys):
    doc = run_json(capsys, "density", "--r", "2", "--eps", "0.1")
    assert math.isclose(doc["results"]["value"], 2 * math.log(1.05 / 0.95), rel_tol=1e-12)
    assert math.isclose(doc["results"]["value"], 0.2001669171, rel_tol=1e-9)
    assert doc["results"]["upper_bound"] > doc["results"]["value"]


def test_density_deterministic_r4(capsys):
    a = run_json(capsys, "density", "--r", "4", "--eps", "0.2", "--seed", "5")
    b = run_json(capsys, "density", "--r", "4", "--eps", "0.2", "--seed", "5")
    assert a == b
    assert a["manifest"]["seed"] == 5
    assert a["results"]["value"] == c0(4, 0.2).value


def test_constants_reference_level(capsys):
    doc = run_json(capsys, "constants", "--theta", "0.971")
    assert doc["results"]["reference_k0"] == 6
    assert doc["results"]["reference_c"] == 16
    doc2 = run_json(capsys, "constants", "--theta", "0.55")
    assert doc2["results"]["formula_k0"] == 441
    assert "reference_k0" not in doc2["results"]


def test_tuple_and_singular_series(capsys):
    doc = run_json(capsys, "tuple", "--k", "3")
    assert doc["results"]["offsets"] == [0, 2, 6]
    assert doc["results"]["diameter"] == 6
    assert doc["results"]["admissible"] == 1
    doc = run_json(capsys, "singular-series", "--k", "2", "--p-max", "100000")
    assert math.isclose(doc["results"]["value"], 1.3203236316, rel_tol=1e-5)


def test_singular_series_from_file(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("0,4,6\n")
    doc = run_json(capsys, "singular-series", "--tuple-file", str(path),
                   "--p-max", "10000")
    assert doc["results"]["offsets"] == [0, 4, 6]
    assert doc["results"]["value"] > 0


def test_count_star(capsys):
    doc = run_json(capsys, "count-star", "--n-window", "1000", "--r", "2",
                   "--eps", "0.3")
    assert doc["results"]["count"] == 22
    # from the primes of I alone: no 8.4 GiB window table at N = 1e9
    doc = run_json(capsys, "count-star", "--n-window", "1000000000", "--r", "2", "--eps", "0.3")
    assert doc["results"]["count"] == 12236041


def test_budget_refusal_comes_before_the_range_warning(capsys):
    # R = 2e8 is past both the divisor budget and N^(1/2); the refusal is all that is printed
    for argv in (["moments", "--variant", "lemma1"], ["s-stat"]):
        assert main([*argv, "--n-window", "1000", "--k", "3", "--l", "1", "--big-r", "2e8"]) == 1
        assert capsys.readouterr().err == "error: R=200000000.0 exceeds the divisor enumeration budget\n"


def test_moment_commands_build_only_the_table_they_read(capsys, monkeypatch):
    # no moment command builds a factor table: Lemma 1 reads only the weights, and
    # the others sieve the primes of their one piece, [N, 2N + h) or [N, 2N + max H) for S
    tables, windows = [], []
    build, window = sieve.build_factor_table, sieve.prime_window
    monkeypatch.setattr(sieve, "build_factor_table", lambda lo, hi: tables.append((lo, hi)) or build(lo, hi))
    monkeypatch.setattr(cli, "build_factor_table", sieve.build_factor_table)

    def logged(lo, hi):  # primes_up_to sieves its segments from 0 through it too
        if lo >= 1000:
            windows.append((lo, hi))
        return window(lo, hi)

    monkeypatch.setattr(sieve, "prime_window", logged)
    for argv, sieved in ((["moments", "--variant", "lemma1"], []),
                         (["moments", "--variant", "lemma2", "--h", "2"], [(1000, 2002)]),
                         (["moments", "--variant", "lemma3", "--h", "2"], [(1000, 2002)]),
                         (["s-stat"], [(1000, 2006)])):
        assert main([*argv, "--n-window", "1000", "--k", "3", "--l", "1", "--big-r", "5"]) == 0
        capsys.readouterr()
        assert tables == [] and windows == sieved, argv
        windows.clear()


def test_moment_commands_plan_the_weights_once(capsys, monkeypatch):
    # the plan made before the table build is the one the sums use
    calls, moduli = [], weights._squarefree_moduli
    monkeypatch.setattr(weights, "_squarefree_moduli", lambda R, H: calls.append(R) or moduli(R, H))
    for argv in (["moments", "--variant", "lemma3"], ["s-stat"]):
        assert main([*argv, "--n-window", "1000", "--k", "3", "--l", "1", "--big-r", "5"]) == 0
    assert calls == [5.0, 5.0]


def test_weights_rows_csv(capsys):
    rc, out = run(capsys, "weights", "--n-window", "100", "--k", "2", "--l", "1",
                  "--big-r", "10", "--format", "csv", "--timestamp", TS)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "n,weight"
    assert len(lines) == 2 + 100
    n, w = lines[2].split(",")
    assert int(n) == 100 and math.isfinite(float(w))


def test_moments_lemma1(capsys):
    doc = run_json(capsys, "moments", "--variant", "lemma1", "--n-window", "1000",
                   "--k", "3", "--l", "1", "--big-r", "5.6")
    r = doc["results"]
    assert r["empirical"] > 0 and r["predicted"] > 0
    assert math.isclose(r["ratio"], r["empirical"] / r["predicted"], rel_tol=1e-12)


def test_moments_lemma3_and_s_stat(capsys):
    doc = run_json(capsys, "moments", "--variant", "lemma3", "--n-window", "1000",
                   "--k", "3", "--l", "1", "--big-r", "5.6", "--h", "2",
                   "--r", "2", "--eps", "0.3")
    assert doc["results"]["empirical"] >= 0
    doc = run_json(capsys, "s-stat", "--n-window", "1000", "--k", "3", "--l", "1",
                   "--big-r", "5.6", "--r", "2", "--eps", "0.3")
    assert "multi_hit_count" in doc["results"]


@pytest.mark.parametrize("argv, header", [
    (["moments", "--variant", "lemma1"], "N,variant,empirical,predicted,ratio,singular_series,degenerate"),
    (["moments", "--variant", "lemma2"], "N,variant,empirical,predicted,ratio,h,singular_series"),
    (["moments", "--variant", "lemma3"], "N,variant,empirical,predicted,ratio,h,r,eps,c0,singular_series"),
    (["s-stat"], "N,variant,empirical,predicted,ratio,r,eps,c0,singular_series,multi_hit_count"),
])
def test_moment_csv_header_keeps_the_report_order(capsys, argv, header):
    # JSON sorts its keys; the CSV header shows the order of the report's extra
    rc, out = run(capsys, *argv, "--n-window", "1000", "--k", "3", "--l", "1", "--big-r", "5.6",
                  "--format", "csv", "--timestamp", TS)
    assert rc == 0
    assert out.split("\n")[1] == header


def test_warnings_print_without_source_path(capsys):
    # R = 20 lies above N^(1/4) = 5.6 for the lemma3 and S sums at N = 1000
    tup = ["--n-window", "1000", "--k", "3", "--l", "1", "--big-r", "20", "--timestamp", TS]
    want = ("warning: R=20.0 exceeds the stated range (~N^1/4); "
            "the asymptotic main term may not apply\n")
    for argv in (["moments", "--variant", "lemma3", *tup], ["s-stat", *tup]):
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert err == want
        assert "cli.py" not in err


def _fresh_python(code):
    """Run code in a new interpreter that imports primegaps from where this one does."""
    path = [str(Path(primegaps.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, since this one may have imported scipy already
    out = _fresh_python("import sys, primegaps.cli; "
                        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


def test_cli_runs_with_scipy_blocked():
    # with scipy made unimportable, every subcommand that computes Li or C0 still runs
    argvs = [[cmd, *SUBCOMMANDS[cmd], "--timestamp", TS]
             for cmd in ("bv", "bv-star", "bv-weighted", "density", "weights")]
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from primegaps.cli import main\n"
            f"print([main(argv) for argv in {argvs!r}], file=sys.stderr)")
    out = _fresh_python(code)
    assert out.returncode == 0 and out.stderr.endswith("[0, 0, 0, 0, 0]\n"), out.stderr


def test_submodule_imports_load_only_what_they_use():
    # the package namespace re-exports nothing, so importing one submodule
    # loads only it and the submodules it imports
    code = ("import sys, primegaps.{}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'primegaps'))")
    out = _fresh_python(code.format("density"))
    assert (out.returncode, out.stdout) == (0, "['primegaps', 'primegaps.density']\n"), out.stderr
    out = _fresh_python(code.format("cli"))
    mods = ["primegaps"] + [f"primegaps.{m}" for m in
                            ("balanced", "cli", "density", "equidist", "sieve", "tuples", "weights")]
    assert (out.returncode, out.stdout) == (0, f"{mods}\n"), out.stderr


def test_bv_rows(capsys):
    doc = run_json(capsys, "bv", "--n-window", "1000", "--q-max", "5")
    assert len(doc["rows"]) == 5
    assert doc["rows"][0]["q"] == 1
    assert doc["results"]["total"] > 0


def test_bv_star_and_weighted(capsys):
    doc = run_json(capsys, "bv-star", "--n-window", "1000", "--q-max", "3",
                   "--r", "2", "--eps", "0.3")
    assert "alt_max_abs_dev" in doc["rows"][0]
    doc = run_json(capsys, "bv-weighted", "--n-window", "1000", "--q-max", "3",
                   "--alpha", "0.5", "--f", "mobius")
    assert doc["results"]["total"] >= 0


def test_bv_weighted_mobius_with_one_coefficient(capsys):
    # N^(1 - alpha) < 2 leaves m_max = 1, where mu(1) = 1 gives the const1 rows
    args = ["bv-weighted", "--n-window", "1000", "--q-max", "5", "--alpha", "0.99"]
    rows = {f: run_json(capsys, *args, "--f", f)["rows"] for f in ("mobius", "const1")}
    assert len(rows["mobius"]) == 5 and rows["mobius"] == rows["const1"]


def test_bv_weighted_file_rows_equal_a_direct_call(capsys, tmp_path):
    # N = 1e4, alpha = 0.5: m <= 100.  The file lists the m in descending
    # order, leaves out those with f(m) = 0, and adds m = 500 above
    # N^(1 - alpha), which is ignored
    N, m_max = 10**4, 100
    f = np.cos(np.arange(1, m_max + 1))
    f[::7] = 0.0
    path = tmp_path / "f.txt"
    lines = [f"{m} {float(f[m - 1])!r}\n" for m in range(m_max, 0, -1) if f[m - 1] != 0.0]
    path.write_text("".join(lines) + "500 0.5\n")
    doc = run_json(capsys, "bv-weighted", "--n-window", str(N), "--q-max", "7", "--alpha", "0.5",
                   "--f", str(path))
    rep = equidist.weighted_discrepancy(equidist.DiscrepancyConfig(N=N, q_max=7), 0.5, f)
    assert (doc["results"]["total"], doc["results"]["main_term_used"]) == (rep.total, rep.main_term_used)
    assert [(r["q"], r["worst_a"], r["max_abs_dev"], r["main_term"]) for r in doc["rows"]] == [
        (r.q, r.worst_a, r.max_abs_dev, r.main_term) for r in rep.per_q
    ]


@pytest.mark.parametrize("text, why", [
    ("2.5 0.3\n", "m = 2.5 is not an integer >= 1"),
    ("0 0.3\n", "m = 0 is not an integer >= 1"),
    ("-3 0.3\n", "m = -3 is not an integer >= 1"),
    ("nan 0.3\n", "m = nan is not an integer >= 1"),
    ("2 0.3\n3 0.1\n2 -0.2\n", "m = 2 is listed twice"),
    ("500 0.3\n500 0.1\n", "m = 500 is listed twice"),  # above N^(1 - alpha), still one line each
])
def test_bv_weighted_file_rejects_malformed_rows(capsys, tmp_path, text, why):
    path = tmp_path / "f.txt"
    path.write_text(text)
    rc = main(["bv-weighted", "--n-window", "1000", "--q-max", "5", "--alpha", "0.5", "--f", str(path)])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (1, "", f"error: {path}: {why}\n")


def test_byte_identical_reproduction(capsys, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (out1, out2):
        rc = main(["bv", "--n-window", "1000", "--q-max", "5", "--format", "csv",
                   "--timestamp", TS, "--out", str(path)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    man = json.loads(text.split("\n")[0].removeprefix("# manifest: "))
    assert man["parameters"] == {"n_window": 1000, "q_max": 5}


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["density", "--r", "2"])  # missing --eps
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_option_prefix_is_a_usage_error(capsys):
    # s-stat has no --h; with prefix matching argparse read it as --help and exited 0
    with pytest.raises(SystemExit) as exc:
        main(["s-stat", "--n-window", "1000", "--k", "3", "--l", "1", "--big-r", "5", "--h", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "unrecognized arguments: --h 5" in captured.err
    # reported with the usage of the subcommand it was passed to, not the top-level one
    assert captured.err.startswith("usage: primegaps s-stat")
    assert "primegaps s-stat: error: unrecognized arguments: --h 5" in captured.err


def test_computation_error_exit_1(capsys):
    rc = main(["density", "--r", "1", "--eps", "0.1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    for n in (1, 0, -7):  # refused before a table is built, naming n
        assert main(["classify", "--n", str(n)]) == 1
        assert capsys.readouterr().err == f"error: need n >= 2, got {n}\n"
    # k = 0 reaches the tuple generator's check, not the missing-option message
    for cmd in (["weights", "--n-window", "100", "--l", "1", "--big-r", "10"], ["singular-series"]):
        assert main([*cmd, "--k", "0"]) == 1
        assert capsys.readouterr().err == "error: need k >= 1, got 0\n"
    # a negative window is refused as the table build refuses it
    assert main(["weights", "--n-window", "-5", "--k", "3", "--l", "1", "--big-r", "10"]) == 1
    assert capsys.readouterr().err == "error: need hi > lo, got [-5, -10)\n"
    rc = main(["density", "--r", "1000000", "--eps", "0.1"])
    assert rc == 1
    # r out of range, and an r or shift the moment sums reject, fail before
    # the 3e6-wide factor table is built; the peak is taken after parsing,
    # since the parser alone takes ~110 KiB
    star = ["--n-window", "3000000", "--r", "100", "--eps", "0.3"]
    star4 = ["--n-window", "3000000", "--r", "4", "--eps", "0.3"]
    tup = ["--k", "3", "--l", "1", "--big-r", "10"]
    for argv in (["count-star", *star], ["bv-star", "--q-max", "10", *star],
                 ["moments", "--variant", "lemma3", *tup, *star], ["s-stat", *tup, *star],
                 ["moments", "--variant", "lemma3", *tup, *star4], ["s-stat", *tup, *star4],
                 ["moments", "--variant", "lemma2", *tup, "--n-window", "3000000", "--h", "1"],
                 ["moments", "--variant", "lemma3", *tup, "--n-window", "3000000", "--h", "1"],
                 # a star-set q_max >= N would cost a q_max-sized pass per top
                 ["bv-star", "--n-window", "1000", "--q-max", "100000000", "--r", "2", "--eps", "0.3"],
                 # an R past the divisor budget is refused before the primes <= R are sieved
                 ["moments", "--variant", "lemma1", "--n-window", "1000", "--k", "3", "--l", "1",
                  "--big-r", "2e8"]):
        assert main(argv) == 1
        args = build_parser().parse_args(argv)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                args.func(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, argv


@pytest.mark.parametrize("N, alpha", [(10**6, "0.5"), (10**5, "0.05"), (10**6, "0.05"), (10**4, "0.01")])
def test_bv_weighted_peak_stays_within_its_memory_charge(N, alpha, monkeypatch):
    # the charge covers g, which the passes read in place, the class totals
    # of a pass (in both processes when the passes fork), f with the
    # scatter's per-m offsets or the main terms, and the temporaries of one
    # block of (m, p) pairs or of Li over one block of m, which dominate at
    # small alpha (m_max is under one block at N = 1e5, about four at 1e6;
    # N = 1e4 has about two pairs per m); the caller's traced peak stays below it
    charged = []
    monkeypatch.setattr(cli, "check_fits", charged.append)
    args = build_parser().parse_args(["bv-weighted", "--n-window", str(N), "--q-max", "30",
                                      "--alpha", alpha, "--f", "const1"])
    tracemalloc.start()
    try:
        args.func(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(charged) == 1 and peak <= charged[0]


def test_oversized_window_fails_before_allocating(capsys):
    # the prime sieves to 1e12 or more exceed any physical memory, such as
    # the primes of I to N^0.7475 at N = 1e15, eps = 0.99, and so do float
    # vectors of 1e12; the estimate is refused before the sieve or the
    # vector exists (the moment sums hold only chunk buffers and the primes
    # of one piece, so their cases are the star sums, Lemma 3 and S)
    tup = ["--k", "3", "--l", "1", "--big-r", "10"]
    huge = ["--n-window", str(10**12)]
    wide_star = ["--n-window", str(10**15), "--r", "2", "--eps", "0.99"]
    for argv in (["bv", *huge, "--q-max", "10"], ["bv-weighted", *huge, "--q-max", "10", "--alpha", "0.5"],
                 ["bv-star", *wide_star, "--q-max", "10"], ["count-star", *wide_star], ["weights", *huge, *tup],
                 ["moments", "--variant", "lemma3", *wide_star, *tup], ["s-stat", *wide_star, *tup],
                 ["classify", "--n", str(10**30)],
                 ["singular-series", "--k", "3", "--p-max", str(10**12)], ["tuple", "--k", str(10**12)],
                 ["weights", "--n-window", "1000", "--k", "3", "--l", "1", "--big-r", "1e12"]):
        assert main(argv) == 1, argv
        assert "physical memory" in capsys.readouterr().err, argv
        args = build_parser().parse_args(argv)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="physical memory"):
                args.func(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, argv
    # at N = 1e12 the primes of I fit, and bv-star's 1e10 members are refused before they are scattered
    argv = ["bv-star", *huge, "--q-max", "10", "--r", "2", "--eps", "0.3"]
    assert main(argv) == 1
    assert "physical memory" in capsys.readouterr().err
    # library callers get the same refusal
    for fn, fn_args in ((build_factor_table, (10**12, 2 * 10**12)), (primes_up_to, (10**13,))):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="physical memory"):
                fn(*fn_args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, fn


def test_csv_summary_format(capsys):
    rc, out = run(capsys, "density", "--r", "2", "--eps", "0.1",
                  "--format", "csv", "--timestamp", TS)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# manifest: ")
    header = lines[1].split(",")
    values = lines[2].split(",")
    val = float(values[header.index("value")])
    assert math.isclose(val, 0.2001669171, rel_tol=1e-9)


def test_every_subcommand_is_covered():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SUBCOMMANDS)


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_csv_rows_are_as_long_as_the_header(capsys, name):
    # a tuple's offsets hold commas, so they must come out as one quoted field
    rc, out = run(capsys, name, *SUBCOMMANDS[name], "--format", "csv", "--timestamp", TS)
    assert rc == 0
    lines = out.split("\n")
    assert lines[0].startswith("# manifest: ") and lines[-1] == ""
    header, *rows = csv.reader(lines[1:-1])
    assert rows and all(len(row) == len(header) for row in rows)


def test_csv_quotes_the_offsets_field(capsys):
    rc, out = run(capsys, "tuple", "--k", "6", "--format", "csv", "--timestamp", TS)
    assert rc == 0
    assert out.split("\n")[1:] == ["k,offsets,diameter,admissible", '6,"0,4,6,10,12,16",16,1', ""]


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_json_layout_matches_the_encoder(capsys, name):
    rc, out = run(capsys, name, *SUBCOMMANDS[name], "--timestamp", TS)
    assert rc == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_value_writes_nothing(capsys, tmp_path, monkeypatch, fmt):
    # the library's report for a degenerate tuple: its predicted moment is 0 and the ratio inf
    lemma1 = weights.moment_lemma1
    monkeypatch.setattr(weights, "moment_lemma1",
                        lambda N, cfg: dataclasses.replace(lemma1(N, cfg), ratio=math.inf))
    argv = ["moments", "--variant", "lemma1", "--n-window", "1000", "--k", "3",
            "--l", "1", "--big-r", "5.6", "--format", fmt, "--timestamp", TS]
    out_file = tmp_path / "out"
    for extra in ([], ["--out", str(out_file)]):
        assert main(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite value in output\n"
        assert captured.out == ""
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [["moments", "--variant", "lemma1"], ["moments", "--variant", "lemma2"],
                                  ["moments", "--variant", "lemma3"], ["s-stat"]])
def test_inadmissible_tuple_is_refused_before_any_plan_or_table(capsys, tmp_path, monkeypatch, argv):
    # its singular series is 0, so every predicted main term would be 0 and each ratio inf
    made = []
    monkeypatch.setattr(weights, "_squarefree_moduli", lambda *a: made.append("plan"))
    monkeypatch.setattr(sieve, "build_factor_table", lambda *a: made.append("table"))
    tup = tmp_path / "t.txt"
    tup.write_text("0,1,2\n")
    rc = main([*argv, "--n-window", "1000", "--tuple-file", str(tup), "--l", "1", "--big-r", "5.6"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (1, "", "error: tuple (0, 1, 2) is not admissible\n")
    assert made == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_weights_peak_memory_is_within_the_guard(tmp_path, monkeypatch, fmt):
    # the memory guard must charge at least what the weights subcommand holds,
    # at two N so that both its per-integer and its fixed part are checked
    charged = []
    check = cli.check_fits

    def spy(nbytes):
        charged.append(nbytes)
        check(nbytes)

    monkeypatch.setattr(cli, "check_fits", spy)
    for N in (10**5, 4 * 10**5):
        charged.clear()
        argv = ["weights", "--n-window", str(N), "--k", "3", "--l", "1", "--big-r", "316.2",
                "--format", fmt, "--timestamp", TS, "--out", str(tmp_path / "w")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(charged) == 1
        assert peak / N <= charged[0] / N
        assert len((tmp_path / "w").read_text().splitlines()) > N


B = cli.BLOCK_ROWS
BLOCK_SIZES = [B - 1, B, B + 1, 2 * B + 3]


def _weights_argv(N, fmt):
    return ["weights", "--n-window", str(N), "--k", "3", "--l", "1", "--big-r", "10",
            "--format", fmt, "--timestamp", TS]


@pytest.mark.parametrize("N", BLOCK_SIZES)
def test_weights_json_across_blocks_matches_the_encoder(capsys, N):
    rc, out = run(capsys, *_weights_argv(N, "json"))
    assert rc == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert len(json.loads(out)["rows"]) == N


@pytest.mark.parametrize("N", BLOCK_SIZES)
def test_weights_csv_across_blocks_matches_row_by_row_writer(capsys, N):
    rc, out = run(capsys, *_weights_argv(N, "csv"))
    assert rc == 0
    # the reference writes one row at a time with csv.writer and _fmt
    w = lambda_r_batch(N, 2 * N, WeightConfig(H=generate_tuple(3), l=1, R=10.0))
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(["n", "weight"])
    for n, v in zip(range(N, 2 * N), w.tolist()):
        writer.writerow([cli._fmt(n), cli._fmt(v)])
    assert out.split("\n", 1)[1] == ref.getvalue()


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_value_past_the_first_block_writes_nothing(capsys, tmp_path, fmt, bad):
    N = 2 * B + 3
    w = np.ones(N)
    w[B + 5] = bad
    out_file = tmp_path / "out"
    for extra in ([], ["--out", str(out_file)]):
        args = build_parser().parse_args(_weights_argv(N, fmt) + extra)
        with pytest.raises(ValueError, match="non-finite value in output"):
            cli._emit(args, {"N": N}, {"n": range(N, 2 * N), "weight": w})
        assert capsys.readouterr().out == ""
    assert not out_file.exists()


def test_cached_parser_keeps_no_state(capsys, monkeypatch):
    # usage text wraps at the terminal width: fix it for this process and the fresh ones
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [["density", "--r", "2", "--eps", "0.1", "--timestamp", TS],
             ["s-stat", "--n-window", "1000", "--k", "3", "--l", "1", "--big-r", "5", "--h", "5"],
             ["weights", "--n-window", "100", "--l", "1", "--big-r", "10", "--k", "0"],
             ["density", "--r", "2", "--eps", "0.1", "--timestamp", TS]]
    in_process = []
    for argv in argvs:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        in_process.append((rc, captured.out, captured.err))
    fresh = []
    for argv in argvs:
        out = _fresh_python(f"import sys; from primegaps.cli import main; sys.exit(main({argv!r}))")
        fresh.append((out.returncode, out.stdout, out.stderr))
    assert in_process == fresh
    assert [rc for rc, _, _ in fresh] == [0, 2, 1, 0]
    assert fresh[1][2].startswith("usage: primegaps s-stat")
