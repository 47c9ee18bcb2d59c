import json
import math
import subprocess
import sys
import tracemalloc

import pytest

from primegaps.cli import build_parser, main
from primegaps.density import c0

TS = "2024-01-01T00:00:00"


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


def test_cli_import_loads_no_quadrature_or_optimizer():
    # a fresh interpreter, since this one may have imported scipy already
    code = ("import sys, primegaps.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


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


def test_computation_error_exit_1(capsys):
    rc = main(["density", "--r", "1", "--eps", "0.1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc = main(["classify", "--n", "1"])
    assert rc == 1
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
                 ["moments", "--variant", "lemma3", *tup, "--n-window", "3000000", "--h", "1"]):
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
