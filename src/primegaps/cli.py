"""Command-line front end: every subsystem as a subcommand with CSV/JSON output.

Each subcommand returns a summary and, when it has rows, the row columns,
each a numpy array, a range or a list of one scalar type; `main` checks every
float in them once, so no output is written when a value is not finite, then
writes the rows in blocks of BLOCK_ROWS, each formatted into one string.
Every output embeds a run manifest (subcommand, parameters, seed, version,
timestamp); re-running with an identical manifest reproduces the output
byte-for-byte.  CSV files carry the manifest as a leading '#' comment line,
print numerics with 15 significant digits and quote fields that contain
commas (a tuple's offsets).

Exit codes: 0 success, 1 computation error (including a run too large for
physical memory, refused before allocating), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
import time
import warnings

import numpy as np

from . import __version__, balanced, density, equidist, tuples, weights
from .sieve import check_fits, mobius_up_to, trial_factorize

ARTIFACT_VERSION = __version__


def _manifest(args: argparse.Namespace) -> dict:
    skip = ("out", "format", "func", "parser", "subcommand", "seed", "timestamp")
    return {
        "subcommand": args.subcommand,
        "parameters": {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None},
        "seed": args.seed,
        "artifact_version": ARTIFACT_VERSION,
        "timestamp": args.timestamp or time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


# rows are formatted and written this many at a time
BLOCK_ROWS = 4096


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.15g}"
    if isinstance(v, list):
        return ",".join(map(str, v))
    return str(v)


def _is_float_column(values) -> bool:
    """Whether a row column holds floats; raises when one of them is not finite."""
    if isinstance(values, range):
        return False
    if isinstance(values, np.ndarray):
        floats = values.dtype.kind == "f"
        # the extremes are NaN when any value is and infinite when one is, and
        # need no N-sized bool temporary
        finite = not floats or bool(np.isfinite((values.min(), values.max())).all())
    else:  # a short list
        floats = [v for v in values if isinstance(v, float)]
        finite = all(map(math.isfinite, floats))
    if not finite:
        raise ValueError("non-finite value in output")
    return bool(floats)


def _row_blocks(columns: list):
    """The rows of equal-length columns, BLOCK_ROWS at a time, as tuples of Python scalars."""
    for lo in range(0, len(columns[0]), BLOCK_ROWS):
        block = (c[lo : lo + BLOCK_ROWS] for c in columns)
        yield zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in block))


def _emit(args, summary: dict, columns: dict) -> None:
    """Check every float of a subcommand's (summary, columns), then write them.

    columns maps each row field to a typed column of equal length ({} without
    rows: CSV then writes the summary as its one row): a numpy array, a range,
    or a list of one scalar type.  Rows go out BLOCK_ROWS at a time, each
    filling one %-template: JSON in the layout of json.dumps(indent=2,
    sort_keys=True), floats by %r (float.__repr__, as json writes them); CSV
    floats by %.15g, the same digits as _fmt.  Numeric fields need no CSV
    quoting.
    """
    for v in summary.values():
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError("non-finite value in output")
    has_rows = len(next(iter(columns.values()), ())) > 0
    is_float = {k: _is_float_column(c) for k, c in columns.items()} if has_rows else {}
    manifest = _manifest(args)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        if args.format == "csv":
            out.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
            writer = csv.writer(out, lineterminator="\n")
            if not has_rows:
                writer.writerows([summary, map(_fmt, summary.values())])
                return
            writer.writerow(columns)
            row = ",".join("%.15g" if is_float[k] else "%d" for k in columns) + "\n"
            for block in _row_blocks(list(columns.values())):
                out.write("".join(map(row.__mod__, block)))
            return
        head = json.dumps({"manifest": manifest, "results": summary}, indent=2, sort_keys=True)
        if not has_rows:
            out.write(head + "\n")
            return
        keys = sorted(columns)
        fields = (f"\n      {json.dumps(k)}: %{'r' if is_float[k] else 'd'}" for k in keys)
        row = "\n    {" + ",".join(fields) + "\n    }"
        # "rows" sorts after "manifest" and "results": reopen the head before its closing "\n}"
        out.write(head[:-2] + ',\n  "rows": [')
        sep = ""
        for block in _row_blocks([columns[k] for k in keys]):
            out.write(sep + ",".join(map(row.__mod__, block)))
            sep = ","
        out.write("\n  ]\n}\n")


def _load_tuple(args) -> tuples.AdmissibleTuple:
    if args.tuple_file:
        ts = tuples.read_tuple_file(args.tuple_file)
        if not ts:
            raise ValueError(f"no tuples found in {args.tuple_file}")
        return ts[0]
    if args.k is not None:
        return tuples.generate_tuple(args.k)
    raise ValueError("provide --tuple-file or --k")


def _weight_config(args) -> weights.WeightConfig:
    return weights.WeightConfig(H=_load_tuple(args), l=args.l, R=args.big_r)


def _star_spec(args) -> balanced.StarSetSpec:
    """The star-set spec of the arguments, its r range-checked before the window is sieved."""
    density.check_args(args.r, args.eps)
    return balanced.StarSetSpec(N=args.n_window, r=args.r, eps=args.eps)


# ---------------------------------------------------------------- subcommands


def cmd_classify(args):
    cls = balanced.classify(trial_factorize(args.n))
    row = {
        "n": cls.n,
        "omega": cls.omega_big,
        "threshold": cls.threshold,
        "is_prime": int(cls.is_prime),
    }
    return row, {k: [v] for k, v in row.items()}


def cmd_count_star(args):
    N = args.n_window
    count, predicted = balanced.count_star(_star_spec(args))
    return {
        "N": N,
        "r": args.r,
        "eps": args.eps,
        "count": count,
        "predicted": predicted,
        "ratio": count / predicted if predicted > 0 else 0.0,
    }, {}


def cmd_density(args):
    res = density.c0(args.r, args.eps)
    return {
        "r": res.r,
        "eps": res.eps,
        "value": res.value,
        "abs_error_estimate": res.abs_error_estimate,
        "upper_bound": density.c0_upper_bound(args.r, args.eps) if args.eps > 0 else 0.0,
    }, {}


def cmd_tuple(args):
    t = tuples.generate_tuple(args.k)
    return {
        "k": t.k,
        "offsets": list(t.offsets),
        "diameter": t.diameter,
        "admissible": int(tuples.is_admissible(t)),
    }, {}


def cmd_singular_series(args):
    H = _load_tuple(args)
    s = tuples.singular_series(H, args.p_max)
    return {
        "offsets": list(H.offsets),
        "k": H.k,
        "p_max": s.p_max,
        "value": s.value,
        "tail_log_bound": s.tail_log_bound,
    }, {}


def cmd_constants(args):
    q = tuples.GpyConstantsQuery(theta=args.theta)
    k0, c = tuples.gpy_constants(q)
    summary = {
        "theta": args.theta,
        "delta": q.delta,
        "formula_k0": k0,
        "formula_c_asymptotic": c,
    }
    ref = tuples.REFERENCE_LEVELS.get(round(args.theta, 6))
    if ref is not None:
        summary["reference_k0"] = ref[0]
        summary["reference_c"] = ref[1]
    return summary, {}


def cmd_weights(args):
    cfg = _weight_config(args)
    N = args.n_window
    # the vector's 8 B per integer, and one block of rows as Python floats,
    # row strings and the text written (under 1 MiB at BLOCK_ROWS = 4096)
    check_fits(8 * N + (2 << 20))
    w = weights.lambda_r_batch(N, 2 * N, cfg)
    summary = {"N": N, "k": cfg.k, "l": cfg.l, "R": cfg.R, "count": len(w)}
    return summary, {"n": range(N, 2 * N), "weight": w}


def cmd_moments(args):
    cfg = _weight_config(args)
    if not tuples.is_admissible(cfg.H):  # its predicted main terms would all be 0
        raise ValueError(f"tuple {cfg.H.offsets} is not admissible")
    N = args.n_window
    if args.subcommand == "s-stat":
        rep = weights.s_statistic(N, cfg, _star_spec(args))
    elif args.variant == weights.LEMMA1:
        rep = weights.moment_lemma1(N, cfg)
    elif args.variant == weights.LEMMA2:
        rep = weights.moment_lemma2(N, cfg, args.h)
    else:
        rep = weights.moment_lemma3(N, cfg, args.h, _star_spec(args))
    return {
        "N": rep.N,
        "variant": rep.variant,
        "empirical": rep.empirical,
        "predicted": rep.predicted_main_term,
        "ratio": rep.ratio,
        **rep.extra,
    }, {}


def _discrepancy(rep: equidist.DiscrepancyReport):
    """The report's totals, and its QRow fields as columns (alt_* only when set)."""
    fields = ["q", "worst_a", "max_abs_dev", "main_term"]
    if rep.per_q and rep.per_q[0].alt_max_abs_dev is not None:
        fields += ["alt_max_abs_dev", "alt_main_term"]
    columns = {f: np.array([getattr(r, f) for r in rep.per_q]) for f in fields}
    return {"total": rep.total, "main_term_used": rep.main_term_used}, columns


def cmd_bv(args):
    N = args.n_window
    cfg = equidist.DiscrepancyConfig(N=N, q_max=args.q_max)
    return _discrepancy(equidist.bv_prime_discrepancy(cfg))


def cmd_bv_star(args):
    N = args.n_window
    spec = _star_spec(args)
    cfg = equidist.DiscrepancyConfig(N=N, q_max=args.q_max, target=equidist.STAR_SET_WINDOW, spec=spec)
    return _discrepancy(equidist.bv_star_discrepancy(cfg))


def cmd_bv_weighted(args):
    N = args.n_window
    m_max = int(N ** (1.0 - args.alpha))
    # equidist's buffers, then f's 8 B per m; mobius_up_to charges its own sieve
    check_fits(equidist.weighted_nbytes(N, m_max, args.q_max) + 8 * m_max)
    if args.f == "const1":
        f = np.ones(m_max)
    elif args.f == "mobius":
        f = mobius_up_to(m_max)
    else:
        f = np.zeros(m_max)
        listed = set()
        for m, val in np.loadtxt(args.f, ndmin=2):
            if not (m >= 1 and m == np.floor(m)):  # NaN fails both
                raise ValueError(f"{args.f}: m = {m:g} is not an integer >= 1")
            if m in listed:
                raise ValueError(f"{args.f}: m = {m:g} is listed twice")
            listed.add(m)
            if m <= m_max:
                f[int(m) - 1] = val
    cfg = equidist.DiscrepancyConfig(N=N, q_max=args.q_max)
    return _discrepancy(equidist.weighted_discrepancy(cfg, args.alpha, f))


# -------------------------------------------------------------------- parser


def _add_common(p: argparse.ArgumentParser, func) -> None:
    p.set_defaults(func=func, parser=p)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timestamp", default=None,
                   help="fix the manifest timestamp (for reproducible outputs)")


def _add_weight_args(p: argparse.ArgumentParser) -> None:
    """The window and (H, l, R) options of weights, moments and s-stat."""
    p.add_argument("--n-window", type=int, required=True, metavar="N")
    p.add_argument("--tuple-file", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--big-r", type=float, required=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    # no prefix matching of long options: s-stat has no --h, and --h must not read as --help
    exact = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    ap = exact(prog="primegaps")
    sub = ap.add_subparsers(dest="subcommand", required=True, parser_class=exact)

    p = sub.add_parser("classify", help="balance threshold of one integer")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, cmd_classify)

    p = sub.add_parser("count-star", help="star-set count over [N, 2N)")
    p.add_argument("--n-window", type=int, required=True, metavar="N")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    _add_common(p, cmd_count_star)

    p = sub.add_parser("density", help="density constant C0(r, eps)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    _add_common(p, cmd_density)

    p = sub.add_parser("tuple", help="deterministic admissible k-tuple")
    p.add_argument("--k", type=int, required=True)
    _add_common(p, cmd_tuple)

    p = sub.add_parser("singular-series", help="Euler product for a tuple")
    p.add_argument("--tuple-file", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--p-max", type=int, default=1_000_000)
    _add_common(p, cmd_singular_series)

    p = sub.add_parser("constants", help="level-of-distribution constants")
    p.add_argument("--theta", type=float, required=True)
    _add_common(p, cmd_constants)

    p = sub.add_parser("weights", help="per-n sieve weights over [N, 2N)")
    _add_weight_args(p)
    _add_common(p, cmd_weights)

    p = sub.add_parser("moments", help="empirical vs predicted moment sums")
    p.add_argument("--variant", choices=("lemma1", "lemma2", "lemma3"), required=True)
    _add_weight_args(p)
    p.add_argument("--h", type=int, default=0)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--eps", type=float, default=0.3)
    _add_common(p, cmd_moments)

    p = sub.add_parser("s-stat", help="hits-minus-one weighted statistic")
    _add_weight_args(p)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--eps", type=float, default=0.3)
    _add_common(p, cmd_moments)

    p = sub.add_parser("bv", help="prime discrepancy over progressions")
    p.add_argument("--n-window", type=int, required=True, metavar="N")
    p.add_argument("--q-max", type=int, required=True)
    _add_common(p, cmd_bv)

    p = sub.add_parser("bv-star", help="star-set discrepancy over progressions")
    p.add_argument("--n-window", type=int, required=True, metavar="N")
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    _add_common(p, cmd_bv_star)

    p = sub.add_parser("bv-weighted", help="bounded-coefficient discrepancy")
    p.add_argument("--n-window", type=int, required=True, metavar="N")
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--f", default="const1",
                   help="built-in name (const1, mobius) or a file of lines 'm f(m)', each m an "
                        "integer >= 1 listed once; an m above N^(1-alpha) is ignored")
    _add_common(p, cmd_bv_weighted)

    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; its UserWarnings print as 'warning: <message>' lines on stderr."""
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # an unknown option gets the usage of the subcommand it was passed to
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    with warnings.catch_warnings(record=True) as caught:
        try:
            _emit(args, *args.func(args))
            error = None
        except (ValueError, ArithmeticError, OSError) as exc:
            error = exc
    for w in caught:
        if issubclass(w.category, UserWarning):
            print(f"warning: {w.message}", file=sys.stderr)
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
