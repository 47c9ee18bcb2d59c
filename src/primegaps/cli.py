"""Command-line front end: every subsystem as a subcommand with CSV/JSON output.

Every output embeds a run manifest (subcommand, parameters, seed, version,
timestamp); re-running with an identical manifest reproduces the output
byte-for-byte.  CSV files carry the manifest as a leading '#' comment line
and print numerics with 15 significant digits.

Exit codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, balanced, density, equidist, tuples, weights
from .sieve import build_factor_table, factorize

ARTIFACT_VERSION = __version__


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    parameters: dict
    seed: int
    artifact_version: str
    timestamp: str


def _manifest(args: argparse.Namespace, skip=("out", "format", "func")) -> RunManifest:
    params = {
        k: v for k, v in sorted(vars(args).items())
        if k not in skip and k not in ("subcommand", "seed", "timestamp") and v is not None
    }
    return RunManifest(
        subcommand=args.subcommand,
        parameters=params,
        seed=args.seed,
        artifact_version=ARTIFACT_VERSION,
        timestamp=args.timestamp or time.strftime("%Y-%m-%dT%H:%M:%S"),
    )


def _fmt(v) -> str:
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"non-finite value {v} in CSV output")
        return f"{v:.15g}"
    return str(v)


def _check_finite(obj) -> None:
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError("non-finite value in output")
    if isinstance(obj, dict):
        for v in obj.values():
            _check_finite(v)
    if isinstance(obj, (list, tuple)):
        for v in obj:
            _check_finite(v)


def _emit(args, manifest: RunManifest, rows: list[dict], summary: dict) -> None:
    _check_finite(summary)
    for row in rows:
        _check_finite(row)
    if args.format == "json":
        payload = {"manifest": asdict(manifest), "results": summary}
        if rows:
            payload["rows"] = rows
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = ["# manifest: " + json.dumps(asdict(manifest), sort_keys=True)]
        if rows:
            header = list(rows[0].keys())
            lines.append(",".join(header))
            lines += [",".join(_fmt(r[h]) for h in header) for r in rows]
        else:
            lines.append(",".join(summary.keys()))
            lines.append(",".join(_fmt(v) for v in summary.values()))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_tuple(args) -> tuples.AdmissibleTuple:
    if getattr(args, "tuple_file", None):
        ts = tuples.read_tuple_file(args.tuple_file)
        if not ts:
            raise ValueError(f"no tuples found in {args.tuple_file}")
        return ts[0]
    if getattr(args, "k", None):
        return tuples.generate_tuple(args.k)
    raise ValueError("provide --tuple-file or --k")


def _star_spec(args) -> balanced.StarSetSpec:
    """The star-set spec of the arguments, its r range-checked before any table is built."""
    density.check_args(args.r, args.eps)
    return balanced.StarSetSpec(N=args.n_window, r=args.r, eps=args.eps)


# ---------------------------------------------------------------- subcommands


def cmd_classify(args) -> None:
    n = args.n
    table = build_factor_table(max(2, n - 1), n + 2)
    cls = balanced.classify(factorize(table, n))
    row = {
        "n": cls.n,
        "omega": cls.omega_big,
        "threshold": cls.threshold,
        "is_prime": int(cls.is_prime),
    }
    _emit(args, _manifest(args), [row], row)


def cmd_count_star(args) -> None:
    N = args.n_window
    spec = _star_spec(args)
    table = build_factor_table(N, 2 * N)
    count, predicted = balanced.count_star(spec, table)
    summary = {
        "N": N,
        "r": args.r,
        "eps": args.eps,
        "count": count,
        "predicted": predicted,
        "ratio": count / predicted if predicted > 0 else 0.0,
    }
    _emit(args, _manifest(args), [], summary)


def cmd_density(args) -> None:
    res = density.c0(args.r, args.eps)
    summary = {
        "r": res.r,
        "eps": res.eps,
        "value": res.value,
        "abs_error_estimate": res.abs_error_estimate,
        "upper_bound": density.c0_upper_bound(args.r, args.eps) if args.eps > 0 else 0.0,
    }
    _emit(args, _manifest(args), [], summary)


def cmd_tuple(args) -> None:
    t = tuples.generate_tuple(args.k)
    summary = {
        "k": t.k,
        "offsets": ",".join(str(h) for h in t.offsets) if args.format == "csv" else list(t.offsets),
        "diameter": t.diameter,
        "admissible": int(tuples.is_admissible(t)),
    }
    _emit(args, _manifest(args), [], summary)


def cmd_singular_series(args) -> None:
    H = _load_tuple(args)
    s = tuples.singular_series(H, args.p_max)
    summary = {
        "offsets": ",".join(str(h) for h in H.offsets) if args.format == "csv" else list(H.offsets),
        "k": H.k,
        "p_max": s.p_max,
        "value": s.value,
        "tail_log_bound": s.tail_log_bound,
    }
    _emit(args, _manifest(args), [], summary)


def cmd_constants(args) -> None:
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
    _emit(args, _manifest(args), [], summary)


def cmd_weights(args) -> None:
    H = _load_tuple(args)
    cfg = weights.WeightConfig(H=H, l=args.l, R=args.big_r)
    N = args.n_window
    w = weights.lambda_r_batch(N, 2 * N, cfg)
    rows = [{"n": int(N + i), "weight": float(w[i])} for i in range(len(w))]
    summary = {"N": N, "k": cfg.k, "l": cfg.l, "R": cfg.R, "count": len(rows)}
    _emit(args, _manifest(args), rows, summary)


def _moment_summary(rep: weights.MomentReport) -> dict:
    out = {
        "N": rep.N,
        "variant": rep.variant,
        "empirical": rep.empirical,
        "predicted": rep.predicted_main_term,
        "ratio": rep.ratio,
    }
    for key, val in rep.extra.items():
        if isinstance(val, (int, float, str, bool)):
            out[key] = val
    return out


def cmd_moments(args) -> None:
    H = _load_tuple(args)
    cfg = weights.WeightConfig(H=H, l=args.l, R=args.big_r)
    N = args.n_window
    spec = _star_spec(args) if args.variant == "lemma3" else None
    weights.check_moment_args(N, cfg, None if args.variant == "lemma1" else args.h, spec)
    table = build_factor_table(N, 2 * N + max(H.offsets) + 1)
    if args.variant == "lemma1":
        rep = weights.moment_lemma1(N, cfg, table)
    elif args.variant == "lemma2":
        rep = weights.moment_lemma2(N, cfg, args.h, table)
    else:
        rep = weights.moment_lemma3(N, cfg, args.h, spec, table)
    _emit(args, _manifest(args), [], _moment_summary(rep))


def cmd_s_stat(args) -> None:
    H = _load_tuple(args)
    cfg = weights.WeightConfig(H=H, l=args.l, R=args.big_r)
    N = args.n_window
    spec = _star_spec(args)
    weights.check_moment_args(N, cfg, spec=spec)
    table = build_factor_table(N, 2 * N + max(H.offsets) + 1)
    rep = weights.s_statistic(N, cfg, spec, table)
    _emit(args, _manifest(args), [], _moment_summary(rep))


def _emit_discrepancy(args, rep: equidist.DiscrepancyReport) -> None:
    rows = []
    for r in rep.per_q:
        row = {"q": r.q, "worst_a": r.worst_a, "max_abs_dev": r.max_abs_dev, "main_term": r.main_term}
        if r.alt_max_abs_dev is not None:
            row["alt_max_abs_dev"] = r.alt_max_abs_dev
            row["alt_main_term"] = r.alt_main_term
        rows.append(row)
    summary = {"total": rep.total, "main_term_used": rep.main_term_used}
    _emit(args, _manifest(args), rows, summary)


def cmd_bv(args) -> None:
    N = args.n_window
    cfg = equidist.DiscrepancyConfig(N=N, q_max=args.q_max)
    table = build_factor_table(2, N + 1)
    rep = equidist.bv_prime_discrepancy(cfg, table)
    _emit_discrepancy(args, rep)


def cmd_bv_star(args) -> None:
    N = args.n_window
    spec = _star_spec(args)
    cfg = equidist.DiscrepancyConfig(N=N, q_max=args.q_max, target=equidist.STAR_SET_WINDOW, spec=spec)
    table = build_factor_table(N, 2 * N)
    rep = equidist.bv_star_discrepancy(cfg, table)
    _emit_discrepancy(args, rep)


def cmd_bv_weighted(args) -> None:
    N = args.n_window
    m_max = int(N ** (1.0 - args.alpha))
    if args.f == "const1":
        f = np.ones(m_max)
    elif args.f == "mobius":
        from .sieve import mobius

        ft = build_factor_table(2, m_max + 1)
        f = np.array([1.0] + [float(mobius(factorize(ft, m))) for m in range(2, m_max + 1)])
    else:
        data = np.loadtxt(args.f, ndmin=2)
        f = np.zeros(m_max)
        for m, val in data:
            if 1 <= int(m) <= m_max:
                f[int(m) - 1] = val
    cfg = equidist.DiscrepancyConfig(N=N, q_max=args.q_max)
    table = build_factor_table(2, N + 1)
    rep = equidist.weighted_discrepancy(cfg, args.alpha, f, table)
    _emit_discrepancy(args, rep)


# -------------------------------------------------------------------- parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timestamp", default=None,
                   help="fix the manifest timestamp (for reproducible outputs)")


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching of long options: s-stat has no --h, and --h must not read as --help
    exact = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    ap = exact(prog="primegaps")
    sub = ap.add_subparsers(dest="subcommand", required=True, parser_class=exact)

    p = sub.add_parser("classify", help="balance threshold of one integer")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_classify)
    _add_common(p)

    p = sub.add_parser("count-star", help="star-set count over [N, 2N)")
    p.add_argument("--n-window", type=int, required=True, metavar="N")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=cmd_count_star)
    _add_common(p)

    p = sub.add_parser("density", help="density constant C0(r, eps)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=cmd_density)
    _add_common(p)

    p = sub.add_parser("tuple", help="deterministic admissible k-tuple")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_tuple)
    _add_common(p)

    p = sub.add_parser("singular-series", help="Euler product for a tuple")
    p.add_argument("--tuple-file", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--p-max", type=int, default=1_000_000)
    p.set_defaults(func=cmd_singular_series)
    _add_common(p)

    p = sub.add_parser("constants", help="level-of-distribution constants")
    p.add_argument("--theta", type=float, required=True)
    p.set_defaults(func=cmd_constants)
    _add_common(p)

    p = sub.add_parser("weights", help="per-n sieve weights over [N, 2N)")
    p.add_argument("--n-window", type=int, required=True, metavar="N")
    p.add_argument("--tuple-file", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--big-r", type=float, required=True)
    p.set_defaults(func=cmd_weights)
    _add_common(p)

    p = sub.add_parser("moments", help="empirical vs predicted moment sums")
    p.add_argument("--variant", choices=("lemma1", "lemma2", "lemma3"), required=True)
    p.add_argument("--n-window", type=int, required=True, metavar="N")
    p.add_argument("--tuple-file", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--big-r", type=float, required=True)
    p.add_argument("--h", type=int, default=0)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--eps", type=float, default=0.3)
    p.set_defaults(func=cmd_moments)
    _add_common(p)

    p = sub.add_parser("s-stat", help="hits-minus-one weighted statistic")
    p.add_argument("--n-window", type=int, required=True, metavar="N")
    p.add_argument("--tuple-file", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--big-r", type=float, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--eps", type=float, default=0.3)
    p.set_defaults(func=cmd_s_stat)
    _add_common(p)

    p = sub.add_parser("bv", help="prime discrepancy over progressions")
    p.add_argument("--n-window", type=int, required=True, metavar="N")
    p.add_argument("--q-max", type=int, required=True)
    p.set_defaults(func=cmd_bv)
    _add_common(p)

    p = sub.add_parser("bv-star", help="star-set discrepancy over progressions")
    p.add_argument("--n-window", type=int, required=True, metavar="N")
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=cmd_bv_star)
    _add_common(p)

    p = sub.add_parser("bv-weighted", help="bounded-coefficient discrepancy")
    p.add_argument("--n-window", type=int, required=True, metavar="N")
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--f", default="const1",
                   help="built-in name (const1, mobius) or a two-column file")
    p.set_defaults(func=cmd_bv_weighted)
    _add_common(p)

    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; its UserWarnings print as 'warning: <message>' lines on stderr."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            args.func(args)
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
