"""In-memory span tracing of the primegaps package, installed from outside.

`Tracer.install` replaces every public function of the package's modules
with a wrapper that records a span: name, start, end, parent span and the
tracemalloc peak reached inside it.  The wrapper is put in place of the
original under every name that refers to it in any package module, so a
name another module bound at import time (`from .sieve import factorize`)
is traced as well and nested calls become child spans.

A few functions also record a small `info` value taken from their
arguments or result; `layers.py` turns those into computed work counts.
Small functions called thousands of times per pass (COUNTED) are only
counted, not spanned: a span costs microseconds, which would swamp them
and inflate their callers.  Their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
import types
from collections import defaultdict

PACKAGE = "primegaps"

COUNTED = frozenset({
    "sieve.log_integral", "sieve.euler_phi_int", "sieve.euler_phi", "sieve.factorize",
    "sieve.mobius", "tuples.nu_p", "tuples.positivity_factor",
})


def _args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _info_table(fn, args, kwargs, result):
    a = _args(fn, args, kwargs)
    nbytes = sum(x.nbytes for x in (result.p_minus, result.p_plus, result.omega, result.primes))
    return a["lo"], a["hi"], nbytes


def _info_weights(fn, args, kwargs, result):
    a = _args(fn, args, kwargs)
    cfg = a["cfg"]
    return a["lo"], a["hi"], tuple(cfg.H.offsets), cfg.l, float(cfg.R)


def _info_qmax(fn, args, kwargs, result):
    return _args(fn, args, kwargs)["cfg"].q_max


def _info_weighted(fn, args, kwargs, result):
    a = _args(fn, args, kwargs)
    return a["cfg"].N, a["alpha"], a["cfg"].q_max, a["f"]


def _info_mc(fn, args, kwargs, result):
    return _args(fn, args, kwargs)["samples"]


def _info_cli(fn, args, kwargs, result):
    argv = _args(fn, args, kwargs)["argv"]
    return argv[0] if argv else None


INFO = {
    "sieve.build_factor_table": _info_table,
    "weights.lambda_r_batch": _info_weights,
    "equidist.bv_prime_discrepancy": _info_qmax,
    "equidist.bv_star_discrepancy": _info_qmax,
    "equidist.weighted_discrepancy": _info_weighted,
    "density.c0_monte_carlo": _info_mc,
    "cli.main": _info_cli,
}


class Tracer:
    """Span recorder; spans are tuples kept in `self.spans` until written out.

    A span is (pass, id, parent id, name, start, end, peak bytes, info),
    with parent id -1 for a root.  Peak bytes is the tracemalloc peak
    inside the span above the traced memory at its start; it is recorded
    only while `memory` is on, because tracemalloc slows every Python
    allocation and would distort the times of Python-heavy layers.
    """

    def __init__(self):
        self.spans: list = []
        self.pass_no = 0
        self.memory = False
        self.counts: dict[tuple[int, str], int] = defaultdict(int)  # (pass, name) -> calls
        self._stack: list[list] = []  # [span id, base bytes, peak bytes]
        self._saved: list[tuple[dict, str, object]] = []

    # -------------------------------------------------------------- spans

    def _enter(self) -> tuple[int, int]:
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        cur = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][2] = max(stack[-1][2], peak)
            tracemalloc.reset_peak()
        stack.append([sid, cur, cur])
        return sid, parent

    def _leave(self, sid: int, parent: int, name: str, t0: float, t1: float, info) -> None:
        frame = self._stack.pop()
        peak = None
        if self.memory:
            top = max(frame[2], tracemalloc.get_traced_memory()[1])
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], top)
            tracemalloc.reset_peak()
            peak = top - frame[1]
        self.spans[sid] = (self.pass_no, sid, parent, name, t0, t1, peak, info)

    def memory_pass(self, fn):
        """Run fn as one more traced pass with tracemalloc peaks recorded."""
        self.pass_no += 1
        self.memory = True
        tracemalloc.start()
        try:
            return self.span("bench.pass", fn)
        finally:
            tracemalloc.stop()
            self.memory = False

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        sid, parent = self._enter()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(sid, parent, name, t0, time.perf_counter(), None)

    def _wrap(self, name: str, fn):
        if name in COUNTED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[self.pass_no, name] += 1
                return fn(*args, **kwargs)

            return counted

        hook = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._enter()
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                info = hook(fn, args, kwargs, result) if hook and result is not None else None
                self._leave(sid, parent, name, t0, t1, info)

        return traced

    # ---------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every public package function under all its bound names."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == PACKAGE or n.startswith(PACKAGE + ".")) and isinstance(m, types.ModuleType)]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    short = mod.__name__.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{obj.__name__}", obj))
        for mod in modules:
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._saved.append((ns, attr, obj))
                    ns[attr] = wrappers[id(obj)][1]

    def uninstall(self) -> None:
        for ns, attr, obj in self._saved:
            ns[attr] = obj
        self._saved.clear()
