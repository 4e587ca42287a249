"""Outside-in tracing of obsdecay: spans and counters recorded by wrapping the
package's public functions from the benchmark's own code.

A span is recorded around every call of a traced function, wherever the
function is bound: ``spectrum.full_spectrum`` is also reached as
``obsdecay.full_spectrum``, ``charfn.localize`` as ``spectrum.localize`` and as
``cli.charfn.localize``, and each binding is replaced.  Counters are taken at
one call site module, named in the metric (``spectrum.eval_f.points`` counts
the points ``spectrum`` passes to ``eval_f``).

Spans stay in memory as ``(iteration, request, name, start, end, parent)``
rows and are written out once, when the benchmark ends.  ``fitting`` and
``state`` are helpers and are not traced: their time counts inside the caller.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import sys
import time

import numpy as np

LAYERS = ("model", "charfn", "spectrum", "resolvent", "modal", "dynamics",
          "reports", "cli")

# (module, function, span name); the span covers every binding of the function.
SPAN_TARGETS = (
    ("model", "certify_assumptions", "model.certify_assumptions"),
    ("charfn", "localize", "charfn.localize"),
    ("charfn", "estimate_M", "charfn.estimate_M"),
    ("spectrum", "full_spectrum", "spectrum.full_spectrum"),
    ("spectrum", "newton_root", "spectrum.newton_root"),
    ("spectrum", "winding_number", "spectrum.winding_number"),
    ("modal", "build_basis", "modal.build_basis"),
    ("resolvent", "axis_scan", "resolvent.axis_scan"),
    ("resolvent", "apply_resolvent", "resolvent.apply_resolvent"),
    ("dynamics", "simulate_error", "dynamics.simulate_error"),
    ("dynamics", "decay_fit_trajectory", "dynamics.decay_fit_trajectory"),
    ("dynamics", "decay_envelope", "dynamics.decay_envelope"),
    ("reports", "write_json", "reports.write"),
    ("reports", "write_localization_csv", "reports.write"),
    ("reports", "write_spectrum_csv", "reports.write"),
    ("reports", "write_spectrum_plot_csv", "reports.write"),
    ("reports", "write_axis_scan_csv", "reports.write"),
    ("reports", "write_trajectory_csv", "reports.write"),
    ("reports", "write_q_binary", "reports.write"),
    ("cli", "main", "cli.main"),
)
TIMED_SPANS = tuple(dict.fromkeys(name for _, _, name in SPAN_TARGETS if name != "cli.main"))

COUNTERS = ("charfn.eval_F.points", "spectrum.eval_f.points", "spectrum.newton_iters",
            "spectrum.fallback_roots", "dynamics.rhs_evals", "reports.bytes")


def _bindings(fn):
    """Every (module, attribute) of the loaded obsdecay package bound to fn."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "obsdecay" or modname.startswith("obsdecay.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is fn:
                yield mod, attr


class Tracer:
    """Records spans and counters while installed; see :meth:`recording`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._ids = (0, "")
        self._localized: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # ---- wrappers ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            row = [self._ids[0], self._ids[1], name, time.perf_counter(), None, parent]
            self.spans.append(row)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                row[4] = time.perf_counter()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _counter(self, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(args, kwargs, result)
            return result
        return wrapper

    # ---- per-call counts --------------------------------------------------

    def _before_localize(self, args, kwargs):
        ctx = args[0] if args else kwargs["ctx"]
        sys_ = ctx.sys
        self._localized.add((sys_.gamma, sys_.omegas.tobytes(), sys_.cs.tobytes(), ctx.k))

    def _after_newton(self, args, kwargs, result):
        self.counts["spectrum.newton_iters"] += result[2]

    def _after_full_spectrum(self, args, kwargs, rep):
        self.counts["spectrum.systems"] += 1
        self.counts["spectrum.complete"] += int(rep.complete)
        self.counts["spectrum.roots"] += len(rep.eigs)
        self.counts["spectrum.fallback_roots"] += sum(e.fallback for e in rep.eigs)

    def _after_write(self, args, kwargs, result):
        path = kwargs.get("path") or next(a for a in args if isinstance(a, str))
        self.counts["reports.bytes"] += os.path.getsize(path)

    def _count_points(self, key):
        def count(args, kwargs, result):
            self.counts[key] += int(np.size(args[1] if len(args) > 1 else kwargs["lam"]))
        return count

    def _count_nfev(self, args, kwargs, sol):
        self.counts["dynamics.rhs_evals"] += int(sol.nfev)

    # ---- installation -----------------------------------------------------

    def _install(self):
        import importlib

        mods = {name: importlib.import_module(f"obsdecay.{name}") for name in LAYERS}
        charfn, dynamics, spectrum = mods["charfn"], mods["dynamics"], mods["spectrum"]
        after = {
            "spectrum.newton_root": self._after_newton,
            "spectrum.full_spectrum": self._after_full_spectrum,
            "reports.write": self._after_write,
        }
        for modname, attr, name in SPAN_TARGETS:
            fn = getattr(mods[modname], attr)
            before = self._before_localize if name == "charfn.localize" else None
            wrapper = self._span(name, fn, before, after.get(name))
            for mod, bound in list(_bindings(fn)):
                self._patch(mod, bound, wrapper)
        self._patch(charfn, "eval_F", self._counter(charfn.eval_F,
                                                    self._count_points("charfn.eval_F.points")))
        self._patch(spectrum, "eval_f", self._counter(spectrum.eval_f,
                                                      self._count_points("spectrum.eval_f.points")))
        self._patch(dynamics, "solve_ivp", self._counter(dynamics.solve_ivp, self._count_nfev))

    def _patch(self, mod, attr, new):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def _uninstall(self):
        while self._patched:
            mod, attr, old = self._patched.pop()
            setattr(mod, attr, old)

    @contextlib.contextmanager
    def recording(self, iteration: int):
        """Trace one iteration; the yielded Counter holds its counts on exit."""
        self.counts = collections.Counter()
        self._localized = set()
        self._ids = (iteration, "")
        self._install()
        try:
            yield self.counts
        finally:
            self._uninstall()
        self.counts["charfn.localize.distinct"] = len(self._localized)

    def request(self, request_id: str) -> None:
        """Tag the spans that follow with a request id (one system or report)."""
        self._ids = (self._ids[0], request_id)

    # ---- aggregation ------------------------------------------------------

    def iteration_times(self, iteration: int) -> dict[str, dict[str, float]]:
        """Total time, self time and call count per span name, for one iteration.

        Self time is the span's duration minus the time its direct children
        cover; spans run on one thread, so children never overlap.
        """
        rows = [(i, r) for i, r in enumerate(self.spans) if r[0] == iteration]
        child_time = collections.defaultdict(float)
        for _, r in rows:
            if r[5] >= 0:
                child_time[r[5]] += r[4] - r[3]
        out: dict = collections.defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, r in rows:
            dur = r[4] - r[3]
            agg = out[r[2]]
            agg["s"] += dur
            agg["self_s"] += dur - child_time[i]
            agg["calls"] += 1
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"columns": ["iteration", "request", "name", "start", "end", "parent"],
                       "spans": self.spans}, handle)
