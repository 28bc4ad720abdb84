"""Spans and exact work counts recorded from outside the growthlab package.

The tracer rebinds public functions of the growthlab modules for the
duration of a ``with tracer.installed():`` block and restores them after.
Every growthlab module that imported a function by name holds its own
reference, so each such reference is rebound too: that is how the calls
made inside the package (``growth.log_quad``, the checks called by
``run_inequality_suite``, the handlers in ``cli``) are reached.

A span is (name, start, end, parent span index, op id); spans stay in
memory and are written out once, when the run ends.  Exact counts are kept
per op, so that two passes over the same input can be compared.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name) of every traced layer boundary, bottom up
TARGETS = (
    ("growthlab.quadrature", "log_quad", "quadrature.log_quad"),
    ("growthlab.growth", "log_ball_integral", "growth.log_ball_integral"),
    ("growthlab.growth", "log_energy_integral", "growth.log_energy_integral"),
    ("growthlab.growth", "check_growth_lower_bound",
     "growth.check_growth_lower_bound"),
    ("growthlab.growth", "check_caccioppoli", "growth.check_caccioppoli"),
    ("growthlab.growth", "check_surface_capacity",
     "growth.check_surface_capacity"),
    ("growthlab.growth", "run_inequality_suite", "growth.suite"),
    ("growthlab.growth", "measure_rate", "growth.measure_rate"),
    ("growthlab.growth", "estimate_rate", "growth.estimate_rate"),
    ("growthlab.models", "subsolution_residual", "models.subsolution_residual"),
    ("growthlab.models", "fd_cross_check", "models.fd_cross_check"),
    ("growthlab.params", "solve_C1", "params.solve_C1"),
    ("growthlab.params", "comparison_constants", "params.comparison_constants"),
    ("growthlab.sharp", "build_sharp_example", "sharp.build_sharp_example"),
    ("growthlab.cli", "main", "cli.main"),
)

# counters compared between two passes over the same input
EXACT_COUNTS = ("quad_calls", "evals", "panels", "gh_calls", "gh_distinct",
                "quad_failures", "suite_failed_checks")


class Tracer:
    """The spans and per-op counters of one traced run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._gh_keys: dict[int, set] = defaultdict(set)
        self.worst_rel_error = 0.0
        self.worst_rate_gap = 0.0

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name; spans nest by call stack."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        if hook is not None:
            return hook(name, fn)

        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    # -- layer-specific counters --------------------------------------------

    def _hook_quadrature_log_quad(self, name, fn):
        def traced(logf, lo, hi, *args, **kwargs):
            c = self.counts[self.op_id]

            def counted(x):
                c["evals"] += 1
                return logf(x)
            c["quad_calls"] += 1
            try:
                res = self.span(name, fn, counted, lo, hi, *args, **kwargs)
            except Exception:
                c["quad_failures"] += 1
                raise
            c["panels"] += res.panels
            self.worst_rel_error = max(self.worst_rel_error, res.rel_error)
            return res
        return traced

    def _hook_growth_log_ball_integral(self, name, fn):
        # G and H are keyed by (functional, manifold, profile, numbers...)
        def traced(*args, **kwargs):
            key = (name, id(args[0]), id(args[1]), *args[2:],
                   *sorted(kwargs.items()))
            self.counts[self.op_id]["gh_calls"] += 1
            self._gh_keys[self.op_id].add(key)
            return self.span(name, fn, *args, **kwargs)
        return traced

    _hook_growth_log_energy_integral = _hook_growth_log_ball_integral

    def _hook_growth_suite(self, name, fn):
        def traced(*args, **kwargs):
            reports = self.span(name, fn, *args, **kwargs)
            failed = sum(not r.passed for r in reports)
            self.counts[self.op_id]["suite_failed_checks"] += failed
            return reports
        return traced

    def _hook_growth_measure_rate(self, name, fn):
        def traced(example, *args, **kwargs):
            est = self.span(name, fn, example, *args, **kwargs)
            gap = abs(est.rate - example.expected_rate) \
                / abs(example.expected_rate)
            self.worst_rate_gap = max(self.worst_rate_gap, gap)
            return est
        return traced

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Rebind every growthlab reference to a traced function; restore."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "growthlab" or n.startswith("growthlab.")]
        saved = []
        for mod_name, attr, name in TARGETS:
            home = sys.modules.get(mod_name)
            if home is None:
                continue
            orig = getattr(home, attr)
            traced = self._wrap(name, orig)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, traced)
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def op_counts(self, op_id: int) -> dict:
        c = dict(self.counts.get(op_id, {}))
        c["gh_distinct"] = len(self._gh_keys.get(op_id, ()))
        return {k: c.get(k, 0) for k in EXACT_COUNTS}

    # -- summaries -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """name -> [calls, busy seconds, self seconds] over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
        return totals

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
