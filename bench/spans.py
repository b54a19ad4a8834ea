"""In-memory span tracing of argstar's layers, installed from outside the package.

Inside argstar, callers look their collaborators up as module globals at call
time (``verify.check_theorem`` calls ``differentiate`` through ``verify``'s
globals, ``solve_gamma0`` calls ``bisect_increasing`` through ``roots``'s).
Rebinding those globals to timing wrappers therefore sees every call without
editing ``src/``. Spans are kept as ``[name, start, end, parent]`` records and
reduced to per-layer totals after the traced pass; nothing is written while
the work runs, and ``write`` dumps them once the pass is over.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# (span name, defining module, function name). Every argstar module that binds
# the same function object is rebound, so calls from cli and from verify land
# in the same span name.
TRACED = (
    ("series.differentiate", "series", "differentiate"),
    ("roots.bisect", "roots", "bisect_increasing"),
    ("roots.alpha_sequence", "roots", "alpha_sequence"),
    ("roots.solve_gamma0", "roots", "solve_gamma0"),
    ("verify.sample", "verify", "sample_hypothesis_function"),
    ("verify.check", "verify", "check_theorem"),
    ("verify.scan", "verify", "counterexample_scan"),
    ("verify.probe", "verify", "lemma1_probe"),
    ("cli.parse", "cli", "parse_function_file"),
    ("cli.heatmap", "cli", "emit_heatmap"),
    ("cli.run", "cli", "run"),
)


class Tracer:
    """Context manager: rebinds the TRACED functions on enter, restores on exit.

    ``spans`` holds one ``[name, start, end, parent_index]`` record per call;
    ``counts`` holds event counters that are not calls (bisection g
    evaluations, scan attempts and accepted draws).
    """

    def __init__(self, modules: dict):
        self.modules = modules  # short name ("series", ...) -> module object
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._saved: list = []

    # ----------------------------------------------------------- wrapping

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrapper_for(self, span, fn):
        counts = self.counts
        if span == "roots.bisect":
            def bisect(g, *args, **kwargs):
                def counted(x):
                    counts["roots.bisect.g_evals"] += 1
                    return g(x)
                return fn(counted, *args, **kwargs)
            return self._wrap(span, bisect)
        if span == "verify.scan":
            def tally(report):
                counts["verify.scan.attempts"] += report.attempts
                counts["verify.scan.accepted"] += len(report.verdicts)
            return self._wrap(span, fn, tally)
        return self._wrap(span, fn)

    def __enter__(self):
        for span, home, attr in TRACED:
            original = getattr(self.modules[home], attr)
            wrapper = self._wrapper_for(span, original)
            for mod in self.modules.values():
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    # ---------------------------------------------------------- reduction

    def write(self, path) -> None:
        """One JSON line per span: name, start and end in seconds from the first span, parent index."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0, "parent": parent}) + "\n")

    def layers(self) -> dict:
        """{span name: {"calls", "s", "self_s"}}; self time excludes direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out
