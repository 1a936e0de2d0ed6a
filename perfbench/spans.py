"""Spans and counters for the traced run, recorded from outside the program.

``Tracer.install`` replaces public callables of the sl2star modules with
wrappers that time each call.  Every call updates per-name totals (calls,
total time, self time); calls of the coarse layers are also kept as span
records ``(op, name, parent, start, duration)`` in memory and written out
when the run ends.  A span's self time is its duration minus the time of the
spans it encloses.  Counters without spans record the work of the rewriting
engine (words visited) and the two caches (lookups and hits).

The wrappers cost about a microsecond per call, so the traced run is slower;
``trace.overhead_ratio`` in the report says by how much.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from sl2star import coalg, ncalg, poisson, series
from sl2star._backend import kernel

RS = ncalg.RewriteSystem

#: (owner, attribute, span name, kept as a record)
SPANS = (
    (RS, "normal_form", "ncalg.normal_form", True),
    (RS, "star", "ncalg.star", True),
    (coalg, "coproduct", "coalg.coproduct", True),
    (coalg, "star_tensor", "coalg.star_tensor", True),
    (series.EpsSeries, "__mul__", "series.eps_mul", False),
    (series.EpsSeries, "__rmul__", "series.eps_mul", False),
    (series.EpsSeries, "__add__", "series.eps_add", False),
    (series.EpsSeries, "__radd__", "series.eps_add", False),
    (series.BiSeries, "__mul__", "series.bi_mul", False),
    (series.BiSeries, "__rmul__", "series.bi_mul", False),
    (series.BiSeries, "invert", "series.bi_invert", True),
    (kernel, "s_mul", "kernel.s_mul", False),
    (kernel, "s_add", "kernel.s_add", False),
    (poisson, "fit_kappa_at", "poisson.fit_kappa", True),
    (poisson, "bivector_at", "poisson.bivector_at", True),
    (poisson, "integrate_cobracket", "poisson.integrate", True),
    (poisson, "right_translation_jacobian", "poisson.jacobian", True),
    (poisson, "expm", "poisson.expm", False),
)


class Tracer:
    def __init__(self):
        self.stats = {}          # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.records = []        # [op, name, parent record, start, duration]
        self.op = -1
        self._stack = []         # frames: [child_s, enclosing record index]
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, keep in SPANS:
            self._patch(owner, attr, lambda fn, n=name, k=keep: self._span(fn, n, k))
        counts = self.counts

        def visited(fn):
            def wrapper(system, word):
                counts["words_visited"] += 1
                return fn(system, word)
            return wrapper

        def basis_star(fn):
            def wrapper(system, a, b):
                counts["basis_star.lookups"] += 1
                if (a, b) in system._star_cache:
                    counts["basis_star.hits"] += 1
                return fn(system, a, b)
            return wrapper

        def monomial_coproduct(fn):
            def wrapper(system, mono):
                counts["coproduct_cache.lookups"] += 1
                if mono in system._coproduct_cache:
                    counts["coproduct_cache.hits"] += 1
                return fn(system, mono)
            return wrapper

        self._patch(RS, "reducible_positions", visited)
        self._patch(RS, "_basis_star", basis_star)
        self._patch(coalg, "_monomial_coproduct", monomial_coproduct)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found; "
                  "its metrics read 0", file=sys.stderr)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, fn, name: str, keep: bool):
        totals = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        records = self.records
        clock = time.perf_counter
        counts = self.counts
        count_terms = name == "ncalg.normal_form"

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep:
                frame = [0.0, len(records)]
                record = [self.op, name, parent, 0.0, 0.0]
                records.append(record)
            else:
                frame = [0.0, parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep:
                    record[3] = start
                    record[4] = duration
            if count_terms:
                counts["normal_form.terms"] += len(result.terms)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def layer_metrics(self, rounds: int, system) -> dict:
        """Per-layer figures per round of the workload."""
        stats = self.stats
        counts = self.counts

        def calls(name):
            return stats.get(name, (0,))[0] / rounds

        def self_s(name):
            return stats.get(name, (0, 0.0, 0.0))[2] / rounds

        def ratio(num, den):
            return counts[num] / counts[den] if counts[den] else 0.0

        entries = len(getattr(system, "_star_cache", ())) if system is not None else 0
        return {
            "ncalg.normal_form.calls": (calls("ncalg.normal_form"), "count"),
            "ncalg.normal_form.self_s": (self_s("ncalg.normal_form"), "s"),
            "ncalg.words_visited": (counts["words_visited"] / rounds, "count"),
            "ncalg.useful_ratio": (ratio("normal_form.terms", "words_visited"), "ratio"),
            "ncalg.star.calls": (calls("ncalg.star"), "count"),
            "ncalg.star.self_s": (self_s("ncalg.star"), "s"),
            "ncalg.basis_star.hit_ratio": (
                ratio("basis_star.hits", "basis_star.lookups"), "ratio"),
            "ncalg.basis_star.entries": (entries, "count"),
            "coalg.coproduct_cache.hit_ratio": (
                ratio("coproduct_cache.hits", "coproduct_cache.lookups"), "ratio"),
            "coalg.coproduct.calls": (calls("coalg.coproduct"), "count"),
            "coalg.coproduct.self_s": (self_s("coalg.coproduct"), "s"),
            "coalg.star_tensor.calls": (calls("coalg.star_tensor"), "count"),
            "coalg.star_tensor.self_s": (self_s("coalg.star_tensor"), "s"),
            "series.eps_mul.calls": (calls("series.eps_mul"), "count"),
            "series.eps_mul.self_s": (self_s("series.eps_mul"), "s"),
            "series.eps_add.calls": (calls("series.eps_add"), "count"),
            "kernel.s_mul.calls": (calls("kernel.s_mul"), "count"),
            "kernel.s_mul.self_s": (self_s("kernel.s_mul"), "s"),
            "kernel.s_add.calls": (calls("kernel.s_add"), "count"),
            "series.bi_mul.calls": (calls("series.bi_mul"), "count"),
            "series.bi_mul.self_s": (self_s("series.bi_mul"), "s"),
            "series.bi_invert.calls": (calls("series.bi_invert"), "count"),
            "poisson.fit_kappa.calls": (calls("poisson.fit_kappa"), "count"),
            "poisson.bivector_at.self_s": (self_s("poisson.bivector_at"), "s"),
            "poisson.integrate.calls": (calls("poisson.integrate"), "count"),
            "poisson.integrate.self_s": (self_s("poisson.integrate"), "s"),
            "poisson.expm.calls": (calls("poisson.expm"), "count"),
            "poisson.expm.self_s": (self_s("poisson.expm"), "s"),
            "poisson.jacobian.self_s": (self_s("poisson.jacobian"), "s"),
        }

    def dump(self) -> dict:
        return {
            "totals": {name: {"calls": c, "total_s": t, "self_s": s}
                       for name, (c, t, s) in sorted(self.stats.items())},
            "counts": dict(self.counts),
            "span_fields": ["op", "name", "parent", "start", "duration"],
            "spans": self.records,
        }
