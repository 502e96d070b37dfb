"""Outside-in span tracer for the seriesmine package.

Wraps package functions from outside, without editing them: every binding of
a traced function object in any loaded ``seriesmine`` module is replaced by a
wrapper that records a span (name, start, end, parent). The wrapper's name
carries the binding's module after an ``@``, which is how a ``row_profile``
span is attributed to its caller. Spans stay in memory until the benchmark
writes them out.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

# (module, function, span name)
FUNCTIONS = (
    ("seriesmine.io", "read_series", "io.read_series"),
    ("seriesmine.io", "write_document", "io.write_document"),
    ("seriesmine.series", "sliding_dot_product", "series.sliding_dot_product"),
    ("seriesmine.series", "pair_distance", "series.pair_distance"),
    ("seriesmine.profile", "row_profile", "profile.row_profile"),
    ("seriesmine.profile", "compute_matrix_profile", "profile.compute_matrix_profile"),
    ("seriesmine.valmod", "valmod", "valmod.valmod"),
    ("seriesmine.valmod", "compute_sub_mp", "valmod.compute_sub_mp"),
    ("seriesmine.discords", "topkm_discord_discovery", "discords.discovery"),
    ("seriesmine.discords", "topkm_next_length", "discords.step"),
    ("seriesmine.discords", "update_fixed_length_discords", "discords.insert"),
    ("seriesmine.motifsets", "update_valmp_for_motif_sets", "motifsets.fold"),
    ("seriesmine.motifsets", "compute_var_length_motif_sets", "motifsets.sets"),
)
# (module, class, method, span name)
METHODS = (
    ("seriesmine.series", "DataSeries", "moving_stats", "series.moving_stats"),
    ("seriesmine.profile", "PartialProfiles", "advance", "profile.advance"),
    ("seriesmine.profile", "PartialProfiles", "sorted_row_matches",
     "discords.sorted_row_matches"),
    ("seriesmine.discords", "DiscordMatrix", "has_trivial", "discords.has_trivial"),
    ("seriesmine.motifsets", "PairRanking", "push", "motifsets.push"),
)
SCAN = "profile.compute_matrix_profile"
ROOT = "cli.main"


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []       # [name id, start, end, parent index]
        self.scan_rows: dict[int, int] = {}   # scan span index -> rows scanned
        self.run_traces: list = []        # RunTrace per root call, in order
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        scan = name.startswith(SCAN)

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if scan:   # compute_matrix_profile(series, length, ...)
                    self.scan_rows[idx] = args[0].n - args[1] + 1

        return traced

    def call(self, fn, *args):
        """Run fn(*args) as a root span named ``cli.main``."""
        return self._wrap(fn, ROOT)(*args)

    def install(self):
        """Wrap every traced function in each namespace that binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "seriesmine" or k.startswith("seriesmine."))]
        for mod_name, attr, name in FUNCTIONS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        site = mod.__name__.rpartition(".")[2]
                        self._patch(mod, key, self._wrap(fn, f"{name}@{site}"))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            fn = getattr(cls, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._patch(cls, attr, self._wrap(fn, name))
        cli = sys.modules["seriesmine.cli"]
        run_trace = cli.RunTrace

        def recording_run_trace():
            trace = run_trace()
            self.run_traces.append(trace)
            return trace

        self._patch(cli, "RunTrace", recording_run_trace)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path):
        """Write every span as gzipped JSON, times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "names": self.names,
                       "spans": [[s[0], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3]]
                                 for s in self.spans]}, fh, separators=(",", ":"))


def analyze(tracer: Tracer) -> list[dict]:
    """Per root call: calls, total and self seconds by span name, plus the
    layer counters the benchmark reports."""
    spans, names = tracer.spans, tracer.names
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    roots = []
    for i, s in enumerate(spans):
        name = names[s[0]]
        base, _, site = name.partition("@")
        if s[3] < 0:
            roots.append({"wall_s": dur[i], "calls": defaultdict(int),
                          "total_s": defaultdict(float), "self_s": defaultdict(float),
                          "layer": defaultdict(float), "scans": 0})
        r = roots[-1]
        r["calls"][base] += 1
        r["total_s"][base] += dur[i]
        r["self_s"][base] += dur[i] - child[i]
        layer = r["layer"]
        if base == SCAN:
            kind = "seed_scan" if r["scans"] == 0 else "rescan"
            r["scans"] += 1
            layer[f"profile.{kind}_s"] += dur[i]
            layer[f"profile.{kind}s"] += 1
            layer["profile.scan_rows"] += tracer.scan_rows[i]
        elif base == "profile.row_profile":
            parent = names[spans[s[3]][0]].partition("@")[0] if s[3] >= 0 else ""
            if site == "valmod":
                kind = "valmod.partial" if parent == "valmod.compute_sub_mp" else "valmod.repair"
            elif site == "discords":
                kind = "discords"
            elif site == "motifsets":
                kind = "motifsets.range"
            else:
                kind = "profile.other"
            layer[f"{kind}_rows"] += 1
            layer[f"{kind}_s"] += dur[i]
    for r, trace in zip(roots, tracer.run_traces):
        r["run_trace"] = trace
    for r in roots[len(tracer.run_traces):]:
        r["run_trace"] = None
    return roots


def run_trace_counts(trace) -> dict | None:
    """Totals of one RunTrace (None when none was captured); records after
    the first are the per-length steps."""
    if trace is None:
        return None
    steps = trace.records[1:]
    return {
        "lengths": len(trace.records),
        "profiles": sum(r.n_profiles for r in trace.records),
        "valid": sum(r.n_valid for r in steps),
        "nonvalid": sum(r.n_nonvalid for r in steps),
        "recomputed": sum(r.n_recomputed for r in trace.records),
        "full_rescan_nonvalid": sum(r.n_nonvalid for r in steps if r.full_recompute),
        "full_rescans": sum(1 for r in steps if r.full_recompute),
    }
