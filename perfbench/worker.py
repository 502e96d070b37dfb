"""The measured process: runs one workload's inputs through ``cli.main``.

``python3 perfbench/worker.py <spec.json>`` reads what to run from the spec
that ``run.py`` writes, and writes its result to the spec's ``result`` path.
It imports the package, mines the first input once untimed (warm-up), then mines
the inputs round-robin until the spec's seconds have passed, checking every
output against its oracle reference. With ``trace`` set it then times
single-length scans for the rerun baseline and mines every input once more
under the span tracer.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

from tracer import Tracer, analyze, run_trace_counts

MIN_ROUNDS = 3        # timed samples per input, whatever the seconds
MAX_SECONDS = 60.0    # stop timed rounds here even below MIN_ROUNDS
RERUN_LENGTHS = 3     # lengths sampled for the fixed-length rerun baseline


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import seriesmine.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        raise SystemExit(f"seriesmine imported from {cli.__file__}, not {spec['src']}")
    from reference import check
    from seriesmine.io import read_series
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    inputs = spec["inputs"]
    refs = []
    for item in inputs:
        with open(item["reference"], encoding="utf-8") as fh:
            refs.append(json.load(fh))
    argvs = [workload.argv(item["input"], item["output"]) for item in inputs]
    series_cache = {}
    outcome = {"attempted": 0, "failed": 0, "errors": []}

    def verify(j, rc, doc):
        outcome["attempted"] += 1
        if rc != 0:
            errors = [f"exit {rc}"]
        else:
            if j not in series_cache:
                series_cache[j] = read_series(inputs[j]["input"])
            errors = check(workload.command, doc, refs[j], series_cache[j])
        if errors:
            outcome["failed"] += 1
            outcome["errors"].extend(f"input {j}: {e}" for e in errors[:3])

    def load_output(j):
        with open(inputs[j]["output"], encoding="utf-8") as fh:
            return json.load(fh)

    def mine(j):
        t0 = time.perf_counter()
        rc = call_main(cli.main, argvs[j])
        seconds = time.perf_counter() - t0
        verify(j, rc, load_output(j) if rc == 0 else None)
        return seconds

    mine(0)   # first call of the process: lazy imports and FFT plan caches
    samples = [[] for _ in inputs]
    start = time.perf_counter()
    while True:
        for j in range(len(inputs)):
            samples[j].append(mine(j))
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_SECONDS or (elapsed >= spec["seconds"]
                                      and len(samples[0]) >= MIN_ROUNDS):
            break
    medians = [statistics.median(s) for s in samples]
    result = {
        "samples_per_input": len(samples[0]),
        "input_medians_s": medians,
        "samples_s": samples,
        "wall_s": statistics.fmean(medians),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if spec["trace"]:
        result.update(traced(spec, workload, cli, argvs, medians, load_output, verify))
    result.update(outcome)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


def call_main(main, argv):
    """``main``'s exit code; a crash counts as a failed call, not a failed run."""
    try:
        return main(argv)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def traced(spec, workload, cli, argvs, medians, load_output, verify):
    """Rerun baseline, then one traced call per input (input 0 twice)."""
    import numpy as np
    from seriesmine.io import read_series
    from seriesmine.profile import compute_matrix_profile

    series = read_series(spec["inputs"][0]["input"])
    lengths = sorted({int(v) for v in np.linspace(workload.lmin, workload.lmax, RERUN_LENGTHS)})
    scan_s = []
    for length in lengths:
        t0 = time.perf_counter()
        compute_matrix_profile(series, length, 10)
        scan_s.append(time.perf_counter() - t0)
    n_lengths = workload.lmax - workload.lmin + 1
    speedup = statistics.fmean(scan_s) * n_lengths / medians[0]

    tracer = Tracer()
    tracer.install()
    order = list(range(len(argvs))) + [0]
    try:
        results = []
        for j in order:
            rc = call_main(lambda argv: tracer.call(cli.main, argv), argvs[j])
            results.append((j, rc, load_output(j) if rc == 0 else None))
    finally:
        tracer.uninstall()
    for j, rc, doc in results:
        verify(j, rc, doc)
    tracer.dump(spec["spans"])

    roots = analyze(tracer)
    problems = [f"not traced (missing): {name}" for name in tracer.missing]
    if len(tracer.run_traces) != len(roots):
        problems.append(f"{len(tracer.run_traces)} RunTraces for {len(roots)} calls")
        for r in roots:
            r["run_trace"] = None
    first, repeat, roots = roots[0], roots[-1], roots[:-1]
    if (dict(first["calls"]) != dict(repeat["calls"])
            or run_trace_counts(first["run_trace"]) != run_trace_counts(repeat["run_trace"])):
        problems.append("span call counts or RunTrace totals differ between two runs")
    for j, r in enumerate(roots):
        problems.extend(f"input {j}: {p}" for p in identities(workload, r))

    def total(key, field="layer"):
        return sum(r[field].get(key, 0) for r in roots)

    counts = [c for c in map(run_trace_counts, (r["run_trace"] for r in roots)) if c]
    checked = sum(c["valid"] + c["nonvalid"] for c in counts)
    valid_frac = sum(c["valid"] for c in counts) / checked if checked else 0.0
    is_discords = workload.command == "discords"
    wall = sum(r["wall_s"] for r in roots)
    self_sum = sum(sum(r["self_s"].values()) for r in roots)
    if abs(self_sum - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"self times sum to {self_sum} s, traced wall is {wall} s")
    scan_s_total = total("profile.seed_scan_s") + total("profile.rescan_s")
    scan_rows = total("profile.scan_rows")
    metrics = {
        "profile.seed_scan_s": total("profile.seed_scan_s"),
        "profile.rescans": total("profile.rescans"),
        "profile.rescan_s": total("profile.rescan_s"),
        "profile.scan_s_per_row": scan_s_total / scan_rows if scan_rows else 0.0,
        "profile.advance_s": total("profile.advance", "total_s"),
        "valmod.repair_rows": total("valmod.repair_rows"),
        "valmod.repair_s": total("valmod.repair_s"),
        "valmod.partial_rows": total("valmod.partial_rows"),
        "valmod.sub_mp_self_s": total("valmod.compute_sub_mp", "self_s"),
        "valmod.valid_frac": 0.0 if is_discords else valid_frac,
        "valmod.certified_lengths": 0 if is_discords else sum(
            c["lengths"] - 1 - c["full_rescans"] for c in counts),
        "valmod.speedup_vs_rerun": speedup,
        "series.sliding_dot_product.calls": total("series.sliding_dot_product", "calls"),
        "series.moving_stats.calls": total("series.moving_stats", "calls"),
        "series.pair_distance.calls": total("series.pair_distance", "calls"),
        "discords.step_self_s": total("discords.step", "self_s"),
        "discords.sorted_row_matches.calls": total("discords.sorted_row_matches", "calls"),
        "discords.has_trivial.calls": total("discords.has_trivial", "calls"),
        "discords.has_trivial_s": total("discords.has_trivial", "total_s"),
        "discords.insert.calls": total("discords.insert", "calls"),
        "discords.rows": total("discords_rows"),
        "discords.valid_frac": valid_frac if is_discords else 0.0,
        "motifsets.fold_s": total("motifsets.fold", "total_s"),
        "motifsets.push.calls": total("motifsets.push", "calls"),
        "motifsets.sets_s": total("motifsets.sets", "total_s"),
        "motifsets.range_rows": total("motifsets.range_rows"),
        "io.read_s": total("io.read_series", "total_s"),
        "io.write_s": total("io.write_document", "total_s"),
        "io.output_bytes": sum(os.path.getsize(item["output"]) for item in spec["inputs"]),
        "trace.overhead_s": wall - sum(medians),
    }
    self_by_name = {}
    for r in roots:
        for name, value in r["self_s"].items():
            self_by_name[name] = self_by_name.get(name, 0.0) + value
    return {"layers": metrics, "trace_problems": problems, "traced_wall_s": wall,
            "self_s_by_span": dict(sorted(self_by_name.items(), key=lambda kv: -kv[1])),
            "rerun_scan_s": dict(zip(map(str, lengths), scan_s))}


def identities(workload, root) -> list[str]:
    """RunTrace.n_recomputed against the rows the spans saw rescanned."""
    c = run_trace_counts(root["run_trace"])
    if c is None:
        return []
    layer = root["layer"]
    if workload.command == "discords":
        seen = layer.get("discords_rows", 0)
        parts = "discords rows"
    else:
        seen = (layer.get("valmod.partial_rows", 0) + layer.get("valmod.repair_rows", 0)
                + c["full_rescan_nonvalid"])
        parts = "partial + repair + full-rescan non-valid rows"
    if c["recomputed"] != seen:
        return [f"RunTrace recomputed {c['recomputed']} != {parts} {seen}"]
    if layer.get("profile.rescans", 0) != c["full_rescans"]:
        return [f"{layer.get('profile.rescans', 0)} rescans traced, "
                f"RunTrace has {c['full_rescans']}"]
    return []


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
