"""Oracle references and the output check.

``python3 perfbench/reference.py <src> <workload> (<input> <out.json>)...``
builds each input's expected output with ``seriesmine.oracle`` (never the
engine) and writes it as JSON. It runs in its own process, so the oracle's distance
matrices never count toward the measured process's memory.

``check`` compares one ``mine`` output document with such a reference.
Lengths, offsets and indices must match exactly; distances within ``TOL``,
the tolerance the test suite uses.
"""

from __future__ import annotations

import json
import math
import os
import sys

TOL = 1e-7


def build(workload, series) -> dict:
    from seriesmine import oracle

    if workload.command == "discords":
        k = int(workload.extra[workload.extra.index("--k") + 1])
        m = int(workload.extra[workload.extra.index("--m") + 1])
        per_length, merged = oracle.brute_force_discords(
            series, workload.lmin, workload.lmax, k, m)
        return {
            "per_length": {str(length): {"offset": dkm.offset.tolist(),
                                         "dist": _finite(dkm.dist.tolist())}
                           for length, dkm in per_length.items()},
            "merged": {"offset": merged.offset.tolist(),
                       "length": merged.length.tolist(),
                       "norm_distance": _finite(merged.dist.tolist())},
        }
    res = oracle.brute_force_motifs(series, workload.lmin, workload.lmax,
                                    keep_profiles=False)
    norm = res.valmp_norm
    top = min(range(len(norm)), key=lambda i: (norm[i], i))
    nbr = int(res.valmp_index[top])
    return {
        "distances": _finite(res.valmp_dist.tolist()),
        "lengths": res.valmp_length.tolist(),
        "indices": res.valmp_index.tolist(),
        "top": {"pair": [min(top, nbr), max(top, nbr)],
                "length": int(res.valmp_length[top]),
                "distance": float(res.valmp_dist[top])},
    }


def _finite(values):
    if isinstance(values, list):
        return [_finite(v) for v in values]
    return values if math.isfinite(values) else None


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= TOL


def check(command: str, doc: dict, ref: dict, series) -> list[str]:
    """Mismatches between an output document and its reference (empty = correct)."""
    if command == "motifs":
        return _check_motifs(doc, ref)
    if command == "motif-sets":
        return _check_motif_sets(doc, ref, series)
    return _check_discords(doc, ref)


def _check_motifs(doc, ref):
    errors = []
    got_len = [0 if v is None else v for v in doc["lengths"]]
    got_idx = [-1 if v is None else v for v in doc["indices"]]
    if got_len != ref["lengths"]:
        errors.append("motifs: lengths differ")
    if got_idx != ref["indices"]:
        errors.append("motifs: indices differ")
    if len(doc["distances"]) != len(ref["distances"]) or not all(
            map(_close, doc["distances"], ref["distances"])):
        errors.append("motifs: distances differ")
    top = doc["top_motif"]
    if ([min(top["offset"], top["neighbor"]), max(top["offset"], top["neighbor"])]
            != ref["top"]["pair"] or top["length"] != ref["top"]["length"]
            or not _close(top["distance"], ref["top"]["distance"])):
        errors.append("motifs: top motif differs")
    return errors


def _check_motif_sets(doc, ref, series):
    from seriesmine.series import pair_distance

    errors = []
    sets = doc["sets"]
    seen = set()
    for s in sets:
        if seen & set(s["members"]):
            errors.append("motif-sets: sets share an offset")
        seen |= set(s["members"])
    if not doc["disjoint"]:
        errors.append("motif-sets: validate_disjoint is false")
    if not sets:
        return errors + ["motif-sets: no sets"]
    first = sets[0]
    if (sorted(first["anchor"]) != ref["top"]["pair"] or first["length"] != ref["top"]["length"]
            or not _close(first["distance"], ref["top"]["distance"])):
        errors.append("motif-sets: top pair differs from the oracle's top motif")
    for s in sets:
        a, b = s["anchor"]
        for member in s["members"]:
            if member in (a, b):
                continue
            d = min(pair_distance(series, a, member, s["length"]),
                    pair_distance(series, b, member, s["length"]))
            if not d <= s["radius"] + TOL:
                errors.append(f"motif-sets: member {member} lies outside set {s['rank']}")
    return errors


def _check_discords(doc, ref):
    errors = []
    for entry in doc["per_length"]:
        want = ref["per_length"][str(entry["length"])]
        offsets = [c["offset"] for c in entry["cells"]]
        dists = [c["distance"] for c in entry["cells"]]
        if offsets != [o if o >= 0 else None for row in want["offset"] for o in row]:
            errors.append(f"discords: offsets differ at length {entry['length']}")
        if not all(map(_close, dists, [d for row in want["dist"] for d in row])):
            errors.append(f"discords: distances differ at length {entry['length']}")
    if len(doc["per_length"]) != len(ref["per_length"]):
        errors.append("discords: per-length count differs")
    cells = doc["merged"]
    offsets, lengths, dists = ([v for row in ref["merged"][key] for v in row]
                               for key in ("offset", "length", "norm_distance"))
    if [c["offset"] for c in cells] != [o if o >= 0 else None for o in offsets]:
        errors.append("discords: merged offsets differ")
    if [c["length"] for c in cells] != [
            length if o >= 0 else None for length, o in zip(lengths, offsets)]:
        errors.append("discords: merged lengths differ")
    if not all(map(_close, [c["norm_distance"] for c in cells], dists)):
        errors.append("discords: merged distances differ")
    return errors


def main(argv) -> int:
    src, workload_name, *pairs = argv
    sys.path.insert(0, src)
    from seriesmine.io import read_series
    from workloads import WORKLOADS

    for input_path, out_path in zip(pairs[::2], pairs[1::2]):
        ref = build(WORKLOADS[workload_name], read_series(input_path))
        with open(out_path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(ref, fh)
        os.replace(out_path + ".tmp", out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
