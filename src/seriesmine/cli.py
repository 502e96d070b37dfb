"""Command-line front end.

Subcommands: ``mine motifs``, ``mine motif-sets``, ``mine discords``,
``mine mp --length L``, ``mine oracle {motifs|discords}``.

Every flag can also be supplied through an environment variable named
``MINE_<FLAG>`` (dashes to underscores, upper case). Explicit flags win over
the environment, the environment wins over the built-in defaults.

``--threads`` (``MINE_THREADS``) is accepted for compatibility and echoed
under ``parameters``; the scan itself is single-threaded, so the value does
not change the work done.

Exit codes: 0 success, 2 I/O failure (missing/unreadable files, bad file
content), 3 validation failure (parameter constraints, non-finite values,
series too short). Diagnostics are a single line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import io as _io
from .discords import topkm_discord_discovery
from .exceptions import SeriesMineError
from .io import InputFormatError
from .metrics import RunTrace
from .motifsets import (PairRanking, compute_var_length_motif_sets, validate_disjoint,
                        validate_radius_factor)
from .oracle import brute_force_discords, brute_force_motifs
from .profile import compute_matrix_profile
from .valmod import top_variable_length_motif, valmod

ENV_PREFIX = "MINE_"

DEFAULTS = {
    "p": 50,
    "top_k": 40,
    "radius_factor": 4.0,
    "k": 1,
    "m": 1,
    "threads": 1,
    "format": "json",
}


def _env_default(dest, fallback=None):
    return os.environ.get(ENV_PREFIX + dest.upper(), fallback)


def _add_common(sub, lengths=True):
    sub.add_argument("--input", required=_env_default("input") is None,
                     default=_env_default("input"), help="series file")
    sub.add_argument("--column", type=int,
                     default=_env_default("column"), help="CSV column index (0-based)")
    if lengths:
        sub.add_argument("--lmin", type=int, required=_env_default("lmin") is None,
                         default=_env_default("lmin"))
        sub.add_argument("--lmax", type=int, required=_env_default("lmax") is None,
                         default=_env_default("lmax"))
    sub.add_argument("--p", type=int, default=_env_default("p", DEFAULTS["p"]))
    sub.add_argument("--threads", type=int,
                     default=_env_default("threads", DEFAULTS["threads"]),
                     help="accepted for compatibility and echoed in the output; "
                          "the scan is single-threaded")
    sub.add_argument("--output", default=_env_default("output"))
    sub.add_argument("--format", choices=["json", "csv"],
                     default=_env_default("format", DEFAULTS["format"]))
    sub.add_argument("--trace", action="store_true",
                     default=_env_default("trace") not in (None, "", "0"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mine",
        description="Exact variable-length motif and discord mining")
    subs = parser.add_subparsers(dest="command", required=True)

    motifs = subs.add_parser("motifs", help="best match per offset over a length range")
    _add_common(motifs)

    msets = subs.add_parser("motif-sets", help="Top-K pairs expanded to disjoint sets")
    _add_common(msets)
    msets.add_argument("--top-k", type=int, dest="top_k",
                       default=_env_default("top_k", DEFAULTS["top_k"]))
    msets.add_argument("--radius-factor", "-D", type=float, dest="radius_factor",
                       default=_env_default("radius_factor", DEFAULTS["radius_factor"]))
    msets.add_argument("--min-frequency", type=int,
                       default=_env_default("min_frequency"))

    disc = subs.add_parser("discords", help="Top-k m-th discords over a length range")
    _add_common(disc)
    disc.add_argument("--k", type=int, default=_env_default("k", DEFAULTS["k"]))
    disc.add_argument("--m", type=int, default=_env_default("m", DEFAULTS["m"]))
    disc.add_argument("--per-length", action="store_true",
                      default=_env_default("per_length") not in (None, "", "0"),
                      help="include every per-length matrix in the output")

    mp = subs.add_parser("mp", help="matrix profile at one fixed length")
    _add_common(mp, lengths=False)
    mp.add_argument("--length", type=int, required=_env_default("length") is None,
                    default=_env_default("length"))

    oracle = subs.add_parser("oracle", help="brute-force reference results")
    osubs = oracle.add_subparsers(dest="oracle_kind", required=True)
    omot = osubs.add_parser("motifs")
    _add_common(omot)
    odis = osubs.add_parser("discords")
    _add_common(odis)
    odis.add_argument("--k", type=int, default=_env_default("k", DEFAULTS["k"]))
    odis.add_argument("--m", type=int, default=_env_default("m", DEFAULTS["m"]))
    return parser


def _valmp_payload(populated, distances, norm_distances, lengths, indices):
    """Per-offset best-match vectors; unpopulated offsets serialize as null."""
    def masked(arr, cast=float):
        return [cast(v) if ok else None for v, ok in zip(arr, populated)]
    return {
        "distances": masked(distances),
        "normDistances": masked(norm_distances),
        "lengths": masked(lengths, int),
        "indices": masked(indices, int),
    }


def _motif_payload(valmp, trace):
    top = top_variable_length_motif(valmp)
    payload = _valmp_payload(valmp.populated, valmp.distances, valmp.norm_distances,
                             valmp.lengths, valmp.indices)
    payload["top_motif"] = {
        "offset": top[0], "neighbor": top[1], "length": top[2],
        "distance": top[3], "norm_distance": top[4],
    }
    if trace is not None:
        payload["per_length"] = [
            {"length": r.length,
             "offset": None if r.motif is None else r.motif[0],
             "neighbor": None if r.motif is None else r.motif[1],
             "distance": None if r.motif is None else r.motif[2]}
            for r in trace.records]
        payload["pruning"] = _pruning_payload(trace)
    return payload


def _pruning_payload(trace):
    return {
        "per_length": [{"length": r.length, "profiles": r.n_profiles,
                        "valid": r.n_valid, "nonvalid": r.n_nonvalid,
                        "recomputed": r.n_recomputed,
                        "full_recompute": r.full_recompute,
                        "reseed": r.reseed}
                       for r in trace.records],
        "totals": trace.totals(),
    }


def _cells(dkm, key="distance", lengths=None):
    """Discord matrix cells in rank-major order; empty cells serialize as null."""
    k, m = dkm.dist.shape
    cells = []
    for i in range(k):
        for j in range(m):
            off = int(dkm.offset[i, j])
            cell = {"rank": i + 1, "match": j + 1,
                    key: float(dkm.dist[i, j]) if off >= 0 else None,
                    "offset": off if off >= 0 else None}
            if lengths is not None:
                cell["length"] = int(lengths[i, j]) if off >= 0 else None
            cells.append(cell)
    return cells


def _run_motifs(args, series):
    trace = RunTrace()
    t0 = time.perf_counter()
    valmp = valmod(series, args.lmin, args.lmax, args.p, trace=trace)
    wall = time.perf_counter() - t0
    payload = _motif_payload(valmp, trace if args.trace else None)
    return _io.make_document("motifs", _params(args), series.n, payload, wall)


def _run_motif_sets(args, series):
    validate_radius_factor(args.radius_factor)
    trace = RunTrace()
    ranking = PairRanking(args.top_k)
    t0 = time.perf_counter()
    valmod(series, args.lmin, args.lmax, args.p, ranking=ranking, trace=trace)
    sets = compute_var_length_motif_sets(
        series, ranking, args.radius_factor,
        None if args.min_frequency is None else int(args.min_frequency))
    wall = time.perf_counter() - t0
    payload = {
        "disjoint": validate_disjoint(sets),
        "sets": [{"rank": i + 1,
                  "anchor": list(s.anchor),
                  "length": s.length,
                  "distance": s.distance,
                  "norm_distance": s.norm_distance,
                  "radius": s.radius,
                  "frequency": s.frequency,
                  "members": s.members}
                 for i, s in enumerate(sets)],
    }
    if args.trace:
        payload["pruning"] = _pruning_payload(trace)
    return _io.make_document("motif-sets", _params(args), series.n, payload, wall)


def _run_discords(args, series):
    trace = RunTrace()
    t0 = time.perf_counter()
    scan = topkm_discord_discovery(series, args.lmin, args.lmax,
                                   args.k, args.m, args.p, trace=trace)
    wall = time.perf_counter() - t0
    payload = {"merged": _cells(scan.merged, "norm_distance", scan.merged.length)}
    if getattr(args, "per_length", False):
        payload["per_length"] = [
            {"length": length, "cells": _cells(dkm)}
            for length, dkm in sorted(scan.per_length.items())]
    if args.trace:
        payload["pruning"] = _pruning_payload(trace)
    return _io.make_document("discords", _params(args), series.n, payload, wall)


def _run_mp(args, series):
    t0 = time.perf_counter()
    res = compute_matrix_profile(series, args.length, args.p)
    wall = time.perf_counter() - t0
    mp = res.profile
    payload = {
        "length": args.length,
        "mp": [float(v) if np.isfinite(v) else None for v in mp.mp],
        "ip": [int(v) if v >= 0 else None for v in mp.ip],
    }
    return _io.make_document("mp", _params(args), series.n, payload, wall)


def _run_oracle_motifs(args, series):
    t0 = time.perf_counter()
    res = brute_force_motifs(series, args.lmin, args.lmax, keep_profiles=False)
    wall = time.perf_counter() - t0
    payload = _valmp_payload(np.isfinite(res.valmp_norm), res.valmp_dist,
                             res.valmp_norm, res.valmp_length, res.valmp_index)
    payload["per_length"] = [
        {"length": length, "offset": pair[0] if pair[0] >= 0 else None,
         "neighbor": pair[1] if pair[0] >= 0 else None,
         "distance": d if np.isfinite(d) else None}
        for length, pair, d in zip(res.lengths, res.motif_pairs, res.motif_distances)]
    return _io.make_document("oracle-motifs", _params(args), series.n, payload, wall)


def _run_oracle_discords(args, series):
    t0 = time.perf_counter()
    per_length, merged = brute_force_discords(series, args.lmin, args.lmax,
                                              args.k, args.m)
    wall = time.perf_counter() - t0
    payload = {
        "merged": _cells(merged, "norm_distance", merged.length),
        "per_length": [{"length": length, "cells": _cells(dkm)}
                       for length, dkm in sorted(per_length.items())],
    }
    return _io.make_document("oracle-discords", _params(args), series.n, payload, wall)


def _params(args):
    skip = {"command", "oracle_kind", "input", "output", "format", "trace"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


_RUNNERS = {
    "motifs": _run_motifs,
    "motif-sets": _run_motif_sets,
    "discords": _run_discords,
    "mp": _run_mp,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        series = _io.read_series(args.input, args.column)
    except (OSError, InputFormatError) as exc:
        print(f"mine: input error: {exc}", file=sys.stderr)
        return 2
    except SeriesMineError as exc:
        print(f"mine: invalid series: {exc}", file=sys.stderr)
        return 3

    try:
        if args.command == "oracle":
            runner = (_run_oracle_motifs if args.oracle_kind == "motifs"
                      else _run_oracle_discords)
        else:
            runner = _RUNNERS[args.command]
        doc = runner(args, series)
    except SeriesMineError as exc:
        print(f"mine: validation error: {exc}", file=sys.stderr)
        return 3

    try:
        _io.write_document(doc, args.output, args.format)
    except OSError as exc:
        print(f"mine: output error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
