"""Command-line front end.

Subcommands and the flags they take beyond ``--input --column --output
--format``: ``mine motifs --lmin --lmax --p --threads --trace``; ``mine
motif-sets``, the same plus ``--top-k --radius-factor/-D --min-frequency``;
``mine discords``, the same as ``motifs`` plus ``--k --m --per-length``;
``mine mp --length --p --threads``; ``mine oracle motifs --lmin --lmax``;
``mine oracle discords``, the same plus ``--k --m``.

Every flag can also be supplied through an environment variable named
``MINE_<FLAG>`` (dashes to underscores, upper case). Explicit flags win over
the environment, the environment wins over the built-in defaults. A switch
reads 0/false/no/off or 1/true/yes/on (any case); any other value is a
usage error.

``--threads`` (``MINE_THREADS``) is echoed under ``parameters`` and changes
no work: the scan is single-threaded. It stays only because the benchmark's
argv (``perfbench/workloads.py``) passes it.

Each document's ``timing.wall_seconds`` covers its subcommand's mining and
payload building, not reading the input or writing the document.

Exit codes: 0 success, 2 usage error (an unknown flag, a bad ``MINE_``
switch or format) or I/O failure (missing/unreadable files, bad file
content), 3 validation failure (parameter constraints, non-finite values,
series too short, every window constant). Diagnostics are a single line on
stderr, after the usage line for a usage error.
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


def _flag(parser, *names, **kwargs):
    """Add a flag; its ``MINE_<DEST>`` variable, when set, replaces the
    default and makes the flag optional. A switch reads the variable as a
    boolean word, or keeps the raw value, which ``main`` rejects."""
    action = parser.add_argument(*names, **kwargs)
    value = os.environ.get(ENV_PREFIX + action.dest.upper())
    if value is not None:
        if action.nargs == 0:
            value = {"": False, "0": False, "false": False, "no": False, "off": False,
                     "1": True, "true": True, "yes": True, "on": True}.get(value.lower(), value)
        action.default, action.required = value, False
    return action


def _command(subs, name, run, help=None, lengths=True, engine=True):
    """Add subcommand ``name`` running ``run``: ``lengths`` adds the length
    range, ``engine`` the engine's --p and --threads, and both --trace."""
    cmd = subs.add_parser(name, help=help)
    cmd.set_defaults(run=run)
    _flag(cmd, "--input", required=True, help="series file")
    _flag(cmd, "--column", type=int, help="CSV column index (0-based)")
    if lengths:
        _flag(cmd, "--lmin", type=int, required=True)
        _flag(cmd, "--lmax", type=int, required=True)
    if engine:
        _flag(cmd, "--p", type=int, default=50)
        _flag(cmd, "--threads", type=int, default=1,
              help="accepted for compatibility and echoed in the output; "
                   "the scan is single-threaded")
    _flag(cmd, "--output")
    _flag(cmd, "--format", choices=["json", "csv"], default="json")
    if lengths and engine:
        _flag(cmd, "--trace", action="store_true")
    return cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mine",
        description="Exact variable-length motif and discord mining")
    subs = parser.add_subparsers(dest="command", required=True)
    _command(subs, "motifs", _run_motifs, "best match per offset over a length range")
    msets = _command(subs, "motif-sets", _run_motif_sets,
                     "Top-K pairs expanded to disjoint sets")
    _flag(msets, "--top-k", type=int, default=40)
    _flag(msets, "--radius-factor", "-D", type=float, default=4.0)
    _flag(msets, "--min-frequency", type=int)
    disc = _command(subs, "discords", _run_discords,
                    "Top-k m-th discords over a length range")
    mp = _command(subs, "mp", _run_mp, "matrix profile at one fixed length", lengths=False)
    _flag(mp, "--length", type=int, required=True)

    oracle = subs.add_parser("oracle", help="brute-force reference results")
    osubs = oracle.add_subparsers(dest="oracle_kind", required=True)
    _command(osubs, "motifs", _run_oracle_motifs, engine=False)
    odis = _command(osubs, "discords", _run_oracle_discords, engine=False)
    for cmd in (disc, odis):    # before --per-length: the echo keeps its key order
        _flag(cmd, "--k", type=int, default=1)
        _flag(cmd, "--m", type=int, default=1)
    _flag(disc, "--per-length", action="store_true",
          help="include every per-length matrix in the output")
    return parser


def _valmp_payload(distances, norm_distances, lengths, indices):
    """Per-offset best-match vectors; unpopulated offsets (norm +inf) serialize as null."""
    populated = np.isfinite(norm_distances)

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
    payload = _valmp_payload(valmp.distances, valmp.norm_distances, valmp.lengths,
                             valmp.indices)
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
    valmp = valmod(series, args.lmin, args.lmax, args.p, trace=trace)
    return _motif_payload(valmp, trace if args.trace else None)


def _run_motif_sets(args, series):
    validate_radius_factor(args.radius_factor)
    trace = RunTrace()
    ranking = PairRanking(args.top_k)
    valmod(series, args.lmin, args.lmax, args.p, ranking=ranking, trace=trace)
    sets = compute_var_length_motif_sets(series, ranking, args.radius_factor,
                                         args.min_frequency)
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
    return payload


def _run_discords(args, series):
    trace = RunTrace()
    scan = topkm_discord_discovery(series, args.lmin, args.lmax,
                                   args.k, args.m, args.p, trace=trace)
    payload = {"merged": _cells(scan.merged, "norm_distance", scan.merged.length)}
    if args.per_length:
        payload["per_length"] = [
            {"length": length, "cells": _cells(dkm)}
            for length, dkm in sorted(scan.per_length.items())]
    if args.trace:
        payload["pruning"] = _pruning_payload(trace)
    return payload


def _run_mp(args, series):
    mp = compute_matrix_profile(series, args.length, args.p).profile
    return {
        "length": args.length,
        "mp": [float(v) if np.isfinite(v) else None for v in mp.mp],
        "ip": [int(v) if v >= 0 else None for v in mp.ip],
    }


def _run_oracle_motifs(args, series):
    res = brute_force_motifs(series, args.lmin, args.lmax, keep_profiles=False)
    payload = _valmp_payload(res.valmp_dist, res.valmp_norm, res.valmp_length,
                             res.valmp_index)
    payload["per_length"] = [
        {"length": length, "offset": pair[0] if pair[0] >= 0 else None,
         "neighbor": pair[1] if pair[0] >= 0 else None,
         "distance": d if np.isfinite(d) else None}
        for length, pair, d in zip(res.lengths, res.motif_pairs, res.motif_distances)]
    return payload


def _run_oracle_discords(args, series):
    per_length, merged = brute_force_discords(series, args.lmin, args.lmax,
                                              args.k, args.m)
    return {
        "merged": _cells(merged, "norm_distance", merged.length),
        "per_length": [{"length": length, "cells": _cells(dkm)}
                       for length, dkm in sorted(per_length.items())],
    }


def _params(args):
    skip = {"command", "oracle_kind", "run", "input", "output", "format", "trace"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format not in ("json", "csv"):   # argparse checks choices on flags only
        parser.error(f"argument --format: invalid choice: {args.format!r} "
                     "(choose from 'json', 'csv')")
    for dest in ("trace", "per_length"):     # a variable that named no boolean
        if isinstance(getattr(args, dest, False), str):
            parser.error(f"{ENV_PREFIX}{dest.upper()}: not a boolean: {getattr(args, dest)!r} "
                         "(use 0/false/no/off or 1/true/yes/on)")

    try:
        series = _io.read_series(args.input, args.column)
    except (OSError, InputFormatError) as exc:
        print(f"mine: input error: {exc}", file=sys.stderr)
        return 2
    except SeriesMineError as exc:
        print(f"mine: invalid series: {exc}", file=sys.stderr)
        return 3

    try:
        t0 = time.perf_counter()
        payload = args.run(args, series)
        wall = time.perf_counter() - t0
    except SeriesMineError as exc:
        print(f"mine: validation error: {exc}", file=sys.stderr)
        return 3
    command = "-".join(filter(None, (args.command, getattr(args, "oracle_kind", None))))
    doc = _io.make_document(command, _params(args), series.n, payload, wall)

    try:
        _io.write_document(doc, args.output, args.format)
    except OSError as exc:
        print(f"mine: output error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
