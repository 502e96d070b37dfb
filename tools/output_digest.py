"""Digest what a seriesmine tree computes on the benchmark's inputs.

Usage: ``python3 tools/output_digest.py SRC``

SRC is the ``src`` directory of the tree to digest. The script prints one
SHA-256 line per item:

* each ``perfbench`` workload: the CLI documents minus ``timing`` of every
  input of its default seed, mined with the workload's argv plus ``--trace``;
  then, on a ``results`` line, the same documents minus ``pruning`` too, so
  a change that moves only trace counts still reads as the same results;
* ``mine mp`` (``--length`` lmin, p=10) and ``mine oracle motifs`` on input 0
  of ``motifs-planted``, and ``mine oracle discords`` (k=m=3) on input 0 of
  ``discords-walk``, each over the workload's length range: the documents
  minus ``timing`` and ``parameters``, so the check holds across a change
  to which flags a subcommand echoes;
* W1 and W2 (``planted_motif_benchmark(5000, 128, 1)`` and
  ``random_walk(5000, 1)``, L 64-128, p=10): the ``valmod`` arrays and the
  ``RunTrace`` totals;
* W4 (``random_walk(3000, 2)``, L 32-64, k=m=3, p=10): every matrix of
  ``topkm_discord_discovery`` and the ``RunTrace`` totals.

Two trees that print the same lines compute the same bits. The inputs come
from ``perfbench/workloads.py`` of this checkout, which is only imported.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _arrays(*arrays) -> list[bytes]:
    return [a.dtype.str.encode() + a.tobytes() for a in arrays]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src = os.path.abspath(argv[1])
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import seriesmine as sm
    from seriesmine import cli
    from workloads import WORKLOADS, planted_motif_benchmark, random_walk, write_series
    if not os.path.abspath(sm.__file__).startswith(src + os.sep):
        raise SystemExit(f"seriesmine imported from {sm.__file__}, not {src}")

    with tempfile.TemporaryDirectory() as tmp:
        inp, out = os.path.join(tmp, "series.txt"), os.path.join(tmp, "out.json")

        def mine(name, w, j, argv):
            write_series(inp, w.series(w.default_seed, j))
            if cli.main(argv) != 0:
                raise SystemExit(f"{name} input {j}: mine failed")
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc.pop("timing")
            return doc

        for name, w in WORKLOADS.items():
            docs = [mine(name, w, j, w.argv(inp, out) + ["--trace"]) for j in range(w.inputs)]
            print(f"{name:16s} {_digest(docs)}")
            results = [{k: v for k, v in doc.items() if k != "pruning"} for doc in docs]
            print(f"{name + ' results':16s} {_digest(results)}")

        def span(w):
            return ["--input", inp, "--output", out,
                    "--lmin", str(w.lmin), "--lmax", str(w.lmax)]
        planted, walk = WORKLOADS["motifs-planted"], WORKLOADS["discords-walk"]
        for name, w, argv in (
                ("mp", planted, ["mp", "--input", inp, "--output", out,
                                 "--length", str(planted.lmin), "--p", "10"]),
                ("oracle motifs", planted, ["oracle", "motifs"] + span(planted)),
                ("oracle discords", walk, ["oracle", "discords", "--k", "3", "--m", "3"]
                 + span(walk))):
            doc = mine(name, w, 0, argv)
            doc.pop("parameters")
            print(f"{name:16s} {_digest(doc)}")

    for name, values in (("W1 valmod", planted_motif_benchmark(5000, 128, 1)),
                         ("W2 valmod", random_walk(5000, 1))):
        trace = sm.RunTrace()
        v = sm.valmod(sm.ingest(values), 64, 128, 10, trace=trace)
        print(f"{name:16s} " + _digest(*_arrays(v.distances, v.norm_distances, v.lengths,
                                                 v.indices, v.populated), trace.totals()))

    trace = sm.RunTrace()
    scan = sm.topkm_discord_discovery(sm.ingest(random_walk(3000, 2)), 32, 64, 3, 3, 10,
                                      trace=trace)
    parts = _arrays(scan.merged.dist, scan.merged.offset, scan.merged.length)
    for length, dkm in sorted(scan.per_length.items()):
        parts += [str(length).encode()] + _arrays(dkm.dist, dkm.offset)
    print(f"{'W4 discords':16s} {_digest(*parts, trace.totals())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
