"""
Variable-length motif discovery
===============================

Search a whole range of window lengths in one pass. The engine computes a
full profile only at the shortest length; every longer length reuses the
stored neighbor entries, certifying most rows without recomputation. The
per-offset results merge under the sqrt(1/length) normalization so that
matches of different lengths can be ranked against each other.
"""

import numpy as np

import seriesmine as sm
from seriesmine.metrics import RunTrace
from seriesmine.synthetic import planted_pair_series

series = sm.ingest(planted_pair_series(2000, 96, offsets=(300, 1200), seed=3))
lmin, lmax, p = 48, 96, 10

trace = RunTrace()
valmp = sm.valmod(series, lmin, lmax, p, trace=trace)

offset, neighbor, length, dist, norm = sm.top_variable_length_motif(valmp)
print(f"top variable-length motif: ({offset}, {neighbor})")
print(f"  winning length {length}, distance {dist:.4f}, normalized {norm:.5f}")

print("\nper-length motif pairs (every one exact):")
for rec in trace.records[::8]:
    a, b, d = rec.motif
    print(f"  length {rec.length:3d}: ({a}, {b})  distance {d:.4f}")

totals = trace.totals()
print(f"\nprofiles classified   : {totals['valid'] + totals['nonvalid']}")
print(f"certified directly    : {totals['valid']}")
print(f"recomputed            : {totals['recomputed']} "
      f"({100 * totals['recomputed_fraction']:.2f}% of all profiles)")

# How many offsets prefer each winning length after normalization
lengths, counts = np.unique(valmp.lengths[valmp.populated], return_counts=True)
top = np.argsort(counts)[::-1][:5]
print("\nmost common winning lengths:",
      {int(lengths[i]): int(counts[i]) for i in top})
