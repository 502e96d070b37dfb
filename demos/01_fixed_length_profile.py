"""
Fixed-length matrix profile basics
==================================

Compute the nearest-neighbor profile of a series at one window length, find
the motif pair (the two closest non-overlapping windows), and peek at the
partial profiles that later power the variable-length search.
"""

import numpy as np

import seriesmine as sm
from seriesmine.profile import compute_matrix_profile
from seriesmine.synthetic import planted_pair_series

# A random walk with the same 64-point pattern planted at offsets 100 and 400.
series = sm.ingest(planted_pair_series(1000, 64, offsets=(100, 400), seed=3))
length = 48

result = compute_matrix_profile(series, length, p=5)
mp, ip = result.profile.mp, result.profile.ip

motif_owner = int(np.argmin(mp))
print(f"window length         : {length}")
print(f"profile size          : {mp.shape[0]} windows")
print(f"motif pair            : ({motif_owner}, {int(ip[motif_owner])})")
print(f"motif distance        : {mp[motif_owner]:.6f}")

# Each row keeps the p=5 neighbors with the smallest extension bounds;
# their scaled maximum certifies matches at longer window lengths.
partials = result.partials
stored = partials.alive[motif_owner]
print(f"\nstored neighbors of {motif_owner}: {partials.nbr[motif_owner, stored].tolist()}")
print(f"stored distances       : {np.round(partials.dist[motif_owner, stored], 4).tolist()}")
print(f"certification bound    : {partials.thresholds()[motif_owner]:.4f}")

# The exclusion zone keeps a window from matching its own overlap.
print(f"\nnearest neighbor is always >= ceil(L/2) = {-(-length // 2)} offsets away:",
      int(np.min(np.abs(ip[ip >= 0] - np.flatnonzero(ip >= 0)))))
