"""Ranked anomaly discovery: Top-k m-th discords over a length range.

A window's m-th best match distance measures how isolated its whole
neighborhood of m look-alikes is; the k windows with the largest such
distances are the Top-k m-th discords. One k-by-m matrix per length holds
them: column j ranks windows by their (j+1)-th best match, descending down
the rows, and no two stored windows may overlap within the exclusion zone.

Candidates are processed in ascending offset with on-line trivial-match
skipping. That greedy order is part of the result's definition: an earlier,
weaker discord can block a stronger overlapping one that starts later. The
brute-force reference replays the identical order.

A length step has two halves. The first, :meth:`PartialProfiles.step`, is
the vectorized half the motif driver shares: advance the stored entries and
give every row its m best stored matches and its threshold; a row whose m-th
stored distance sits below it is certified. The second, in
:func:`topkm_next_length`, offers the live owners to the matrix in ascending
offset, and only does what depends on that order. A certified owner commits
the canonical distances of its stored neighbors; any other owner skips
recomputation only when its (upper-bound) stored distances provably cannot
enter the matrix, so the pruning leaves the result unchanged. A recomputed
owner goes through ``row_profile``'s harvesting form, which settles most rows
from their p+1 highest correlations. The shortest length is an ordinary
step: its stored entries come from the full scan at that length.

Across lengths, matrices merge cell by cell, keeping the largest
length-normalized distance ``d / sqrt(length)`` (ties to the later, longer
length); normalization favors shorter, sharper anomalies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import policy
from .exceptions import InvalidParametersError
from .profile import PartialProfiles, compute_matrix_profile, row_profile
from .series import DataSeries, pair_distance


@dataclass
class DiscordMatrix:
    """Top-k m-th discords of one length: distance and owner offset per cell.

    ``_cover[j]`` counts the stored owners whose exclusion zone holds offset
    j, so the trivial-match check is one lookup. Inserts and drops keep it
    current; it grows on demand, and offsets past its end are uncovered. A
    count never exceeds the k*m cells, which sets its (smallest) dtype.
    """

    dist: np.ndarray
    offset: np.ndarray
    length: int
    _cover: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._cover = np.zeros(0, dtype=np.min_scalar_type(self.dist.size))

    @classmethod
    def empty(cls, k: int, m: int, length: int) -> "DiscordMatrix":
        return cls(np.full((k, m), -np.inf), np.full((k, m), -1, dtype=np.int64), length)

    def has_trivial(self, off: int) -> bool:
        """Whether a stored owner lies within the exclusion zone of offset ``off`` (>= 0)."""
        return off < self._cover.shape[0] and bool(self._cover[off])

    def _mark(self, off: int, stored: bool):
        """Count owner ``off`` in (or out of) the cover of every offset it trivially matches."""
        excl = policy.exclusion_zone(self.length)
        size = self._cover.shape[0]
        if off + excl > size:
            grow = max(off + excl, 2 * size) - size
            self._cover = np.concatenate((self._cover, np.zeros(grow, dtype=self._cover.dtype)))
        zone = self._cover[max(0, off - excl + 1):off + excl]
        if stored:
            zone += 1
        else:
            zone -= 1


@dataclass
class VariableLengthDiscordMatrix:
    """The merged ranking: per cell the largest normalized distance over all lengths."""

    dist: np.ndarray
    offset: np.ndarray
    length: np.ndarray

    @classmethod
    def empty(cls, k: int, m: int) -> "VariableLengthDiscordMatrix":
        return cls(np.full((k, m), -np.inf),
                   np.full((k, m), -1, dtype=np.int64),
                   np.zeros((k, m), dtype=np.int64))


def validate_counts(k: int, m: int):
    """The ranking needs at least one discord (k) and one match per discord (m)."""
    if m < 1 or k < 1:
        raise InvalidParametersError("k and m must be at least 1")


def update_fixed_length_discords(dkm: DiscordMatrix, best_dists: np.ndarray, off: int) -> bool:
    """Try to place one owner into the matrix.

    ``best_dists`` holds the owner's match distances ascending (index j-1 =
    j-th best). Columns are tried from m down to 1, rows top to bottom; the
    first cell the owner beats receives it (lower cells shift down, the
    bottom one drops out) and the scan stops — each owner lands in at most
    one cell.
    """
    k, m = dkm.dist.shape
    for j in range(m, 0, -1):
        d_j = best_dists[j - 1]
        col = j - 1
        for i in range(k):
            if d_j > dkm.dist[i, col]:
                dropped = int(dkm.offset[k - 1, col])
                if k > 1:
                    dkm.dist[i + 1:, col] = dkm.dist[i:k - 1, col]
                    dkm.offset[i + 1:, col] = dkm.offset[i:k - 1, col]
                dkm.dist[i, col] = d_j
                dkm.offset[i, col] = off
                if dropped >= 0:
                    dkm._mark(dropped, False)
                dkm._mark(off, True)
                return True
    return False


def update_variable_length_discords(dkm: DiscordMatrix, merged: VariableLengthDiscordMatrix):
    """Fold one length's matrix into the merged ranking, cell by cell, in place.

    A cell is replaced when its normalized distance is greater *or equal*, so
    later (longer) lengths win exact ties.
    """
    norm = dkm.dist / np.sqrt(dkm.length)
    mask = norm >= merged.dist
    merged.dist[mask] = norm[mask]
    merged.offset[mask] = dkm.offset[mask]
    merged.length[mask] = dkm.length


def topkm_next_length(series: DataSeries, list_dp: PartialProfiles, new_length: int,
                      k: int, m: int) -> tuple[DiscordMatrix, dict]:
    """One length step of the discord scan: its matrix and pruning counts.

    :meth:`PartialProfiles.step` gives each row's m best stored matches and
    threshold; an owner whose m-th stored distance is below its threshold is
    certified (exact). The live owners are then offered to the matrix in
    ascending offset, each with the canonical values of its m nearest. A
    certified owner takes them from its stored entries. Any other owner
    whose stored distances (upper bounds of the true ones) beat no cell of
    the matrix's bottom row provably leaves no trace and is skipped; the
    rest are recomputed by ``row_profile``'s harvesting form, which also
    refreshes their stored entries. Both tests read the bottom row and the
    stored values as Python floats (the same bits), and an offer reaches
    :func:`update_fixed_length_discords` only when it beats the bottom in
    some column: its own insert condition while columns stay sorted.
    """
    stored, stored_nbrs, thr = list_dp.step(new_length, m)
    certified = (stored[:, m - 1] < thr).tolist()
    stored = stored.tolist()
    dkm = DiscordMatrix.empty(k, m, new_length)
    bottom = dkm.dist[k - 1].tolist()
    n_valid = n_nonvalid = n_recomputed = 0
    for i in np.flatnonzero(np.isfinite(thr)).tolist():
        if dkm.has_trivial(i):
            continue
        if certified[i]:
            n_valid += 1
            nbrs = stored_nbrs[i].tolist()
        else:
            n_nonvalid += 1
            if not any(d > b for d, b in zip(stored[i], bottom)):
                continue
            nbrs = row_profile(series, i, new_length, harvest=list_dp, m=m)[0].tolist()
            n_recomputed += 1
            if len(nbrs) < m:
                continue
        # the symmetric pair kernel: a value must tie exactly with its mirrored
        # computation, or round-off would decide the strict rank comparisons
        canonical = sorted(pair_distance(series, i, j, new_length) for j in nbrs)
        if any(d > b for d, b in zip(canonical, bottom)):
            update_fixed_length_discords(dkm, canonical, i)
            bottom = dkm.dist[k - 1].tolist()
    return dkm, dict(n_valid=n_valid, n_nonvalid=n_nonvalid, n_recomputed=n_recomputed)


@dataclass
class DiscordScan:
    """Merged ranking plus the per-length matrices it was built from."""

    merged: VariableLengthDiscordMatrix
    per_length: dict[int, DiscordMatrix]


def topkm_discord_discovery(series: DataSeries, lmin: int, lmax: int,
                            k: int, m: int, p: int, *,
                            trace=None) -> DiscordScan:
    """Exact Top-k m-th discords for every length in [lmin, lmax], merged.

    Requires p >= m: the stored entries must be able to certify m match
    distances per row.
    """
    validate_counts(k, m)
    if p < m:
        raise InvalidParametersError(f"p ({p}) must be at least m ({m})")
    policy.validate_range(series, lmin, lmax)

    list_dp = compute_matrix_profile(series, lmin, p).partials
    merged = VariableLengthDiscordMatrix.empty(k, m)
    per_length = {}
    for length in range(lmin, lmax + 1):
        n_dp = series.n - length + 1
        dkm, counts = topkm_next_length(series, list_dp, length, k, m)
        per_length[length] = dkm
        update_variable_length_discords(dkm, merged)
        if trace is not None:
            trace.add_length(length, n_profiles=n_dp, **counts)
    return DiscordScan(merged, per_length)
