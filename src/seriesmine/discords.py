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

A length step has two halves. The first is vectorized and runs once per
length: advance the stored entries, take every row's m best stored matches
in one sort, and certify rows whose m-th stored distance sits below the row
threshold. The second is the sequential replay over the live owners in
ascending offset, which only does what depends on the replay order. A
certified owner commits the canonical distances of its stored neighbors;
any other owner skips recomputation only when its (upper-bound) stored
distances provably cannot enter the matrix, so the pruning leaves the
replay's result unchanged. The seed length feeds the same replay from the
full scan's m best matches.

Across lengths, matrices merge cell by cell, keeping the largest
length-normalized distance ``d / sqrt(length)`` (ties to the later, longer
length); normalization favors shorter, sharper anomalies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import policy
from .exceptions import InvalidParametersError
from .profile import (PartialProfiles, compute_matrix_profile, row_best_matches,
                      row_profile)
from .series import DataSeries, pair_distance
from .valmod import validate_range


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


def update_fixed_length_discords(dkm: DiscordMatrix, best_dists: np.ndarray,
                                 off: int, k: int, m: int) -> bool:
    """Try to place one owner into the matrix.

    ``best_dists`` holds the owner's match distances ascending (index j-1 =
    j-th best). Columns are tried from m down to 1, rows top to bottom; the
    first cell the owner beats receives it (lower cells shift down, the
    bottom one drops out) and the scan stops — each owner lands in at most
    one cell.
    """
    for j in range(m, 0, -1):
        d_j = best_dists[j - 1]
        col = j - 1
        for i in range(k):
            if d_j > dkm.dist[i, col]:
                dropped = int(dkm.offset[k - 1, col])
                if k > 1:
                    dkm.dist[i + 1:, col] = dkm.dist[i:k - 1, col].copy()
                    dkm.offset[i + 1:, col] = dkm.offset[i:k - 1, col].copy()
                dkm.dist[i, col] = d_j
                dkm.offset[i, col] = off
                if dropped >= 0:
                    dkm._mark(dropped, False)
                dkm._mark(off, True)
                return True
    return False


def update_variable_length_discords(dkm: DiscordMatrix,
                                    merged: VariableLengthDiscordMatrix,
                                    k: int, m: int) -> VariableLengthDiscordMatrix:
    """Fold one length's matrix into the merged ranking, cell by cell.

    A cell is replaced when its normalized distance is greater *or equal*, so
    later (longer) lengths win exact ties.
    """
    norm = dkm.dist / np.sqrt(dkm.length)
    mask = norm >= merged.dist
    merged.dist[mask] = norm[mask]
    merged.offset[mask] = dkm.offset[mask]
    merged.length[mask] = dkm.length
    return merged


def _canonical_values(series, owner: int, nbrs: np.ndarray, length: int, m: int):
    """Re-derive the owner's match distances through the symmetric pair kernel.

    Values fed into a matrix must tie exactly with their mirrored
    computation (owner and neighbor swapped), or the strict ranking
    comparisons would be decided by dot-product round-off. Returns the m
    distances ascending, +inf where ``nbrs`` runs out (-1 padding).
    """
    out = sorted(pair_distance(series, owner, j, length) for j in nbrs.tolist() if j >= 0)
    return out + [np.inf] * (m - len(out))


def _replay(series: DataSeries, dkm: DiscordMatrix, list_dp: PartialProfiles,
            owners: list, certified: list, stored: np.ndarray, stored_nbrs: np.ndarray,
            k: int, m: int):
    """Offer ``owners`` (ascending offsets) to ``dkm``: the order-dependent half of a step.

    ``stored``/``stored_nbrs`` hold each row's m best stored matches. A
    certified owner commits its canonical values. Any other owner is
    resolved in place: if even its stored distances (upper bounds of the
    true ones) beat no cell of the matrix's bottom row, it provably leaves
    no trace and is skipped; otherwise its full row is recomputed, its
    stored entries refreshed, and its exact distances offered. Returns
    (n_valid, n_nonvalid, n_recomputed).
    """
    length = dkm.length
    _, sd = series.moving_stats(length)
    bottom = dkm.dist[k - 1]      # a view: inserts update it in place
    n_valid = n_nonvalid = n_recomputed = 0
    for i in owners:
        if dkm.has_trivial(i):
            continue
        if certified[i]:
            n_valid += 1
            update_fixed_length_discords(
                dkm, _canonical_values(series, i, stored_nbrs[i], length, m), i, k, m)
            continue
        n_nonvalid += 1
        if not (stored[i] > bottom).any():
            continue
        dist_row, f_row, qt_row = row_profile(series, i, length, want_f=True)
        n_recomputed += 1
        list_dp.harvest_row(i, f_row, qt_row, dist_row, sd[i])
        best, best_nbrs = np.full(m, np.inf), np.full(m, -1, dtype=np.int64)
        row_best_matches(dist_row, best, best_nbrs)
        if np.isfinite(best[m - 1]):
            update_fixed_length_discords(
                dkm, _canonical_values(series, i, best_nbrs, length, m), i, k, m)
    return n_valid, n_nonvalid, n_recomputed


def topkm_next_length(series: DataSeries, n_dp: int, list_dp: PartialProfiles,
                      new_length: int, k: int, m: int,
                      counts: dict | None = None) -> DiscordMatrix:
    """One length step of the discord scan, reusing stored entries.

    Vectorized over all rows: advance the stored entries, take each row's m
    best stored matches, and certify the owners whose m-th stored distance
    is exact (below the row threshold). Then :func:`_replay` offers the live
    owners to the matrix in ascending offset, recomputing a non-certified
    owner only when it could still enter the matrix.
    """
    list_dp.advance(new_length)
    thr = list_dp.thresholds()[:n_dp]
    _, sd = series.moving_stats(new_length)
    stored, stored_nbrs = list_dp.sorted_row_matches(m, n_dp)
    mth = stored[:, m - 1]
    certified = mth < thr
    owners = np.flatnonzero(sd >= series.sigma_floor).tolist()
    dkm = DiscordMatrix.empty(k, m, new_length)
    n_valid, n_nonvalid, n_recomputed = _replay(
        series, dkm, list_dp, owners, certified.tolist(), stored, stored_nbrs, k, m)
    if counts is not None:
        counts.update(n_valid=n_valid, n_nonvalid=n_nonvalid, n_recomputed=n_recomputed)
    return dkm


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
    validate_range(series, lmin, lmax)

    res = compute_matrix_profile(series, lmin, p, m_track=m)
    list_dp = res.partials
    n_dp = series.n - lmin + 1
    _, sd = series.moving_stats(lmin)
    live = (sd >= series.sigma_floor) & np.isfinite(res.best_m[:, m - 1])
    dkm = DiscordMatrix.empty(k, m, lmin)
    _replay(series, dkm, list_dp, np.flatnonzero(live).tolist(), live.tolist(),
            res.best_m, res.best_m_nbr, k, m)
    merged = VariableLengthDiscordMatrix.empty(k, m)
    update_variable_length_discords(dkm, merged, k, m)
    per_length = {lmin: dkm}
    if trace is not None:
        trace.add_length(lmin, n_profiles=n_dp, n_valid=n_dp, n_nonvalid=0,
                         n_recomputed=0, full_recompute=False)

    for length in range(lmin + 1, lmax + 1):
        n_dp = series.n - length + 1
        counts: dict = {}
        dkm = topkm_next_length(series, n_dp, list_dp, length, k, m, counts)
        per_length[length] = dkm
        update_variable_length_discords(dkm, merged, k, m)
        if trace is not None:
            trace.add_length(length, n_profiles=n_dp, full_recompute=False, **counts)
    return DiscordScan(merged, per_length)
