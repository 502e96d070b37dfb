"""Ranked anomaly discovery: Top-k m-th discords over a length range.

A window's m-th best match distance measures how isolated its whole
neighborhood of m look-alikes is; the k windows with the largest such
distances are the Top-k m-th discords. One k-by-m matrix per length holds
them: column j ranks windows by their (j+1)-th best match, descending down
the rows, and no two stored windows may overlap within the exclusion zone.

Candidates are processed in ascending offset with on-line trivial-match
skipping. That greedy order is part of the result's definition: an earlier,
weaker discord can block a stronger overlapping one that starts later. The
brute-force reference replays the identical order, and the pruning below is
careful to leave the replay unchanged — a stored row only skips
recomputation when its (upper-bound) stored distances provably cannot enter
the matrix.

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
    """Top-k m-th discords of one length: distance and owner offset per cell."""

    dist: np.ndarray
    offset: np.ndarray
    length: int
    _occupied: set = field(default_factory=set)

    @classmethod
    def empty(cls, k: int, m: int, length: int) -> "DiscordMatrix":
        return cls(np.full((k, m), -np.inf), np.full((k, m), -1, dtype=np.int64), length)

    def has_trivial(self, off: int) -> bool:
        excl = policy.exclusion_zone(self.length)
        return any(abs(off - o) < excl for o in self._occupied)


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
                    dkm._occupied.discard(dropped)
                dkm._occupied.add(off)
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
    comparisons would be decided by dot-product round-off.
    """
    out = np.full(m, np.inf)
    k = 0
    for j in nbrs:
        if j < 0:
            break
        out[k] = pair_distance(series, owner, int(j), length)
        k += 1
    out.sort()
    return out


def topkm_next_length(series: DataSeries, n_dp: int, list_dp: PartialProfiles,
                      new_length: int, k: int, m: int,
                      counts: dict | None = None) -> DiscordMatrix:
    """One length step of the discord scan, reusing stored entries.

    Owners whose m-th smallest stored distance is certified exact (below the
    row threshold) commit directly. Any other owner is resolved in place: if
    even its stored distances (upper bounds of the true ones) beat no cell in
    the matrix's last row, it provably leaves no trace and is skipped;
    otherwise its full row is recomputed, its stored entries refreshed, and
    its exact distances offered to the matrix.
    """
    list_dp.advance(new_length)
    thr = list_dp.thresholds()
    _, sd = series.moving_stats(new_length)
    dkm = DiscordMatrix.empty(k, m, new_length)
    n_valid = n_nonvalid = n_recomputed = 0
    for i in range(n_dp):
        if sd[i] < series.sigma_floor:
            continue
        if dkm.has_trivial(i):
            continue
        if list_dp.owner_ok[i]:
            stored, stored_nbrs = list_dp.sorted_row_matches(i, m)
            row_thr = thr[i]
        else:
            stored, stored_nbrs = np.full(m, np.inf), None
            row_thr = 0.0
        if np.isfinite(stored[m - 1]) and stored[m - 1] < row_thr:
            n_valid += 1
            update_fixed_length_discords(
                dkm, _canonical_values(series, i, stored_nbrs, new_length, m),
                i, k, m)
            continue
        n_nonvalid += 1
        if not np.any(stored > dkm.dist[k - 1]):
            continue
        dist_row, f_row, qt_row = row_profile(series, i, new_length, want_f=True)
        n_recomputed += 1
        list_dp.harvest_row(i, f_row, qt_row, dist_row, sd[i])
        best, best_nbrs = np.full(m, np.inf), np.full(m, -1, dtype=np.int64)
        row_best_matches(dist_row, best, best_nbrs)
        if np.isfinite(best[m - 1]):
            update_fixed_length_discords(
                dkm, _canonical_values(series, i, best_nbrs, new_length, m),
                i, k, m)
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
    dkm = DiscordMatrix.empty(k, m, lmin)
    _, sd = series.moving_stats(lmin)
    for i in range(n_dp):
        if sd[i] < series.sigma_floor or not np.isfinite(res.best_m[i, m - 1]):
            continue
        if dkm.has_trivial(i):
            continue
        update_fixed_length_discords(
            dkm, _canonical_values(series, i, res.best_m_nbr[i], lmin, m), i, k, m)
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
