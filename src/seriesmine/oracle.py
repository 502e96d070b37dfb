"""Brute-force reference implementations.

Everything here recomputes distances the slow, obvious way: materialize the
windows, z-normalize each one explicitly, and take the Euclidean norm of
their explicit differences in numpy. No running sums, no FFT, no dot-product
identity — deliberately a separate code path from the engine, so an agreement
between the two is meaningful. Matching policy (exclusion zone, constant
windows, tie-breaks) is shared via :mod:`seriesmine.policy`, discord
insertion replays the exact routine from :mod:`seriesmine.discords`, and the
parameter checks are the engine's own, because those are policy, not
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import policy
from .series import DataSeries
from .valmod import validate_range


def naive_distance_matrix(series: DataSeries, length: int) -> np.ndarray:
    """All pairwise z-normalized distances at one length.

    Cell (i, j) is +inf for trivial matches (|i-j| inside the exclusion
    zone, including the diagonal) and for any pair touching a constant
    window.
    """
    windows = sliding_window_view(series.values, length)
    sd = windows.std(axis=1)
    valid = sd >= series.sigma_floor
    z = (windows - windows.mean(axis=1, keepdims=True)) / np.where(valid, sd, 1.0)[:, None]
    n_dp = z.shape[0]
    dists = np.full((n_dp, n_dp), np.inf)
    offs = np.arange(n_dp)
    for lag in range(policy.exclusion_zone(length), n_dp):   # one diagonal per lag
        diff = z[lag:] - z[:-lag]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        dists[offs[lag:], offs[:-lag]] = d
        dists[offs[:-lag], offs[lag:]] = d
    dists[~valid, :] = np.inf
    dists[:, ~valid] = np.inf
    return dists


def naive_profile(series: DataSeries, length: int):
    """Nearest-neighbor distance and index per offset, from the full matrix."""
    dists = naive_distance_matrix(series, length)
    ip = np.argmin(dists, axis=1)
    mp = dists[np.arange(dists.shape[0]), ip]
    ip = np.where(np.isfinite(mp), ip, -1)
    return mp, ip


@dataclass
class OracleMotifs:
    """Per-length profiles plus the merged variable-length best-match vectors."""

    lengths: list[int]
    motif_pairs: list[tuple[int, int]]
    motif_distances: list[float]
    profiles: dict[int, tuple[np.ndarray, np.ndarray]] = field(repr=False)
    valmp_norm: np.ndarray = field(repr=False)
    valmp_dist: np.ndarray = field(repr=False)
    valmp_length: np.ndarray = field(repr=False)
    valmp_index: np.ndarray = field(repr=False)


def brute_force_motifs(series: DataSeries, lmin: int, lmax: int,
                       keep_profiles: bool = True) -> OracleMotifs:
    """Exhaustive motif search over a length range.

    Scans every pairwise distance at every length; the merged vectors apply
    the same strictly-improving, shortest-length-wins update rule as the
    engine, processing lengths in ascending order.
    """
    validate_range(series, lmin, lmax)
    n_min = series.n - lmin + 1
    norm = np.full(n_min, np.inf)
    dist = np.full(n_min, np.inf)
    lenv = np.zeros(n_min, dtype=np.int64)
    idx = np.full(n_min, -1, dtype=np.int64)
    populated = np.zeros(n_min, dtype=bool)

    lengths, pairs, motif_d = [], [], []
    profiles = {}
    for length in range(lmin, lmax + 1):
        mp, ip = naive_profile(series, length)
        if keep_profiles:
            profiles[length] = (mp, ip)
        a = int(np.argmin(mp))
        lengths.append(length)
        if np.isfinite(mp[a]):
            pairs.append((min(a, int(ip[a])), max(a, int(ip[a]))))
            motif_d.append(float(mp[a]))
        else:
            pairs.append((-1, -1))
            motif_d.append(np.inf)
        n_dp = mp.shape[0]
        lnorm = mp * np.sqrt(1.0 / length)
        improve = np.isfinite(lnorm) & (~populated[:n_dp] | (norm[:n_dp] > lnorm))
        norm[:n_dp][improve] = lnorm[improve]
        dist[:n_dp][improve] = mp[improve]
        lenv[:n_dp][improve] = length
        idx[:n_dp][improve] = ip[improve]
        populated[:n_dp] |= improve
    return OracleMotifs(lengths, pairs, motif_d, profiles, norm, dist, lenv, idx)


def sorted_match_distances(dist_row: np.ndarray, m: int) -> np.ndarray:
    """The m smallest finite values of one distance row, ascending, inf-padded."""
    finite = dist_row[np.isfinite(dist_row)]
    out = np.full(m, np.inf)
    take = min(m, finite.shape[0])
    if take:
        out[:take] = np.sort(np.partition(finite, take - 1)[:take])
    return out


def brute_force_discords(series: DataSeries, lmin: int, lmax: int, k: int, m: int):
    """Exhaustive ranked-anomaly search over a length range.

    Returns (per_length, merged): per-length k-by-m matrices built by
    replaying the engine's ascending-offset insertion policy on fully
    computed distance rows, and the merged matrix favoring the largest
    length-normalized distances.
    """
    from .discords import DiscordMatrix, VariableLengthDiscordMatrix, \
        update_fixed_length_discords, update_variable_length_discords, validate_counts

    validate_counts(k, m)
    validate_range(series, lmin, lmax)
    merged = VariableLengthDiscordMatrix.empty(k, m)
    per_length = {}
    for length in range(lmin, lmax + 1):
        dists = naive_distance_matrix(series, length)
        dkm = DiscordMatrix.empty(k, m, length)
        for off in range(dists.shape[0]):
            if dkm.has_trivial(off):
                continue
            best = sorted_match_distances(dists[off], m)
            if not np.isfinite(best[m - 1]):
                continue
            update_fixed_length_discords(dkm, best, off, k, m)
        per_length[length] = dkm
        update_variable_length_discords(dkm, merged, k, m)
    return per_length, merged
