"""Variable-length motif-pair driver.

One full matrix-profile scan at the shortest length seeds per-row partial
profiles; every longer length is then attempted in O(n·p) by advancing the
stored entries and certifying each row against its scaled harvest threshold:

* a row whose smallest updated true distance sits below its threshold is
  *valid* — that minimum is provably the row's true profile value;
* otherwise the row is *non-valid*: its true minimum is only known to be at
  least the threshold.

If the smallest valid distance undercuts every non-valid row's threshold, the
per-length motif is certified without further work. Failing that, the driver
recomputes from scratch either just the non-valid rows that could still hide
the motif (when they are few), or the whole profile.

Certification alone pins down the motif, not every row's value: non-valid
rows that were never recomputed carry only a floor. A final repair pass
recomputes exactly those (row, length) floors that still undercut the row's
best-so-far normalized match, which makes the merged per-offset output exact
at every offset, not just at the motif.

Floors pile up as the stored entries age, so ``valmod`` also re-seeds by
cost (ski rental). After each certified length it counts the floors the
repair pass could still owe — those whose normalized floor undercuts the
offset's current best, or whose offset is unpopulated — and adds them to a
total kept since the last full scan. Once that total exceeds the rows one
full scan at this length computes, it buys the scan instead: it rescans the
whole profile at this length, drops the length's floors and starts the
count again. Paying per row until the owed rows cost one scan, then buying
the scan, is never worse than twice the better choice in hindsight, and it
leaves no constant to tune. A repair row costs an FFT (O(n log n)) and a
scan row O(n), so the threshold of one scan's rows errs towards rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import policy
from .exceptions import InvalidParametersError, SeriesTooShortError, UnpopulatedError
from .profile import PartialProfiles, compute_matrix_profile, row_profile
from .series import DataSeries


class VALMP:
    """Best length-normalized nearest-neighbor match per offset, over all lengths seen.

    Parallel arrays: raw ``distances``, ``norm_distances`` (= distance *
    sqrt(1/length)), winning ``lengths`` and neighbor ``indices``, plus a
    ``populated`` mask (entries start unpopulated).
    """

    def __init__(self, n_offsets: int):
        self.n_offsets = n_offsets
        self.distances = np.full(n_offsets, np.inf)
        self.norm_distances = np.full(n_offsets, np.inf)
        self.lengths = np.zeros(n_offsets, dtype=np.int64)
        self.indices = np.full(n_offsets, -1, dtype=np.int64)
        self.populated = np.zeros(n_offsets, dtype=bool)

    def __len__(self) -> int:
        return self.n_offsets


def update_valmp(valmp: VALMP, mp_values, ip, n_dp: int, length: int) -> np.ndarray:
    """Fold one length's profile values in; returns the offsets that improved.

    An entry is replaced when the new normalized distance is strictly
    smaller — on a tie the earlier (shorter) entry stays.
    """
    mp_values = np.asarray(mp_values, dtype=np.float64)[:n_dp]
    ip = np.asarray(ip)[:n_dp]
    lnorm = mp_values * np.sqrt(1.0 / length)
    improve = np.isfinite(lnorm)
    improve &= ~valmp.populated[:n_dp] | (valmp.norm_distances[:n_dp] > lnorm)
    idx = np.flatnonzero(improve)
    valmp.distances[idx] = mp_values[idx]
    valmp.norm_distances[idx] = lnorm[idx]
    valmp.lengths[idx] = length
    valmp.indices[idx] = ip[idx]
    valmp.populated[idx] = True
    return idx


def certify_step(min_dists: np.ndarray, thresholds: np.ndarray):
    """Classify rows as valid/non-valid and decide global certification.

    A row is valid when its stored minimum lies strictly below its threshold.
    Certification holds when the smallest valid distance undercuts
    ``min_lb_abs``, the smallest threshold among non-valid rows (+inf when
    all rows are valid).
    """
    valid = min_dists < thresholds
    min_dist_abs = float(np.min(min_dists[valid])) if valid.any() else np.inf
    nonvalid = ~valid
    min_lb_abs = float(np.min(thresholds[nonvalid])) if nonvalid.any() else np.inf
    return valid, min_dist_abs, min_lb_abs, bool(min_dist_abs < min_lb_abs)


@dataclass
class SubMPResult:
    """Per-length attempt outcome: certified values and the uncertified floors."""

    b_best_m: bool
    values: np.ndarray          # true profile value per row, NaN where unknown
    indices: np.ndarray         # neighbor per row, -1 where unknown
    floors: list = field(default_factory=list)   # (row, floor) left uncertified
    n_valid: int = 0
    n_nonvalid: int = 0
    n_recomputed: int = 0


def compute_sub_mp(series: DataSeries, n_dp: int, list_dp: PartialProfiles,
                   new_length: int, p: int) -> SubMPResult:
    """Advance the partial profiles one length and certify what they pin down.

    When certification fails and the non-valid rows are few (fewer than
    n·log(p)/log(n), the break-even against a full rescan), the rows whose
    thresholds still undercut the best certified distance are recomputed from
    scratch, their stored entries refreshed, and the result re-certified.

    The remaining non-valid rows come back as ``floors``. The caller weighs
    them against a full rescan: it re-seeds when certification fails, and
    when the floors the repair pass still owes since the last seed exceed
    ``n_dp``, the rows one full scan computes.
    """
    list_dp.advance(new_length)
    _, sd = series.moving_stats(new_length)
    eligible = sd[:n_dp] >= series.sigma_floor

    best, best_nbr = list_dp.sorted_row_matches(1, n_dp)
    dmin, nbr = best[:, 0], best_nbr[:, 0]
    thr = list_dp.thresholds()[:n_dp].copy()
    # rows with no usable stored data (e.g. resurrected offsets) certify nothing
    thr[eligible & ~list_dp.owner_ok[:n_dp]] = 0.0

    valid, min_dist_abs, min_lb_abs, b_best_m = certify_step(dmin, thr)
    values = np.where(valid, dmin, np.nan)
    indices = np.where(valid, nbr, -1)
    nonvalid_rows = np.flatnonzero(eligible & ~valid)
    result = SubMPResult(b_best_m, values, indices,
                         n_valid=int(valid.sum()), n_nonvalid=len(nonvalid_rows))

    if not b_best_m and len(nonvalid_rows) < n_dp * math.log(p) / math.log(max(n_dp, 2)):
        for i in nonvalid_rows:
            if thr[i] < min_dist_abs:
                _recompute_row(series, list_dp, int(i), new_length, sd, values, indices)
                result.n_recomputed += 1
            else:
                result.floors.append((int(i), float(thr[i])))
        result.b_best_m = True
    else:
        result.floors = [(int(i), float(thr[i])) for i in nonvalid_rows]
    return result


def _recompute_row(series, list_dp, i, length, sd, values, indices):
    """Exact row rescan: write its true minimum and refresh its stored entries."""
    dist, f_row, qt_row = row_profile(series, i, length, want_f=True)
    j = int(np.argmin(dist))
    if np.isfinite(dist[j]):
        values[i] = dist[j]
        indices[i] = j
    list_dp.harvest_row(i, f_row, qt_row, dist, sd[i])


def _written_motif(values: np.ndarray, indices: np.ndarray):
    """Smallest written value and its pair (reported as (min, max) offsets)."""
    safe = np.where(np.isnan(values), np.inf, values)
    a = int(np.argmin(safe))
    if not np.isfinite(safe[a]):
        return None
    b = int(indices[a])
    return min(a, b), max(a, b), float(safe[a])


def _owed_rows(valmp: VALMP, floors: list, length: int) -> int:
    """How many of one length's floors the repair pass could still rescan:
    those whose normalized floor undercuts the offset's best so far, or whose
    offset is unpopulated."""
    if not floors:
        return 0
    rec = np.asarray(floors)
    rows = rec[:, 0].astype(np.int64)
    norm = rec[:, 1] / math.sqrt(length)
    return int(np.count_nonzero(~valmp.populated[rows]
                                | (norm < valmp.norm_distances[rows])))


def validate_range(series: DataSeries, lmin: int, lmax: int):
    if lmin > lmax:
        raise InvalidParametersError(f"lmin {lmin} > lmax {lmax}")
    if lmin < 4:
        raise InvalidParametersError("minimum window length is 4")
    need = lmax + policy.exclusion_zone(lmax)
    if series.n < need:
        raise SeriesTooShortError(
            f"series of {series.n} points cannot host a non-trivial pair at "
            f"length {lmax} (needs {need})")


def valmod(series: DataSeries, lmin: int, lmax: int, p: int, *,
           ranking=None, trace=None) -> VALMP:
    """Exact best match per offset over every window length in [lmin, lmax].

    Parameters
    ----------
    series : DataSeries
    lmin, lmax : int
        Inclusive window-length range.
    p : int
        Stored neighbors per row. Any p >= 1 yields the same output; larger
        p only prunes more.
    ranking : PairRanking, optional
        When given, every improvement is also offered to this bounded top-K
        pair ranking (the motif-set front end).
    trace : RunTrace, optional
        Collects per-length pruning counts and motif summaries.
    """
    validate_range(series, lmin, lmax)
    if p < 1:
        raise InvalidParametersError("p must be at least 1")

    if ranking is not None:
        from .motifsets import update_valmp_for_motif_sets as _ms_update

    def fold(valmp, mp_values, ip, n_dp, length):
        if ranking is None:
            return update_valmp(valmp, mp_values, ip, n_dp, length)
        return _ms_update(valmp, mp_values, ip, n_dp, length, ranking)

    res = compute_matrix_profile(series, lmin, p)
    partials = res.partials
    n0 = series.n - lmin + 1
    valmp = VALMP(n0)
    fold(valmp, res.profile.mp, res.profile.ip, n0, lmin)
    if trace is not None:
        motif = _written_motif(res.profile.mp, res.profile.ip)
        trace.add_length(lmin, n_profiles=n0, n_valid=n0, n_nonvalid=0,
                         n_recomputed=0, full_recompute=False, motif=motif)

    floors: dict[int, list] = {}
    owed = 0    # floors the repair pass may still rescan, since the last seed
    for length in range(lmin + 1, lmax + 1):
        n_dp = series.n - length + 1
        sub = compute_sub_mp(series, n_dp, partials, length, p)
        reseed = None
        if not sub.b_best_m:
            reseed = "uncertified"
        else:
            owed += _owed_rows(valmp, sub.floors, length)
            if owed > n_dp:
                reseed = "cost"
        if reseed is None:
            fold(valmp, sub.values, sub.indices, n_dp, length)
            for i, floor_value in sub.floors:
                floors.setdefault(i, []).append((floor_value, length))
            motif = _written_motif(sub.values, sub.indices)
            n_recomputed = sub.n_recomputed
        else:
            res = compute_matrix_profile(series, length, p)
            partials = res.partials
            fold(valmp, res.profile.mp, res.profile.ip, n_dp, length)
            motif = _written_motif(res.profile.mp, res.profile.ip)
            owed = 0
            # rows already recomputed in this step, plus the rescan's share
            n_recomputed = sub.n_recomputed + sub.n_nonvalid
        if trace is not None:
            trace.add_length(length, n_profiles=n_dp, n_valid=sub.n_valid,
                             n_nonvalid=sub.n_nonvalid, n_recomputed=n_recomputed,
                             full_recompute=reseed is not None, motif=motif,
                             reseed=reseed)

    _repair(series, valmp, floors, ranking, trace)
    return valmp


def _repair(series, valmp, floors, ranking, trace):
    """Recompute every floored (offset, length) that could still beat the
    offset's best entry, restoring per-offset exactness."""
    for i, recs in floors.items():
        recs.sort(key=lambda r: r[0] / math.sqrt(r[1]))
        for floor_value, length in recs:
            floor_norm = floor_value / math.sqrt(length)
            if valmp.populated[i] and floor_norm >= valmp.norm_distances[i]:
                break
            dist, _, _ = row_profile(series, i, length)
            j = int(np.argmin(dist))
            if trace is not None:
                trace.bump_recomputed(length)
            if not np.isfinite(dist[j]):
                continue
            cand_norm = dist[j] / math.sqrt(length)
            better = (not valmp.populated[i]
                      or cand_norm < valmp.norm_distances[i]
                      or (cand_norm == valmp.norm_distances[i]
                          and length < valmp.lengths[i]))
            if better:
                valmp.distances[i] = dist[j]
                valmp.norm_distances[i] = cand_norm
                valmp.lengths[i] = length
                valmp.indices[i] = j
                valmp.populated[i] = True
                if ranking is not None:
                    d = float(dist[j])
                    ranking.push(i, j, d, length, d * float(np.sqrt(1.0 / length)))


def top_variable_length_motif(valmp: VALMP):
    """Global best pair: argmin of normalized distance, ties to smaller offset then length.

    Returns (offset, neighbor, length, distance, norm_distance).
    """
    if not valmp.populated.any():
        raise UnpopulatedError("no populated entries")
    norm = np.where(valmp.populated, valmp.norm_distances, np.inf)
    i = int(np.argmin(norm))   # first minimum = smallest offset
    return (i, int(valmp.indices[i]), int(valmp.lengths[i]),
            float(valmp.distances[i]), float(valmp.norm_distances[i]))
