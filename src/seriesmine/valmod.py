"""Variable-length motif-pair driver.

One loop walks the lengths from the shortest. The first length, like every
re-seed, runs a full matrix-profile scan that seeds per-row partial profiles;
any other length is attempted in O(n·p) by advancing the stored entries and
certifying each row against its scaled harvest threshold:

* a row whose smallest updated true distance sits below its threshold is
  *valid* — that minimum is provably the row's true profile value;
* otherwise the row is *non-valid*: its true minimum is only known to be at
  least the threshold.

A non-valid row whose threshold undercuts the best valid distance could
hide the length's motif, and is recomputed; the other non-valid rows leave
*floors*. A final repair pass recomputes exactly those (row, length) floors
that still undercut the row's best-so-far normalized match, which makes the
merged per-offset output exact at every offset, not just at the motif. It
walks the floors in rounds of one floor per offset, and with a motif-set
ranking skips the floors above its bound, which can no longer rank.

A length's hiding rows and a repair round run through one loop that
batches their FFTs (``_recompute``), and every result enters the output
through one fold (``_fold``), which also feeds the motif-set ranking.

One ski-rental rule picks, per length, between row recomputes and a full
rescan. ``owed`` counts the rows recomputed since the last scan plus the
floors the repair pass could still owe: those whose normalized floor
undercuts the offset's current best, which is +inf while unpopulated. The
hiding rows are recomputed when they fit the budget of one scan's rows
minus ``owed``; then they and the length's owed floors join ``owed``. When
they do not fit, or ``owed`` outgrows one scan's rows, the length is
rescanned: its floors drop and the count starts again. Paying per row
until the rows cost one scan, then buying the scan, is never worse than
twice the better choice in hindsight, and leaves no constant to tune. A
row recompute costs an FFT (O(n log n)) and a scan row O(n), so the
threshold of one scan's rows errs towards rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import policy
from .exceptions import UnpopulatedError
from .profile import _BLOCK_CELLS, PartialProfiles, compute_matrix_profile, row_profile
from .series import DataSeries, sliding_dot_products


class VALMP:
    """Best length-normalized nearest-neighbor match per offset, over all lengths seen.

    Parallel arrays: raw ``distances``, ``norm_distances`` (= distance *
    sqrt(1/length)), winning ``lengths`` and neighbor ``indices``. An empty
    entry holds +inf, length 0 and neighbor -1; ``populated`` reads the finite norms.
    """

    def __init__(self, n_offsets: int):
        self.distances = np.full(n_offsets, np.inf)
        self.norm_distances = np.full(n_offsets, np.inf)
        self.lengths = np.zeros(n_offsets, dtype=np.int64)
        self.indices = np.full(n_offsets, -1, dtype=np.int64)

    @property
    def populated(self) -> np.ndarray:
        return np.isfinite(self.norm_distances)

    def __len__(self) -> int:
        return self.distances.shape[0]


def update_valmp(valmp: VALMP, mp_values, ip, length: int, ranking=None) -> np.ndarray:
    """Fold one length's profile values, one per offset there, in by :func:`_fold`,
    ``ranking`` as there; returns the offsets that improved. On a tie the
    held, shorter entry stays."""
    mp_values = np.asarray(mp_values, dtype=np.float64)
    n_dp = mp_values.shape[0]
    return _fold(valmp, np.arange(n_dp), mp_values, np.asarray(ip),
                 np.full(n_dp, length), ranking)


def _fold(valmp: VALMP, offs, dists, nbrs, lengths, ranking=None) -> np.ndarray:
    """Offer each (offset, distance, neighbor, length) to its entry; returns
    the offsets replaced, and pushes to ``ranking``, when given, those within
    its bound (none above it can rank; an equal norm can win on length).

    An entry is replaced by a smaller normalized distance, or by an equal one
    at a shorter length. An empty entry holds +inf at length 0, so neither a
    +inf nor a NaN offer ever wins, and every written norm is finite.
    ``offs`` must be distinct.
    """
    norm = dists * np.sqrt(1.0 / lengths)
    held = valmp.norm_distances[offs]
    better = (norm < held) | ((norm == held) & (lengths < valmp.lengths[offs]))
    offs, dists, nbrs, lengths, norm = (a[better] for a in (offs, dists, nbrs, lengths, norm))
    valmp.distances[offs], valmp.norm_distances[offs], valmp.lengths[offs] = dists, norm, lengths
    valmp.indices[offs] = nbrs
    if ranking is not None:
        push = norm <= ranking.bound()
        for pair in zip(*(a[push].tolist() for a in (offs, nbrs, dists, lengths, norm))):
            ranking.push(*pair)
    return offs


def _recompute(series: DataSeries, rows, lengths, harvest: PartialProfiles | None = None):
    """Yield (k, ``row_profile(series, rows[k], lengths[k], harvest=harvest)``)
    for every k, the rows' FFTs batched."""
    queries = [series.window(i, length) for i, length in zip(rows, lengths)]
    for k, qt in sliding_dot_products(series, queries, max(1, _BLOCK_CELLS // series.n)):
        yield k, row_profile(series, rows[k], lengths[k], qt_row=qt, harvest=harvest)


@dataclass
class SubMPResult:
    """Per-length attempt outcome: certified values and the floors left
    behind, as parallel row and threshold arrays. ``b_best_m`` is False when
    the hiding rows did not fit the budget; every non-valid row is then a floor."""

    b_best_m: bool
    values: np.ndarray          # true profile value per row, +inf where unknown
    indices: np.ndarray         # neighbor per row, -1 where unknown
    floor_rows: np.ndarray      # non-valid rows not recomputed
    floor_values: np.ndarray    # their thresholds
    n_valid: int = 0
    n_nonvalid: int = 0
    n_recomputed: int = 0


def compute_sub_mp(series: DataSeries, list_dp: PartialProfiles,
                   new_length: int, budget: int) -> SubMPResult:
    """Certify one length from :meth:`PartialProfiles.step`, then recompute
    the rows that could hide the motif when at most ``budget`` of them do.

    A row is valid when its stored minimum lies strictly below its threshold;
    a non-valid row could hide the motif when its threshold undercuts the
    smallest valid distance (+inf when no row is valid). Each recomputed row
    gets its true minimum and refreshed stored entries; the other non-valid
    rows come back as floors, and their values stay +inf. When the hiding
    rows do not fit, nothing is recomputed and ``b_best_m`` is False.
    """
    best, best_nbr, thr = list_dp.step(new_length, 1)
    valid = best[:, 0] < thr
    min_dist_abs = np.min(best[valid, 0]) if valid.any() else np.inf
    values = np.where(valid, best[:, 0], np.inf)
    indices = np.where(valid, best_nbr[:, 0], -1)
    nonvalid = np.isfinite(thr) & ~valid
    n_nonvalid = int(nonvalid.sum())
    hide_rows = np.flatnonzero(~valid & (thr < min_dist_abs)).tolist()
    fits = len(hide_rows) <= budget
    if fits:
        lengths = [new_length] * len(hide_rows)
        for k, (nbrs, dists) in _recompute(series, hide_rows, lengths, harvest=list_dp):
            if nbrs.shape[0]:
                values[hide_rows[k]], indices[hide_rows[k]] = dists[0], nbrs[0]
        nonvalid[hide_rows] = False
    floor_rows = np.flatnonzero(nonvalid)
    return SubMPResult(fits, values, indices, floor_rows, thr[floor_rows], int(valid.sum()),
                       n_nonvalid, n_nonvalid - floor_rows.shape[0])


def _written_motif(values: np.ndarray, indices: np.ndarray):
    """Smallest written value and its pair (reported as (min, max) offsets)."""
    a = int(np.argmin(values))
    if not np.isfinite(values[a]):
        return None
    b = int(indices[a])
    return min(a, b), max(a, b), float(values[a])


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
        p only prunes more. The first length's scan rejects p < 1.
    ranking : PairRanking, optional
        When given, every improvement within ``ranking.bound()`` is also
        offered to this top-K pair ranking (the motif-set front end); the
        VALMP is then exact only where its best norm is within the final bound.
    trace : RunTrace, optional
        Collects per-length pruning counts and motif summaries; the first
        length's record counts every scanned row as valid.
    """
    policy.validate_range(series, lmin, lmax)

    fold = update_valmp
    if ranking is not None:   # imported here: motifsets imports this module
        from .motifsets import update_valmp_for_motif_sets as fold

    valmp = VALMP(series.n - lmin + 1)
    partials = None   # no stored entries before the first scan
    floors = []   # (length, rows, floor values) of every length not rescanned
    owed = 0      # rows recomputed or owed to the repair pass since the last scan
    for length in range(lmin, lmax + 1):
        n_dp = series.n - length + 1
        reseed = None
        counts = dict(n_valid=n_dp, n_nonvalid=0, n_recomputed=0)
        if partials is not None:    # not the first length
            sub = compute_sub_mp(series, partials, length, n_dp - owed)
            counts = dict(n_valid=sub.n_valid, n_nonvalid=sub.n_nonvalid,
                          n_recomputed=sub.n_recomputed)
            owed += sub.n_recomputed + np.count_nonzero(
                sub.floor_values * np.sqrt(1.0 / length) < valmp.norm_distances[sub.floor_rows])
            if not sub.b_best_m or owed > n_dp:
                reseed = "cost"
        if partials is None or reseed:
            res = compute_matrix_profile(series, length, p)
            partials = res.partials
            values, indices = res.profile.mp, res.profile.ip
            owed = 0
            # rows already recomputed in this step, plus the rescan's share
            counts["n_recomputed"] += counts["n_nonvalid"]
        else:
            values, indices = sub.values, sub.indices
            floors.append((length, sub.floor_rows, sub.floor_values))
        fold(valmp, values, indices, length, ranking)
        if trace is not None:
            trace.add_length(length, n_profiles=n_dp, motif=_written_motif(values, indices),
                             reseed=reseed, **counts)

    _repair(series, valmp, floors, ranking, trace)
    return valmp


def _repair(series, valmp, floors, ranking, trace):
    """Recompute every floored (offset, length) that could still beat the
    offset's best entry, restoring per-offset exactness.

    Each offset's floors are tried in ascending normalized order, ties to the
    shorter length; a floor at or above the offset's best is skipped, and so
    are its later ones, which sit no lower. Round r takes every offset's r-th
    floor and recomputes the owed rows with their FFTs batched. Its offsets
    are distinct and each decision reads only its own offset's entry, so the
    rounds recompute the rows, and leave the entries, of one offset at a time.
    With a ranking, a round drops its floors above ``ranking.bound()``: each
    is a lower bound on its row's norm, and the bound only falls.
    """
    if not floors:
        return
    rows = np.concatenate([r for _, r, _ in floors])
    lengths = np.concatenate([np.full(r.shape[0], length) for length, r, _ in floors])
    norm = np.concatenate([v * np.sqrt(1.0 / length) for length, _, v in floors])
    order = np.lexsort((lengths, norm, rows))
    rank = np.arange(order.shape[0]) - np.searchsorted(rows[order], rows[order])
    for r in range(int(rank.max(initial=-1)) + 1):
        ks = order[rank == r]
        bound = np.inf if ranking is None else ranking.bound()
        ks = ks[(norm[ks] < valmp.norm_distances[rows[ks]]) & (norm[ks] <= bound)]
        offs, lens = rows[ks], lengths[ks]
        dist_min, nbr = np.empty(ks.shape[0]), np.empty(ks.shape[0], dtype=np.int64)
        for k, dist in _recompute(series, offs.tolist(), lens.tolist()):
            nbr[k] = j = dist.argmin()
            dist_min[k] = dist[j]
            if trace is not None:
                trace.bump_recomputed(int(lens[k]))
        # the round's offsets are distinct, so its entries update as one
        _fold(valmp, offs, dist_min, nbr, lens, ranking)


def top_variable_length_motif(valmp: VALMP):
    """Global best pair: argmin of normalized distance, ties to the smaller offset.

    Returns (offset, neighbor, length, distance, norm_distance).
    """
    if not valmp.populated.any():
        raise UnpopulatedError("no populated entries")
    i = int(np.argmin(valmp.norm_distances))   # first minimum = smallest offset
    return (i, int(valmp.indices[i]), int(valmp.lengths[i]),
            float(valmp.distances[i]), float(valmp.norm_distances[i]))
