"""Top-K motif pairs and their extension into disjoint motif sets.

Ranked pairs are keyed by length-normalized distance so that pairs of
different lengths compete on equal footing. Each ranked pair later becomes a
motif set: every window within radius ``r = D * pair_distance`` of either
anchor joins, where D is the user's radius factor. Each anchor's candidates
come from one full distance row at the pair's length.

Sets are built best pair first, and every window consumed by a set is removed
from the search space, so the returned sets are pairwise disjoint — including
across lengths: two sets may not share a start offset even with different
window lengths.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from . import policy
from .exceptions import InvalidParametersError
from .profile import row_profile
from .series import DataSeries
from .valmod import VALMP, update_valmp


@dataclass
class RankedPair:
    """A candidate motif pair."""

    off1: int
    off2: int
    distance: float
    length: int
    norm_distance: float

    @property
    def key(self):
        return (self.norm_distance, self.length, self.off1, self.off2)


class PairRanking:
    """Bounded best-K pair collection keyed by normalized distance.

    Mirrored improvements collapse onto one canonical (min, max) offset pair;
    re-pushing an existing pair keeps whichever scores better.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise InvalidParametersError(f"top-k must be at least 1 (got {capacity})")
        self.capacity = capacity
        self._keys: list[tuple] = []
        self._items: list[RankedPair] = []
        self._by_pair: dict[tuple[int, int], RankedPair] = {}

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __contains__(self, offsets):
        return (min(offsets), max(offsets)) in self._by_pair

    def _remove(self, pair: RankedPair):
        pos = bisect.bisect_left(self._keys, pair.key)
        del self._keys[pos]
        del self._items[pos]
        del self._by_pair[(pair.off1, pair.off2)]

    def push(self, off1: int, off2: int, distance: float, length: int,
             norm_distance: float) -> bool:
        a, b = (off1, off2) if off1 < off2 else (off2, off1)
        pair = RankedPair(a, b, distance, length, norm_distance)
        held = self._by_pair.get((a, b))
        if held is not None:
            if pair.key >= held.key:
                return False
            self._remove(held)
        elif len(self._items) >= self.capacity and pair.key >= self._keys[-1]:
            return False
        pos = bisect.bisect_left(self._keys, pair.key)
        self._keys.insert(pos, pair.key)
        self._items.insert(pos, pair)
        self._by_pair[(a, b)] = pair
        if len(self._items) > self.capacity:
            self._remove(self._items[-1])
        return True


def update_valmp_for_motif_sets(valmp: VALMP, mp_values, ip, n_dp: int, length: int,
                                ranking: PairRanking) -> VALMP:
    """The ranking-aware profile fold: update the per-offset best matches and
    offer every improving pair to the bounded ranking."""
    idx = update_valmp(valmp, mp_values, ip, n_dp, length)
    mp_values = np.asarray(mp_values, dtype=np.float64)
    ip = np.asarray(ip)
    for i in idx:
        ranking.push(int(i), int(ip[i]), float(mp_values[i]), length,
                     float(valmp.norm_distances[i]))
    return valmp


@dataclass
class MotifSet:
    """All windows within the radius of a ranked pair, after overlap and
    disjointness filtering. The anchors are always members."""

    members: np.ndarray
    length: int
    radius: float
    anchor: tuple[int, int]
    distance: float
    norm_distance: float

    @property
    def frequency(self) -> int:
        return int(self.members.shape[0])


def _range_members(series, owner, length, r):
    """Offsets within distance r of the owner, from one full distance row."""
    dist, _, _ = row_profile(series, owner, length)
    return np.flatnonzero(dist < r)


def validate_radius_factor(radius_factor: float):
    """Reject a radius factor D that is not a finite positive number."""
    if not (np.isfinite(radius_factor) and radius_factor > 0.0):
        raise InvalidParametersError(
            f"radius factor must be finite and positive (got {radius_factor})")


def compute_var_length_motif_sets(series: DataSeries, ranking: PairRanking,
                                  radius_factor: float,
                                  min_frequency: int | None = None) -> list[MotifSet]:
    """Expand ranked pairs into disjoint motif sets, best pair first.

    Radius per pair is ``radius_factor * pair distance``. Candidate members
    are admitted in ascending offset order, skipping overlaps with already
    admitted members and any offset consumed by an earlier set (same start
    offset conflicts even across lengths). A pair whose anchor was already
    consumed is skipped outright. ``min_frequency`` is a post-filter on the
    finished sets.
    """
    validate_radius_factor(radius_factor)
    consumed: set[int] = set()
    sets: list[MotifSet] = []
    for pair in ranking:
        if pair.off1 in consumed or pair.off2 in consumed:
            continue
        r = pair.distance * radius_factor
        side1 = _range_members(series, pair.off1, pair.length, r)
        side2 = _range_members(series, pair.off2, pair.length, r)
        excl = policy.exclusion_zone(pair.length)
        admitted = [pair.off1, pair.off2]
        for c in sorted(set(map(int, side1)) | set(map(int, side2))):
            if c in (pair.off1, pair.off2) or c in consumed:
                continue
            if any(abs(c - a) < excl for a in admitted):
                continue
            admitted.append(c)
        members = np.array(sorted(admitted), dtype=np.int64)
        sets.append(MotifSet(members, pair.length, float(r),
                             (pair.off1, pair.off2), pair.distance,
                             pair.norm_distance))
        consumed.update(map(int, members))
    if min_frequency is not None:
        sets = [s for s in sets if s.frequency >= min_frequency]
    return sets


def validate_disjoint(sets: list[MotifSet]) -> bool:
    """True when no start offset appears in two sets (any lengths)."""
    seen: set[int] = set()
    for s in sets:
        mem = set(map(int, s.members))
        if seen & mem:
            return False
        seen |= mem
    return True
