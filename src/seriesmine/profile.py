"""Full matrix profile for one length, harvesting reusable neighbor entries.

The scan follows the classic O(n^2) dot-product recursion: one FFT-seeded
dot-product vector per chunk of ``CHUNK_ROWS`` rows, each subsequent row
derived from the previous in O(n) by ``series.advance_dot_products``. The
scan is single-threaded. The fixed chunk grid and its per-chunk FFT re-seed
stay, because they define the output bits.

While each distance row is in hand, the scan keeps, per row, the ``p``
entries with the smallest extension lower bound. Those partial profiles are
what the variable-length drivers reuse at longer window lengths instead of
recomputing full rows.

A row's stored bounds all share the row's anchor std, so the bound of every
*non-stored* pair at any longer target length stays above the scaled harvest
maximum ``m_f * sigma_base / sigma_target``. That scaled value is the
certification threshold the drivers compare true distances against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import policy
from .exceptions import (
    AllConstantError,
    InvalidParametersError,
    SeriesTooShortError,
)
from .series import DataSeries, advance_dot_products, sliding_dot_product

CHUNK_ROWS = 2048


@dataclass
class MatrixProfile:
    """Nearest-neighbor distance (mp) and neighbor offset (ip) per window."""

    mp: np.ndarray
    ip: np.ndarray
    length: int


@dataclass
class PartialDistanceProfile:
    """Snapshot of one row's stored neighbors at a fixed length.

    ``max_lb`` bounds the true distance (at ``length``) of every pair the
    row does NOT store; entries with ``dists < r`` are therefore the complete
    answer to a range query of radius ``r`` whenever ``max_lb > r``.
    """

    owner: int
    length: int
    neighbors: np.ndarray
    qts: np.ndarray
    dists: np.ndarray
    max_lb: float


class PartialProfiles:
    """All rows' stored neighbor entries, advanced in lockstep across lengths.

    Column-oriented: entry arrays have shape (rows, p). A row dies when its
    owner window leaves the series or turns constant; an entry dies when its
    neighbor window does, or when the growing exclusion zone swallows it.
    Capacity is never refilled outside an explicit row refresh.
    """

    def __init__(self, series: DataSeries, n_rows: int, p: int, length: int):
        self.series = series
        self.n_rows = n_rows
        self.p = p
        self.length = length
        self.nbr = np.full((n_rows, p), -1, dtype=np.int64)
        self.qt = np.zeros((n_rows, p))
        self.dist = np.full((n_rows, p), np.inf)
        self.alive = np.zeros((n_rows, p), dtype=bool)
        self.owner_ok = np.zeros(n_rows, dtype=bool)
        self.base = np.full(n_rows, length, dtype=np.int64)
        self.sigma_base = np.zeros(n_rows)
        self.m_f = np.full(n_rows, np.inf)
        self._owners = np.arange(n_rows, dtype=np.int64)[:, None]

    def set_row(self, i: int, neighbors, qts, dists, m_f: float, sigma_base: float):
        """Install a freshly harvested row (at the container's current length)."""
        k = len(neighbors)
        self.nbr[i, :k] = neighbors
        self.nbr[i, k:] = -1
        self.qt[i, :k] = qts
        self.dist[i, :k] = dists
        self.dist[i, k:] = np.inf
        self.alive[i, :k] = True
        self.alive[i, k:] = False
        self.owner_ok[i] = True
        self.base[i] = self.length
        self.sigma_base[i] = sigma_base
        self.m_f[i] = m_f

    def harvest_row(self, i: int, f_row: np.ndarray, qt_row: np.ndarray,
                    dist: np.ndarray, sigma_base: float):
        """Refresh row i from its full bound-factor, dot-product and distance
        rows at the current length: store the ``p`` entries with the smallest
        bound factors. A row with no finite factor keeps its old entries."""
        sel = _harvest_select(f_row, self.p)
        if sel.shape[0]:
            self.set_row(i, sel, qt_row[sel], dist[sel],
                         m_f=float(f_row[sel].max()), sigma_base=float(sigma_base))

    def advance(self, new_length: int):
        """Grow every live entry by one length step in O(1) each.

        Extends dot products, refreshes true distances at ``new_length``, and
        drops entries/rows that stop existing, turn constant, or become
        trivial matches under the wider exclusion zone.
        """
        if new_length != self.length + 1:
            raise InvalidParametersError("profiles advance one length step at a time")
        t = self.series.values
        n = self.series.n
        mu, sd = self.series.moving_stats(new_length)
        n_dp = n - new_length + 1
        length = new_length

        self.owner_ok[n_dp:] = False
        self.owner_ok[:n_dp] &= sd >= self.series.sigma_floor
        excl = policy.exclusion_zone(length)
        valid = (self.alive
                 & self.owner_ok[:, None]
                 & (self.nbr <= n - length)
                 & (np.abs(self.nbr - self._owners) >= excl))
        safe_nbr = np.where(valid, self.nbr, 0)
        own_end = np.minimum(self._owners + length - 1, n - 1)
        np.add(self.qt, t[own_end] * t[safe_nbr + length - 1],
               out=self.qt, where=valid)
        nbr_sd = sd[safe_nbr]
        valid &= nbr_sd >= self.series.sigma_floor
        own = np.clip(self._owners, 0, n_dp - 1)
        _, dist = _z_dist(self.qt, length, mu[own], sd[own],
                          mu[safe_nbr], np.where(valid, nbr_sd, 1.0))
        self.dist = np.where(valid, dist, np.inf)
        self.alive = valid
        self.length = length

    def thresholds(self) -> np.ndarray:
        """Certification threshold per row at the current length.

        Scaled harvest maximum: below it, no pair outside the stored entries
        can land. +inf marks dead rows (callers skip them).
        """
        _, sd = self.series.moving_stats(self.length)
        n_dp = sd.shape[0]
        out = np.full(self.n_rows, np.inf)
        rows = min(self.n_rows, n_dp)
        live = self.owner_ok[:rows]
        with np.errstate(invalid="ignore"):
            out[:rows][live] = (self.m_f[:rows][live] * self.sigma_base[:rows][live]
                                / sd[:rows][live])
        return out

    def row_minima(self):
        """Per-row (min distance, neighbor, live-entry count); smaller neighbor wins ties."""
        dmin = np.min(self.dist, axis=1, initial=np.inf, where=self.alive)
        tied = self.alive & (self.dist == dmin[:, None])
        nbr_min = np.min(np.where(tied, self.nbr, np.iinfo(np.int64).max), axis=1)
        counts = self.alive.sum(axis=1)
        nbr_min = np.where(np.isfinite(dmin), nbr_min, -1)
        return dmin, nbr_min, counts

    def sorted_row_matches(self, i: int, m: int):
        """The row's m best matches: (distances ascending, neighbor offsets)."""
        sel = self.alive[i]
        d = self.dist[i][sel]
        nb = self.nbr[i][sel]
        dists = np.full(m, np.inf)
        nbrs = np.full(m, -1, dtype=np.int64)
        take = min(m, d.shape[0])
        if take:
            order = np.lexsort((nb, d))[:take]
            dists[:take] = d[order]
            nbrs[:take] = nb[order]
        return dists, nbrs

    def snapshot(self, i: int) -> PartialDistanceProfile:
        """Copy one row for later range queries at the current length."""
        sel = self.alive[i]
        _, sd = self.series.moving_stats(self.length)
        if self.owner_ok[i] and i < sd.shape[0] and sd[i] > 0.0:
            max_lb = float(self.m_f[i] * self.sigma_base[i] / sd[i])
        else:
            max_lb = np.inf
        return PartialDistanceProfile(
            owner=i, length=self.length,
            neighbors=self.nbr[i, sel].copy(),
            qts=self.qt[i, sel].copy(),
            dists=self.dist[i, sel].copy(),
            max_lb=max_lb)


@dataclass
class ProfileResult:
    profile: MatrixProfile
    partials: PartialProfiles
    best_m: np.ndarray | None = None       # m smallest true distances per row
    best_m_nbr: np.ndarray | None = None   # the neighbors those distances belong to


def _harvest_select(f_row: np.ndarray, p: int):
    """Indices of the p smallest bound factors; boundary ties go to smaller offsets."""
    n = f_row.shape[0]
    finite = np.isfinite(f_row)
    n_finite = int(finite.sum())
    if n_finite == 0:
        return np.empty(0, dtype=np.int64)
    if n_finite <= p:
        return np.flatnonzero(finite).astype(np.int64)
    idx = np.argpartition(f_row, p - 1)[:p]
    f_max = f_row[idx].max()
    strict = idx[f_row[idx] < f_max]
    need = p - strict.shape[0]
    at_max = np.flatnonzero(f_row == f_max)[:need]
    sel = np.concatenate([strict, at_max])
    sel.sort()
    return sel.astype(np.int64)


def _z_dist(qt, length: int, mu_a, sd_a, mu_b, sd_b):
    """Correlation ``q_raw`` and z-normalized distance from dot products.

    ``qt`` is an array; the stats broadcast against it. The radicand is
    clamped at zero. Cells with a zero std come out meaningless, and callers
    mask them.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        q_raw = (qt - length * mu_a * mu_b) / (length * sd_a * sd_b)
        rad = 2.0 * length * (1.0 - q_raw)
    np.maximum(rad, 0.0, out=rad)
    return q_raw, np.sqrt(rad)


def _row_arrays(series: DataSeries, qt_row: np.ndarray, i: int, length: int,
                mu: np.ndarray, sd: np.ndarray, valid_nbr: np.ndarray,
                want_f: bool = True):
    """Distance row (and bound-factor row) for owner i from its dot products.

    Invalid cells (trivial matches, constant windows) come back +inf.
    """
    n_dp = mu.shape[0]
    excl = policy.exclusion_zone(length)
    lo, hi = max(0, i - excl + 1), min(n_dp, i + excl)
    q_raw, dist = _z_dist(qt_row, length, mu[i], sd[i], mu, sd)
    dist[~valid_nbr] = np.inf
    dist[lo:hi] = np.inf
    if not want_f:
        return dist, None
    qc = np.clip(q_raw, -1.0, 1.0)
    np.maximum(qc, 0.0, out=qc)
    f_row = np.sqrt(length * (1.0 - qc * qc))
    f_row[~valid_nbr] = np.inf
    f_row[lo:hi] = np.inf
    return dist, f_row


def row_profile(series: DataSeries, i: int, length: int, want_f: bool = False):
    """One full distance row from scratch (FFT dot products + window stats)."""
    qt_row = sliding_dot_product(series.window(i, length), series)
    mu, sd = series.moving_stats(length)
    valid = sd >= series.sigma_floor
    dist, f_row = _row_arrays(series, qt_row, i, length, mu, sd, valid, want_f=want_f)
    return dist, f_row, qt_row


def row_best_matches(dist: np.ndarray, dists_out: np.ndarray, nbrs_out: np.ndarray):
    """Write the row's m best finite matches into the length-m outputs.

    Distances ascending, smaller offset first on ties; slots beyond the
    row's finite cells keep their previous contents.
    """
    m = dists_out.shape[0]
    finite = np.flatnonzero(np.isfinite(dist))
    take = min(m, finite.shape[0])
    if take:
        cand = finite[np.argpartition(dist[finite], take - 1)[:take]]
        order = cand[np.lexsort((cand, dist[cand]))]
        dists_out[:take] = dist[order]
        nbrs_out[:take] = order


def _scan_chunk(series, length, m_track, start, stop,
                mu, sd, valid_nbr, mp, ip, partials, best_m, best_m_nbr):
    """STOMP recursion over rows [start, stop), seeded by one FFT pass."""
    floor = series.sigma_floor
    qt = sliding_dot_product(series.window(start, length), series)
    for i in range(start, stop):
        if i > start:
            qt = advance_dot_products(qt, series, i, length)
        if sd[i] < floor:
            mp[i] = np.inf
            ip[i] = -1
            continue
        dist, f_row = _row_arrays(series, qt, i, length, mu, sd, valid_nbr)
        j = int(np.argmin(dist))
        if np.isfinite(dist[j]):
            mp[i] = dist[j]
            ip[i] = j
        else:
            mp[i] = np.inf
            ip[i] = -1
        partials.harvest_row(i, f_row, qt, dist, sd[i])
        if m_track:
            row_best_matches(dist, best_m[i], best_m_nbr[i])


def compute_matrix_profile(series: DataSeries, length: int, p: int,
                           m_track: int = 0) -> ProfileResult:
    """Exact matrix profile at one length plus per-row partial profiles.

    Parameters
    ----------
    series : DataSeries
    length : int
        Window length; needs 4 <= length and length + exclusion_zone(length)
        <= n, so that at least one non-trivial pair exists (the condition
        ``valmod.validate_range`` applies to a whole range).
    p : int
        Stored neighbors per row (the reuse budget for longer lengths).
    m_track : int
        When positive, additionally record each row's m smallest true
        distances (ascending) — the raw material for anomaly ranking.
    """
    n = series.n
    if length < 4 or length + policy.exclusion_zone(length) > n:
        raise SeriesTooShortError(
            f"need 4 <= length and length + ceil(length/2) <= n (length={length}, n={n})")
    if p < 1:
        raise InvalidParametersError("p must be at least 1")
    n_dp = n - length + 1
    mu, sd = series.moving_stats(length)
    valid_nbr = sd >= series.sigma_floor
    if not valid_nbr.any():
        raise AllConstantError(f"every window of length {length} is constant")

    mp = np.full(n_dp, np.inf)
    ip = np.full(n_dp, -1, dtype=np.int64)
    partials = PartialProfiles(series, n_dp, p, length)
    best_m = np.full((n_dp, m_track), np.inf) if m_track else None
    best_m_nbr = np.full((n_dp, m_track), -1, dtype=np.int64) if m_track else None
    for s in range(0, n_dp, CHUNK_ROWS):
        _scan_chunk(series, length, m_track, s, min(s + CHUNK_ROWS, n_dp),
                    mu, sd, valid_nbr, mp, ip, partials, best_m, best_m_nbr)
    return ProfileResult(MatrixProfile(mp, ip, length), partials, best_m, best_m_nbr)
