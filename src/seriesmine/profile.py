"""Full matrix profile for one length, harvesting reusable neighbor entries.

The scan follows the classic O(n^2) dot-product recursion: one FFT-seeded
dot-product vector per chunk of ``CHUNK_ROWS`` rows, each subsequent row
derived from the previous in O(n) by ``series.advance_dot_products``. The
scan is single-threaded. The fixed chunk grid and its per-chunk FFT re-seed
stay, because they define the output bits.

Rows are settled a block at a time in correlation space: one 2-D pass
gives a block's correlations ``q_raw``, and only each row's p+1 highest
become distances and bound factors (``_settle_block``). A row whose ties
reach past them falls back to its full rows (``_row_arrays``) on the dot
products in hand. The block size changes no output bit. ``row_profile``
rebuilds one row from scratch: its full form returns the distance row, and
its harvesting form takes the same test (``_settles``) as a block.

While each row is in hand, the scan keeps, per row, the ``p`` entries with
the smallest extension lower bound. Those partial profiles are what the
variable-length drivers reuse at longer window lengths instead of
recomputing full rows.

A row's stored bounds all share the row's anchor std, so the bound of every
*non-stored* pair at any longer target length stays above the scaled harvest
maximum ``m_f * sigma_base / sigma_target``. Each row keeps the product
``m_sigma = m_f * sigma_base``, and ``m_sigma / sigma_target`` is the
certification threshold the drivers compare true distances against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import policy
from .exceptions import InvalidParametersError
from .series import DataSeries, advance_dot_products, sliding_dot_product

CHUNK_ROWS = 2048
_BLOCK_CELLS = 1 << 15   # dot products per block of scan rows


@dataclass
class MatrixProfile:
    """Nearest-neighbor distance (mp) and neighbor offset (ip) per window."""

    mp: np.ndarray
    ip: np.ndarray
    length: int


class PartialProfiles:
    """All rows' stored neighbor entries, advanced in lockstep across lengths.

    Column-oriented: entry arrays have shape (rows, p), p capped at the row
    count; ``sd`` holds the window std at the current length, and ``m_sigma``
    each row's scaled harvest maximum. Liveness is carried by +inf: an entry
    is live exactly when its ``dist`` is finite, and a row exactly when its
    ``m_sigma`` is. A row dies when its owner window leaves the series or
    turns constant; an entry dies when its neighbor window does, or when the
    growing exclusion zone swallows it. A row's live entries hold ascending
    neighbors. Capacity is never refilled outside an explicit row refresh.
    """

    def __init__(self, series: DataSeries, p: int, length: int):
        self.series = series
        self.n_rows = n_rows = series.n - length + 1
        self.p = min(p, n_rows)    # no row has more neighbors than there are rows
        self.length = length
        self.sd = series.moving_stats(length)[1]
        self.nbr = np.full((n_rows, self.p), -1, dtype=np.int64)
        self.qt = np.zeros((n_rows, self.p))
        self.dist = np.full((n_rows, self.p), np.inf)
        self.m_sigma = np.full(n_rows, np.inf)
        self._owners = np.arange(n_rows, dtype=np.int64)[:, None]

    def _store(self, rows, nbr, qt, dist, m_f):
        """Make ``rows`` (an index or an index array) hold the given entries,
        neighbours ascending, and harvest maximum ``m_f``."""
        k = nbr.shape[-1]
        self.nbr[rows, :k] = nbr
        self.nbr[rows, k:] = -1
        self.qt[rows, :k] = qt
        self.dist[rows, :k] = dist
        self.dist[rows, k:] = np.inf
        self.m_sigma[rows] = m_f * self.sd[rows]

    def advance(self, length: int):
        """Grow every live entry by one length step in O(1) each; a no-op at
        the current length.

        Extends dot products, refreshes true distances at ``length``, and
        drops entries/rows that stop existing, turn constant, or become
        trivial matches under the wider exclusion zone.
        """
        if length == self.length:
            return
        if length != self.length + 1:
            raise InvalidParametersError("profiles advance one length step at a time")
        t = self.series.values
        n = self.series.n
        mu, sd = self.series.moving_stats(length)
        n_dp = n - length + 1

        self.m_sigma[n_dp:] = np.inf
        self.m_sigma[:n_dp][sd < self.series.sigma_floor] = np.inf
        excl = policy.exclusion_zone(length)
        valid = (np.isfinite(self.dist)
                 & np.isfinite(self.m_sigma)[:, None]
                 & (self.nbr <= n - length)
                 & (np.abs(self.nbr - self._owners) >= excl))
        safe_nbr = np.where(valid, self.nbr, 0)
        own_end = np.minimum(self._owners + length - 1, n - 1)
        np.add(self.qt, t[own_end] * t[safe_nbr + length - 1],
               out=self.qt, where=valid)
        nbr_sd = sd[safe_nbr]
        valid &= nbr_sd >= self.series.sigma_floor
        own = np.clip(self._owners, 0, n_dp - 1)
        q_raw = _correlation(self.qt, length, mu[own], sd[own],
                             mu[safe_nbr], np.where(valid, nbr_sd, 1.0))
        self.dist = np.where(valid, _q_dist(q_raw, length), np.inf)
        self.length = length
        self.sd = sd

    def thresholds(self) -> np.ndarray:
        """Certification threshold per row at the current length.

        Scaled harvest maximum ``m_sigma / sd``: below it, no pair outside
        the stored entries can land. 0 for a non-constant row with no stored
        data (it certifies nothing); +inf for dead rows (callers skip them).
        Only live rows divide, and their std is at or above the floor.
        """
        n_dp = self.sd.shape[0]
        out = np.full(self.n_rows, np.inf)
        out[:n_dp][self.sd >= self.series.sigma_floor] = 0.0
        live = np.isfinite(self.m_sigma[:n_dp])
        out[:n_dp][live] = self.m_sigma[:n_dp][live] / self.sd[live]
        return out

    def sorted_row_matches(self, m: int):
        """The m best stored matches of each row that exists at the current
        length. Returns (distances, neighbor offsets), both (rows, m): distances
        ascending per row, the smaller neighbor first on ties, padded with
        +inf and -1 where a row holds fewer than m live entries. Live columns
        hold ascending neighbors and dead ones +inf, so a stable sort of the
        distances is that order.
        """
        n_rows = self.sd.shape[0]
        dists = np.full((n_rows, m), np.inf)
        nbrs = np.full((n_rows, m), -1, dtype=np.int64)
        order = np.argsort(self.dist[:n_rows], axis=1, kind="stable")[:, :m]
        k = order.shape[1]
        dists[:, :k] = np.take_along_axis(self.dist[:n_rows], order, axis=1)
        np.copyto(nbrs[:, :k], np.take_along_axis(self.nbr[:n_rows], order, axis=1),
                  where=np.isfinite(dists[:, :k]))
        return dists, nbrs

    def step(self, length: int, m: int):
        """One length step's shared half: advance to ``length``, then read
        what the stored entries certify over the rows that exist there.

        Returns (distances, neighbors, thresholds): each row's m best stored
        matches as :meth:`sorted_row_matches` gives them, and the row's
        certification threshold, +inf for a dead (constant) row.
        """
        self.advance(length)
        dists, nbrs = self.sorted_row_matches(m)
        return dists, nbrs, self.thresholds()[:dists.shape[0]]


@dataclass
class ProfileResult:
    profile: MatrixProfile
    partials: PartialProfiles


def _harvest_select(f_row: np.ndarray, p: int):
    """Ascending indices of the p smallest finite values (bound factors or
    distances); boundary ties go to smaller offsets, by a stable sort."""
    if p < f_row.shape[0]:
        idx = np.argpartition(f_row, (p - 1, p))
        if f_row[idx[p - 1]] < f_row[idx[p]]:    # no tie at the boundary
            return np.sort(idx[:p])
    sel = np.argsort(f_row, kind="stable")[:p]
    return np.sort(sel[np.isfinite(f_row[sel])])


def _correlation(qt, length: int, mu_a, sd_a, mu_b, sd_b, out=None):
    """``q_raw = (qt - L*mu_a*mu_b) / (L*sd_a*sd_b)``, the stats broadcast
    against ``qt``; written to ``out`` when given. Cells with a zero std
    come out meaningless, and callers mask them."""
    with np.errstate(invalid="ignore", divide="ignore"):
        num = np.subtract(qt, length * mu_a * mu_b, out=out)
        return np.divide(num, length * sd_a * sd_b, out=num)


def _q_dist(q_raw, length: int):
    """Distance from correlation, radicand clamped at zero; non-increasing in
    ``q_raw``, also after rounding."""
    rad = 2.0 * length * (1.0 - q_raw)
    np.maximum(rad, 0.0, out=rad)
    return np.sqrt(rad)


def _q_bound(q_raw, length: int):
    """Extension bound factor from correlation; non-increasing in ``q_raw``,
    also after rounding, and ``sqrt(length)`` wherever ``q_raw <= 0``."""
    qc = np.maximum(q_raw, 0.0)
    np.minimum(qc, 1.0, out=qc)
    return np.sqrt(length * (1.0 - qc * qc))


def _mask_row(row: np.ndarray, i: int, length: int, valid_nbr: np.ndarray, fill=np.inf):
    """Set owner i's invalid cells (trivial matches, constant windows) of
    ``row`` to ``fill``, in place; returns ``row``."""
    excl = policy.exclusion_zone(length)
    row[~valid_nbr] = fill
    row[max(0, i - excl + 1):i + excl] = fill
    return row


def _row_arrays(qt_row: np.ndarray, i: int, length: int, mu: np.ndarray, sd: np.ndarray,
                valid_nbr: np.ndarray):
    """Distance row and bound-factor row for owner i from its dot products,
    +inf at invalid cells."""
    q_raw = _correlation(qt_row, length, mu[i], sd[i], mu, sd)
    return (_mask_row(_q_dist(q_raw, length), i, length, valid_nbr),
            _mask_row(_q_bound(q_raw, length), i, length, valid_nbr))


def row_profile(series: DataSeries, i: int, length: int, qt_row: np.ndarray | None = None,
                harvest: PartialProfiles | None = None, m: int = 1):
    """Row i at ``length`` from scratch (FFT dot products + window stats); a
    caller that batched the FFTs passes the dot products as ``qt_row``. Full
    form: the distance row, +inf at trivial matches and constant windows.
    Harvesting form, given ``harvest`` (the partial profiles at ``length``):
    refresh row i's stored entries and return its m nearest neighbours and
    their distances, as ``_harvest_select(dist, m)`` picks them, from p+1
    cells where :func:`_settle_row` settles the row."""
    if qt_row is None:
        qt_row = sliding_dot_product(series.window(i, length), series)
    mu, sd = series.moving_stats(length)
    valid = sd >= series.sigma_floor
    if harvest is not None:
        return (_settle_row(harvest, i, qt_row, length, mu, sd, valid, m)
                or _harvest_full(harvest, i, qt_row, length, mu, sd, valid, m))
    q_raw = _correlation(qt_row, length, mu[i], sd[i], mu, sd)
    return _mask_row(_q_dist(q_raw, length), i, length, valid)


def _harvest_full(partials, i, qt_row, length, mu, sd, valid, m):
    """:func:`_settle_row` from the full rows, for any row. The row stores
    its ``p`` smallest bound factors, or keeps its entries when none is finite."""
    dist, f_row = _row_arrays(qt_row, i, length, mu, sd, valid)
    sel = _harvest_select(f_row, partials.p)
    if sel.shape[0]:
        partials._store(i, sel, qt_row[sel], dist[sel], f_row[sel].max())
    nbrs = _harvest_select(dist, m)
    return nbrs, dist[nbrs]


def _settle_row(partials, i, qt_row, length, mu, sd, valid, m):
    """Row i's m nearest neighbours and their distances, its stored entries
    refreshed, when its p+1 highest correlations settle it; else None."""
    n_dp, p = mu.shape[0], partials.p
    if not m <= p < n_dp - 1:
        return None
    q = _mask_row(_correlation(qt_row, length, mu[i], sd[i], mu, sd), i, length, valid, -np.inf)
    top = np.argpartition(q, n_dp - p - 1)[n_dp - p - 1:]
    top = top[np.argsort(q[top])]
    settled, d, f = _settles(q[top], valid[i], p, m, length)
    if not settled:
        return None
    by_offset = np.argsort(top[1:]) + 1
    nbr, dist = top[by_offset], d[by_offset]
    partials._store(i, nbr, qt_row[nbr], dist, f[1])
    near = _harvest_select(dist, m)
    return nbr[near], dist[near]


def _settles(q_top, owner_ok, p: int, m: int, length: int):
    """Whether a live row's p+1 highest correlations c_{p+1} <= ... <= c_1
    (ascending on the last axis) settle it; returns (settled, distances,
    bound factors) of the cells. Both are non-increasing in the correlation,
    so when c_{p+1}'s distance exceeds c_m's and its bound factor c_p's,
    every cell up to the m-th distance and exactly the p smallest bounds lie
    among c_1..c_p, and the row's bits are its full rows'. A c_{p+1} at -inf
    has the largest bound factor, so it passes only when the row has exactly
    p candidates, all of which its full rows store. Ties need no order."""
    d, f = _q_dist(q_top, length), _q_bound(q_top, length)
    return owner_ok & (d[..., 0] > d[..., p + 1 - m]) & (f[..., 0] > f[..., 1]), d, f


def _scan_chunk(series, length, start, stop, mu, sd, valid_nbr, mp, ip, partials):
    """STOMP recursion over rows [start, stop), seeded by one FFT pass, in
    blocks of about ``_BLOCK_CELLS`` dot products. A live row its block does
    not settle falls back to ``_harvest_full``. ``mp`` and ``ip`` arrive at
    +inf and -1."""
    n_dp = mu.shape[0]
    block = min(max(1, _BLOCK_CELLS // n_dp), stop - start)
    qt_buf, q_buf = np.empty((block, n_dp)), np.empty((block, n_dp))
    prev = sliding_dot_product(series.window(start, length), series)
    for b0 in range(start, stop, block):
        rows = np.arange(b0, min(b0 + block, stop))
        qt = qt_buf[:rows.shape[0]]
        for r, i in enumerate(rows):
            if i == start:
                qt[r] = prev
            else:
                advance_dot_products(prev, series, i, length, out=qt[r])
            prev = qt[r]
        settled = _settle_block(rows, qt, q_buf[:rows.shape[0]], length, mu, sd,
                                valid_nbr, mp, ip, partials)
        for r in np.flatnonzero(valid_nbr[rows] & ~settled):
            nbrs, dists = _harvest_full(partials, rows[r], qt[r], length, mu, sd, valid_nbr, 1)
            if nbrs.shape[0]:
                mp[rows[r]], ip[rows[r]] = dists[0], nbrs[0]


def _settle_block(rows, qt, q, length, mu, sd, valid_nbr, mp, ip, partials):
    """Settle the block's rows from their p+1 highest correlations
    (:func:`_settles`); returns the mask of settled rows. ``q`` is scratch of
    ``qt``'s shape for the correlations, with invalid columns and each row's
    exclusion zone at -inf."""
    n_dp, p = mu.shape[0], partials.p
    if p + 1 >= n_dp:
        return np.zeros(rows.shape[0], dtype=bool)
    excl = policy.exclusion_zone(length)
    rix = np.arange(rows.shape[0])[:, None]
    _correlation(qt, length, mu[rows, None], sd[rows, None], mu, sd, out=q)
    q[:, ~valid_nbr] = -np.inf
    q[rix, np.clip(rows[:, None] + np.arange(1 - excl, excl), 0, n_dp - 1)] = -np.inf
    top = np.argpartition(q, n_dp - p - 1, axis=1)[:, n_dp - p - 1:]
    top = top[rix, np.argsort(q[rix, top], axis=1)]
    settled, d, f = _settles(q[rix, top], valid_nbr[rows], p, 1, length)
    s = np.flatnonzero(settled)
    mp[rows[s]] = d[s, p]
    ip[rows[s]] = np.where(d[s] == d[s, p:], top[s], n_dp).min(axis=1)
    nbr = np.sort(top[s, 1:], axis=1)
    cells = (s[:, None], nbr)
    partials._store(rows[s], nbr, qt[cells], _q_dist(q[cells], length), f[s, 1])
    return settled


def compute_matrix_profile(series: DataSeries, length: int, p: int) -> ProfileResult:
    """Exact matrix profile at one length plus per-row partial profiles.

    The drivers run it at the shortest length and at every re-seed; its
    partial profiles certify rows at this length as at the longer ones.

    Parameters
    ----------
    series : DataSeries
    length : int
        Window length; ``policy.validate_range`` must accept it as the
        one-length range ``[length, length]``, so a length whose every
        window is constant raises ``AllConstantError``.
    p : int
        Stored neighbors per row (>= 1; the reuse budget for longer lengths).
    """
    policy.validate_range(series, length, length)
    if p < 1:
        raise InvalidParametersError("p must be at least 1")
    n_dp = series.n - length + 1
    mu, sd = series.moving_stats(length)
    valid_nbr = sd >= series.sigma_floor

    mp = np.full(n_dp, np.inf)
    ip = np.full(n_dp, -1, dtype=np.int64)
    partials = PartialProfiles(series, p, length)
    for s in range(0, n_dp, CHUNK_ROWS):
        _scan_chunk(series, length, s, min(s + CHUNK_ROWS, n_dp),
                    mu, sd, valid_nbr, mp, ip, partials)
    return ProfileResult(MatrixProfile(mp, ip, length), partials)
