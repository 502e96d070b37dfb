"""Series container, O(1) window statistics, sliding dot products, z-distance.

The distance between two windows is computed from their dot product and
per-window mean/std:

    dist = sqrt(2 * L * (1 - (qt - L*mu_a*mu_b) / (L*sigma_a*sigma_b)))

with the radicand clamped at zero against floating-point noise. Window
mean/std come from cumulative plain and squared sums, so any (offset, length)
pair costs O(1). A window whose values are all equal gets std exactly 0,
read from a prefix count of value changes: the cumulative-sum variance of a
flat stretch is cancellation noise that can sit above the constancy floor.
Sliding dot products use numpy's real FFT at 5-smooth sizes (2^a 3^b 5^c),
one 2-D transform for a batch of queries that share a size.

All offsets are 0-based. A window of length L at offset i covers
``values[i : i + L]`` and exists when ``i + L <= n``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import policy
from .exceptions import (
    EmptySeriesError,
    InvalidParametersError,
    LengthExceedsSeriesError,
    NonFiniteError,
    OutOfRangeError,
)


class DataSeries:
    """Immutable real-valued series with cumulative sums for O(1) window stats.

    Build one with :func:`ingest`. The values (a copy of the input) and both
    prefix arrays are locked read-only. Two caches fill lazily: the series
    spectrum per FFT size and the moving stats per window length. A cache
    entry is a pure function of the values, is computed in full before it
    is stored, and is locked read-only, so a fill is idempotent and a
    DataSeries stays safe to share across threads.
    """

    def __init__(self, values: np.ndarray):
        values = np.array(values, dtype=np.float64)
        if values.ndim != 1:
            raise InvalidParametersError(f"series must be one-dimensional (shape {values.shape})")
        if values.size == 0:
            raise EmptySeriesError("series holds no points")
        finite = np.isfinite(values)
        if not finite.all():
            raise NonFiniteError(int(np.flatnonzero(~finite)[0]))
        self.values = values
        self.n = int(values.shape[0])
        self._cum = np.concatenate(([0.0], np.cumsum(values)))
        self._cum2 = np.concatenate(([0.0], np.cumsum(values * values)))
        # _changes[j]: how many of values[1..j] differ from their predecessor,
        # so window (i, L) is flat exactly when _changes[i+L-1] == _changes[i]
        self._changes = np.concatenate(([0], np.cumsum(np.diff(values) != 0)))
        self.sigma_floor = policy.sigma_floor(values)
        for arr in (self.values, self._cum, self._cum2, self._changes):
            arr.setflags(write=False)
        self._spectra: dict[int, np.ndarray] = {}
        self._moving: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return self.n

    def window(self, i: int, length: int) -> np.ndarray:
        return self.values[i:i + length]

    def moving_stats(self, length: int):
        """Mean and std of every window of the given length (two read-only
        arrays of n-L+1), cached per length."""
        cached = self._moving.get(length)
        if cached is None:
            cached = self._moving[length] = self._window_stats(length)
        return cached

    def _window_stats(self, length: int):
        """:meth:`moving_stats` without the cache, for a one-off pair.

        A flat window gets std exactly 0, and a variance that round-off
        drives below 0 is clamped there.
        """
        if length > self.n:
            raise LengthExceedsSeriesError(f"window length {length} > series length {self.n}")
        n_dp = self.n - length + 1
        mu = (self._cum[length:] - self._cum[:n_dp]) / length
        var = (self._cum2[length:] - self._cum2[:n_dp]) / length - mu * mu
        np.maximum(var, 0.0, out=var)
        sd = np.sqrt(var)
        sd[self._changes[length - 1:] == self._changes[:n_dp]] = 0.0
        mu.setflags(write=False)
        sd.setflags(write=False)
        return mu, sd

    def spectrum(self, size: int) -> np.ndarray:
        """``rfft(values, size)``, read-only and cached per FFT size."""
        spec = self._spectra.get(size)
        if spec is None:
            spec = np.fft.rfft(self.values, size)
            spec.setflags(write=False)
            self._spectra[size] = spec
        return spec


def ingest(raw) -> DataSeries:
    """Validate and wrap a raw value sequence.

    Raises
    ------
    InvalidParametersError
        For an input that is not one-dimensional (a scalar, a matrix, a column).
    EmptySeriesError
        For a zero-length input.
    NonFiniteError
        If any value is NaN or infinite; carries the first offending position.
    """
    return DataSeries(raw)


def sliding_dot_product(query: np.ndarray, series: DataSeries) -> np.ndarray:
    """Dot product of `query` against every window of equal length in the series.

    Computed in the frequency domain in O(n log n) against the series'
    cached spectrum; output j is ``dot(query, values[j : j + len(query)])``
    for j in [0, n - L].
    """
    q = np.asarray(query, dtype=np.float64)
    n, length = series.n, q.shape[0]
    if length > n:
        raise LengthExceedsSeriesError(f"query length {length} > series length {n}")
    size = _fast_len(n + length - 1)
    return _fft_convolve(series, q[::-1], size)[length - 1:n]


def sliding_dot_products(series: DataSeries, queries, max_rows: int):
    """Yield (k, ``sliding_dot_product(queries[k], series)``), bit for bit, for
    every query: one 2-D rfft/irfft per FFT size and block of ``max_rows``
    queries, sizes ascending, each size's queries in their given order."""
    by_size: dict[int, list[int]] = {}
    for k, q in enumerate(queries):
        by_size.setdefault(_fast_len(series.n + q.shape[0] - 1), []).append(k)
    for size, ks in sorted(by_size.items()):
        for block in (ks[b:b + max_rows] for b in range(0, len(ks), max_rows)):
            buf = np.zeros((len(block), size))
            for r, k in enumerate(block):
                buf[r, :queries[k].shape[0]] = queries[k][::-1]
            conv = _fft_convolve(series, buf, size)
            yield from ((k, conv[r, queries[k].shape[0] - 1:series.n]) for r, k in enumerate(block))


def _fft_convolve(series: DataSeries, rev: np.ndarray, size: int) -> np.ndarray:
    """``irfft(spectrum * rfft(rev, size), size)`` along the last axis of
    ``rev``: one reversed query, or a batch of zero-padded rows."""
    spec = np.fft.rfft(rev, size)
    return np.fft.irfft(np.multiply(series.spectrum(size), spec, out=spec), size)


@functools.lru_cache(maxsize=None)
def _fast_len(t: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= t, the size ``scipy.fft.next_fast_len(t, real=True)`` picks."""
    best = 1 << (t - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that brings it to t or more
            best = min(best, p35 << (-(-t // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def advance_dot_products(qt: np.ndarray, series: DataSeries, i: int, length: int,
                         out: np.ndarray) -> np.ndarray:
    """Shift a dot-product vector from query offset i-1 to i (>= 1) in O(n).

    Entry j reuses the overlapping products:
    ``qt'[j] = qt[j-1] - t[j-1]*t[i-1] + t[j+L-1]*t[i+L-1]``;
    entry 0 is computed directly. ``out`` receives the result and may be ``qt``.
    """
    t = series.values
    n_dp = series.n - length + 1
    out[1:] = (qt[:n_dp - 1]
               - t[:n_dp - 1] * t[i - 1]
               + t[length:length + n_dp - 1] * t[i + length - 1])
    out[0] = np.dot(t[i:i + length], t[:length])
    return out


def pair_distance(series: DataSeries, i: int, j: int, length: int) -> float:
    """Distance of one window pair, bit-identical for (i, j) and (j, i).

    A pure function of the unordered pair: the dot product is taken in
    canonical (min, max) order, so mirrored computations of the same pair
    tie exactly — which the ranking comparisons rely on. The window stats are
    this length's cached ``moving_stats``, else computed and not kept: a
    one-off pair keeps no O(n) cache fill. A constant window is +inf away.
    """
    a, b = (i, j) if i <= j else (j, i)
    if a < 0 or b + length > series.n:
        raise OutOfRangeError(
            f"window pair ({i}, {j}) of length {length} outside series of {series.n} points")
    mu, sd = series._moving.get(length) or series._window_stats(length)
    sd_a, sd_b = sd.item(a), sd.item(b)
    if sd_a < series.sigma_floor or sd_b < series.sigma_floor:
        return math.inf
    t = series.values
    qt = np.dot(t[a:a + length], t[b:b + length]).item()
    return _znorm(qt, length, mu.item(a), sd_a, mu.item(b), sd_b)


def _znorm(qt: float, length: int, mu_a: float, sigma_a: float,
           mu_b: float, sigma_b: float) -> float:
    """The distance on Python floats; ``math.sqrt`` rounds as ``np.sqrt`` does."""
    radicand = 2.0 * length * (1.0 - (qt - length * mu_a * mu_b) / (length * sigma_a * sigma_b))
    return math.sqrt(radicand) if radicand > 0.0 else 0.0
