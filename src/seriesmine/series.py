"""Series container, O(1) window statistics, sliding dot products, z-distance.

The distance between two windows is computed from their dot product and
per-window mean/std:

    dist = sqrt(2 * L * (1 - (qt - L*mu_a*mu_b) / (L*sigma_a*sigma_b)))

with the radicand clamped at zero against floating-point noise. Window
mean/std come from cumulative plain and squared sums, so any (offset, length)
pair costs O(1). A window whose values are all equal gets std exactly 0,
read from a prefix count of value changes: the cumulative-sum variance of a
flat stretch is cancellation noise that can sit above the constancy floor.
Sliding dot products use numpy's real FFT at 5-smooth sizes (2^a 3^b 5^c).

All offsets are 0-based. A window of length L at offset i covers
``values[i : i + L]`` and exists when ``i + L <= n``.
"""

from __future__ import annotations

import functools

import numpy as np

from . import policy
from .exceptions import (
    EmptySeriesError,
    LengthExceedsSeriesError,
    NonFiniteError,
    OutOfRangeError,
)


class DataSeries:
    """Immutable real-valued series with cumulative sums for O(1) window stats.

    Build one with :func:`ingest`. The value array and both prefix arrays are
    locked read-only. Two caches fill lazily: the series spectrum per FFT
    size and the moving stats per window length. A cache entry is a pure
    function of the values, is computed in full before it is stored, and is
    locked read-only, so a fill is idempotent and a DataSeries stays safe to
    share across threads.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("series must be one-dimensional")
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

    def _window_stats(self, offsets: np.ndarray, length: int):
        """Mean and std of the windows of one length at the given offsets.

        A flat window gets std exactly 0, and a variance that round-off
        drives below 0 is clamped there.
        """
        end = offsets + length
        mu = (self._cum[end] - self._cum[offsets]) / length
        var = (self._cum2[end] - self._cum2[offsets]) / length - mu * mu
        np.maximum(var, 0.0, out=var)
        sd = np.sqrt(var)
        sd[self._changes[end - 1] == self._changes[offsets]] = 0.0
        return mu, sd

    def moving_stats(self, length: int):
        """Mean and std of every window of the given length (two read-only
        arrays of n-L+1, cached per length)."""
        if length > self.n:
            raise LengthExceedsSeriesError(f"window length {length} > series length {self.n}")
        cached = self._moving.get(length)
        if cached is None:
            mu, sd = self._window_stats(np.arange(self.n - length + 1), length)
            mu.setflags(write=False)
            sd.setflags(write=False)
            cached = self._moving[length] = (mu, sd)
        return cached

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
    EmptySeriesError
        For a zero-length input.
    NonFiniteError
        If any value is NaN or infinite; carries the first offending position.
    """
    values = np.asarray(raw, dtype=np.float64)
    if values.ndim != 1:
        values = values.reshape(-1)
    if values.size == 0:
        raise EmptySeriesError("series holds no points")
    finite = np.isfinite(values)
    if not finite.all():
        raise NonFiniteError(int(np.flatnonzero(~finite)[0]))
    return DataSeries(values)


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
    spec = series.spectrum(size) * np.fft.rfft(q[::-1], size)
    conv = np.fft.irfft(spec, size)
    return conv[length - 1:n]


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
                         out: np.ndarray | None = None) -> np.ndarray:
    """Shift a dot-product vector from query offset i-1 to query offset i in O(n).

    Entry j reuses the overlapping products:
    ``qt'[j] = qt[j-1] - t[j-1]*t[i-1] + t[j+L-1]*t[i+L-1]``;
    entry 0 is computed directly. The result goes to ``out`` when given (it
    may be ``qt`` itself), else to a new array. ``i == 0`` returns the input
    unchanged.
    """
    if i == 0:
        return qt
    t = series.values
    n_dp = series.n - length + 1
    if out is None:
        out = np.empty_like(qt)
    out[1:] = (qt[:n_dp - 1]
               - t[:n_dp - 1] * t[i - 1]
               + t[length:length + n_dp - 1] * t[i + length - 1])
    out[0] = np.dot(t[i:i + length], t[:length])
    return out


def pair_distance(series: DataSeries, i: int, j: int, length: int) -> float:
    """Distance of one window pair, bit-identical for (i, j) and (j, i).

    A pure function of the unordered pair: the dot product is taken in
    canonical (min, max) order, so mirrored computations of the same pair
    tie exactly — which the ranking comparisons rely on. The window stats
    are read from the ``moving_stats`` arrays when this length's are cached,
    and otherwise computed for the two offsets alone: both hold the same
    bits, and a one-off pair does not pay (or keep) an O(n) cache fill.
    A pair with a constant window is +inf apart.
    """
    a, b = (i, j) if i <= j else (j, i)
    if a < 0 or b + length > series.n:
        raise OutOfRangeError(
            f"window pair ({i}, {j}) of length {length} outside series of {series.n} points")
    cached = series._moving.get(length)
    if cached is None:
        mu, sd = series._window_stats(np.array([a, b]), length)
        ia, ib = 0, 1
    else:
        mu, sd = cached
        ia, ib = a, b
    mu_a, sd_a, mu_b, sd_b = float(mu[ia]), float(sd[ia]), float(mu[ib]), float(sd[ib])
    if sd_a < series.sigma_floor or sd_b < series.sigma_floor:
        return float(np.inf)
    qt = float(np.dot(series.window(a, length), series.window(b, length)))
    return _znorm(qt, length, mu_a, sd_a, mu_b, sd_b)


def _znorm(qt: float, length: int, mu_a: float, sigma_a: float,
           mu_b: float, sigma_b: float) -> float:
    radicand = 2.0 * length * (1.0 - (qt - length * mu_a * mu_b) / (length * sigma_a * sigma_b))
    return float(np.sqrt(radicand)) if radicand > 0.0 else 0.0
