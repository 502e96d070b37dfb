"""Series container, O(1) window statistics, sliding dot products, z-distance.

The distance between two windows is computed from their dot product and
per-window mean/std:

    dist = sqrt(2 * L * (1 - (qt - L*mu_a*mu_b) / (L*sigma_a*sigma_b)))

with the radicand clamped at zero against floating-point noise. Window
mean/std come from cumulative plain and squared sums, so any (offset, length)
pair costs O(1).

All offsets are 0-based. A window of length L at offset i covers
``values[i : i + L]`` and exists when ``i + L <= n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft

from . import policy
from .exceptions import (
    EmptySeriesError,
    LengthExceedsSeriesError,
    NonFiniteError,
    OutOfRangeError,
    ZeroVarianceError,
)


@dataclass(frozen=True)
class SubseqStats:
    """Running statistics of one window: sums, mean, std, constancy floor."""

    offset: int
    length: int
    s: float
    ss: float
    mu: float
    sigma: float
    sigma_floor: float

    @property
    def is_constant(self) -> bool:
        return self.sigma < self.sigma_floor


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
        self.sigma_floor = policy.sigma_floor(values)
        for arr in (self.values, self._cum, self._cum2):
            arr.setflags(write=False)
        self._spectra: dict[int, np.ndarray] = {}
        self._moving: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return self.n

    def window(self, i: int, length: int) -> np.ndarray:
        return self.values[i:i + length]

    def window_sums(self, i: int, length: int):
        """Plain and squared sum of the window at offset i."""
        s = self._cum[i + length] - self._cum[i]
        ss = self._cum2[i + length] - self._cum2[i]
        return float(s), float(ss)

    def stats(self, i: int, length: int) -> SubseqStats:
        """O(1) statistics of one window; sigma clamped at 0 if the variance underflows."""
        if i < 0 or i + length > self.n:
            raise OutOfRangeError(f"window ({i}, {length}) outside series of {self.n} points")
        s, ss = self.window_sums(i, length)
        mu = s / length
        var = ss / length - mu * mu
        sigma = float(np.sqrt(var)) if var > 0.0 else 0.0
        return SubseqStats(i, length, s, ss, mu, sigma, self.sigma_floor)

    def moving_stats(self, length: int):
        """Mean and std of every window of the given length (two read-only
        arrays of n-L+1, cached per length)."""
        if length > self.n:
            raise LengthExceedsSeriesError(f"window length {length} > series length {self.n}")
        cached = self._moving.get(length)
        if cached is None:
            s = self._cum[length:] - self._cum[:-length]
            ss = self._cum2[length:] - self._cum2[:-length]
            mu = s / length
            var = ss / length - mu * mu
            np.maximum(var, 0.0, out=var)
            sd = np.sqrt(var)
            mu.setflags(write=False)
            sd.setflags(write=False)
            cached = self._moving[length] = (mu, sd)
        return cached

    def spectrum(self, size: int) -> np.ndarray:
        """``rfft(values, size)``, read-only and cached per FFT size."""
        spec = self._spectra.get(size)
        if spec is None:
            spec = _fft.rfft(self.values, size)
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
    size = _fft.next_fast_len(n + length - 1, real=True)
    spec = series.spectrum(size) * _fft.rfft(q[::-1], size)
    conv = _fft.irfft(spec, size)
    return conv[length - 1:n]


def advance_dot_products(qt: np.ndarray, series: DataSeries, i: int, length: int) -> np.ndarray:
    """Shift a dot-product vector from query offset i-1 to query offset i in O(n).

    Entry j reuses the overlapping products:
    ``qt'[j] = qt[j-1] - t[j-1]*t[i-1] + t[j+L-1]*t[i+L-1]``;
    entry 0 is computed directly. ``i == 0`` returns the input unchanged.
    """
    if i == 0:
        return qt
    t = series.values
    n_dp = series.n - length + 1
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
    tie exactly — which the ranking comparisons rely on.
    """
    a, b = (i, j) if i <= j else (j, i)
    sa = series.stats(a, length)
    sb = series.stats(b, length)
    if sa.is_constant or sb.is_constant:
        return float(np.inf)
    qt = float(np.dot(series.window(a, length), series.window(b, length)))
    return znorm_distance(qt, sa, sb)


def znorm_distance(qt: float, a: SubseqStats, b: SubseqStats) -> float:
    """Z-normalized Euclidean distance of two equal-length windows from their dot product."""
    if a.length != b.length:
        raise ValueError("windows must have equal length")
    if a.is_constant or b.is_constant:
        raise ZeroVarianceError(
            f"constant window at offset {a.offset if a.is_constant else b.offset}")
    length = a.length
    radicand = 2.0 * length * (1.0 - (qt - length * a.mu * b.mu) / (length * a.sigma * b.sigma))
    return float(np.sqrt(radicand)) if radicand > 0.0 else 0.0
