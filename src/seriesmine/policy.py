"""Shared matching policy: hostable lengths, overlap exclusion, constant windows, tie-breaks.

Both the engine and the brute-force reference implementations import these
definitions, so equality checks between the two compare like with like.
Distance kernels are deliberately NOT shared (see ``oracle``).

Tie-break rule used everywhere (profile minima, harvest eviction, rankings):
the smaller offset wins; for ranked pairs, (norm distance, length, offsets)
lexicographic.
"""

import numpy as np

from .exceptions import AllConstantError, InvalidParametersError, SeriesTooShortError

SIGMA_FLOOR_SCALE = 1e-7


def exclusion_zone(length: int) -> int:
    """Half-width of the trivial-match zone: ceil(length / 2)."""
    return -(-length // 2)


def validate_range(series, lmin: int, lmax: int):
    """Reject a length range the series cannot host: lengths start at 4, the
    longest needs a non-trivial pair, length + exclusion_zone(length) <= n,
    and ``AllConstantError`` when every window at ``lmin`` is constant."""
    if lmin > lmax:
        raise InvalidParametersError(f"lmin {lmin} > lmax {lmax}")
    if lmin < 4:
        raise InvalidParametersError("minimum window length is 4")
    need = lmax + exclusion_zone(lmax)
    if series.n < need:
        raise SeriesTooShortError(
            f"series of {series.n} points cannot host a non-trivial pair at "
            f"length {lmax} (needs {need})")
    if not (series.moving_stats(lmin)[1] >= series.sigma_floor).any():
        raise AllConstantError(f"every window of length {lmin} is constant")


def sigma_floor(values) -> float:
    """Std-dev threshold below which a window counts as constant.

    Scaled by the series' RMS (or 1 for an all-zero series). Sits above the
    resolution of cumulative-sum variance (whose cancellation noise is a few
    ulps of the mean square, ~1e-8 of RMS), so a window the O(1) kernel
    cannot distinguish from constant is treated as constant by every kernel.
    Constant windows are excluded from motif and discord candidacy.
    """
    rms = float(np.sqrt(np.mean(np.square(values))))
    return SIGMA_FLOOR_SCALE * (rms if rms > 0.0 else 1.0)
