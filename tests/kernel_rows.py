"""Full rows of one owner window, from the engine's live kernels."""

from seriesmine.profile import _row_arrays
from seriesmine.series import sliding_dot_product


def full_rows(series, i, length):
    """Owner i's dot-product, distance and bound-factor rows at ``length``:
    ``sliding_dot_product``, then ``moving_stats``, then ``_row_arrays``.
    Trivial matches and constant windows are +inf in both of the last two."""
    qt = sliding_dot_product(series.window(i, length), series)
    mu, sd = series.moving_stats(length)
    dist, f_row = _row_arrays(qt, i, length, mu, sd, sd >= series.sigma_floor)
    return qt, dist, f_row
