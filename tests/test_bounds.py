"""Extension lower bound, checked on the engine's own vectorized kernels.

For an owner window i and a neighbor j at base length L, ``_row_arrays``
gives the bound factor ``f_row[j] = sqrt(L * (1 - max(q, 0)^2))``; at any
longer length L+k the bound is ``f_row[j] * sd_L[i] / sd_{L+k}[i]`` (the
owner is the anchor). ``PartialProfiles`` keeps the p smallest factors per
row, extends their dot products one length at a time, and certifies with
the scaled harvest maximum ``thresholds()``.
"""

import numpy as np
import pytest

import seriesmine as sm
from seriesmine.oracle import naive_distance_matrix
from seriesmine.profile import _correlation, _q_bound, compute_matrix_profile

from kernel_rows import full_rows


def _naive_znorm(a, b):
    za = (a - a.mean()) / a.std()
    zb = (b - b.mean()) / b.std()
    return float(np.sqrt(((za - zb) ** 2).sum()))


def _q(t, i, j, length):
    """Correlation of windows i and j from the live correlation kernel."""
    mu, sd = t.moving_stats(length)
    qt = np.array([np.dot(t.window(i, length), t.window(j, length))])
    return float(_correlation(qt, length, mu[i], sd[i], mu[j], sd[j])[0])


def _scaled_bound(f_row, t, i, length, k):
    """Bound at length+k for every neighbor of owner i."""
    sd_l = t.moving_stats(length)[1][i]
    sd_t = t.moving_stats(length + k)[1][i]
    return f_row * sd_l / sd_t


def test_q_value_self_correlation():
    rng = np.random.default_rng(0)
    t = sm.ingest(np.tile(rng.standard_normal(16), 3))
    assert _q(t, 0, 16, 16) == pytest.approx(1.0, abs=1e-9)


def test_q_value_anticorrelated():
    w = np.arange(1.0, 9.0)
    t = sm.ingest(np.concatenate([w, -w]))
    assert _q(t, 0, 8, 8) == pytest.approx(-1.0, abs=1e-9)
    # an anti-correlated pair gets the largest factor, sqrt(L)
    _, _, f_row = full_rows(t, 0, 8)
    assert f_row[8] == pytest.approx(np.sqrt(8.0), rel=1e-12)


def test_q_value_matches_pearson():
    rng = np.random.default_rng(1)
    t = sm.ingest(rng.standard_normal(200))
    length = 32
    for i, j in [(0, 64), (10, 150), (99, 40)]:
        expected = float(np.corrcoef(t.window(i, length), t.window(j, length))[0, 1])
        assert _q(t, i, j, length) == pytest.approx(expected, rel=1e-9)


def test_q_value_zero_variance():
    # a constant neighbor window gets neither a distance nor a bound
    t = sm.ingest(np.concatenate([np.full(8, 2.0), np.arange(8.0)]))
    _, dist, f_row = full_rows(t, 8, 8)
    assert dist[0] == np.inf and f_row[0] == np.inf


def test_lower_bound_perfect_correlation_is_zero():
    rng = np.random.default_rng(0)
    t = sm.ingest(np.tile(rng.standard_normal(16), 3))
    _, _, f_row = full_rows(t, 0, 16)
    assert f_row[16] == pytest.approx(0.0, abs=1e-6)


def test_lower_bound_zero_correlation_formula():
    # orthogonal zero-mean windows: q = 0, so the factor is sqrt(L) = 4
    a = np.array([1.0, -1.0] * 8)
    b = np.array([1.0, 1.0, -1.0, -1.0] * 4)
    t = sm.ingest(np.concatenate([a, b]))
    assert _q(t, 0, 16, 16) == pytest.approx(0.0, abs=1e-12)
    _, _, f_row = full_rows(t, 0, 16)
    assert f_row[16] == pytest.approx(4.0, rel=1e-12)


def test_lower_bound_soundness_random_pairs():
    # bound from the base length <= true distance at every extended length
    rng = np.random.default_rng(2)
    t = sm.ingest(np.cumsum(rng.standard_normal(400)))
    length = 32
    sd = {k: t.moving_stats(length + k)[1] for k in range(length + 1)}
    violations = checked = 0
    for _ in range(200):
        i, j = (int(v) for v in rng.integers(0, t.n - 2 * length, size=2))
        if abs(i - j) < length:
            continue
        _, _, f_row = full_rows(t, i, length)
        for k in range(1, length + 1):
            lb = f_row[j] * sd[0][i] / sd[k][i]
            true = _naive_znorm(t.window(i, length + k), t.window(j, length + k))
            violations += lb > true + 1e-9
            checked += 1
    assert checked > 1000 and violations == 0


def test_scale_bound_unchanged_for_equal_sigmas():
    # at the harvest length the threshold is the harvest maximum itself
    rng = np.random.default_rng(3)
    t = sm.ingest(np.cumsum(rng.standard_normal(300)))
    partials = compute_matrix_profile(t, 24, 5).partials
    thr = partials.thresholds()
    live = np.isfinite(partials.m_sigma)
    assert live.any()
    # the harvest maximum: the largest bound factor of the stored entries,
    # from their stored dot products
    mu, sd = t.moving_stats(24)
    nbr = partials.nbr
    f = _q_bound(_correlation(partials.qt, 24, mu[:, None], sd[:, None], mu[nbr], sd[nbr]), 24)
    m_f = np.where(np.isfinite(partials.dist), f, -np.inf).max(axis=1)
    assert np.allclose(thr[live], m_f[live], rtol=1e-14, atol=0.0)


def test_scale_bound_twice_equals_direct():
    # three single-length steps land on the direct base-to-target scaling
    rng = np.random.default_rng(3)
    t = sm.ingest(np.cumsum(rng.standard_normal(300)))
    length = 24
    partials = compute_matrix_profile(t, length, 5).partials
    m_f = partials.m_sigma / partials.sd     # the harvest maximum at the scan length
    for new_length in range(length + 1, length + 4):
        partials.advance(new_length)
    thr = partials.thresholds()
    sd_l = t.moving_stats(length)[1]
    sd_t = t.moving_stats(length + 3)[1]
    live = np.flatnonzero(np.isfinite(partials.m_sigma))
    assert live.size
    assert np.allclose(thr[live], m_f[live] * sd_l[live] / sd_t[live], rtol=1e-12, atol=0.0)


def test_scale_bound_preserves_order():
    # one shared positive factor per row cannot reorder it: the stored
    # entries keep the smallest bounds at every longer length
    rng = np.random.default_rng(4)
    t = sm.ingest(np.cumsum(rng.standard_normal(300)))
    length, p = 16, 5
    partials = compute_matrix_profile(t, length, p).partials
    for i in range(0, t.n - 2 * length, 17):
        _, _, f_row = full_rows(t, i, length)
        stored = partials.nbr[i][np.isfinite(partials.dist[i])]
        others = np.setdiff1d(np.flatnonzero(np.isfinite(f_row)), stored)
        for k in (1, 5, 16):
            scaled = _scaled_bound(f_row, t, i, length, k)
            assert scaled[stored].max() <= scaled[others].min()


def test_update_dist_and_lb_planted_identical_pair():
    rng = np.random.default_rng(5)
    pattern = np.cumsum(rng.standard_normal(40))
    t_values = rng.standard_normal(200)
    t_values[10:50] = pattern
    t_values[120:160] = pattern
    t = sm.ingest(t_values)
    partials = compute_matrix_profile(t, 16, 5).partials
    slot = int(np.flatnonzero(partials.nbr[10] == 120)[0])
    for new_length in range(17, 41):
        partials.advance(new_length)
        assert np.isfinite(partials.dist[10, slot])
        assert partials.dist[10, slot] == pytest.approx(0.0, abs=1e-6)


def test_update_dist_and_lb_matches_scratch():
    rng = np.random.default_rng(6)
    t = sm.ingest(np.cumsum(rng.standard_normal(1000)))
    partials = compute_matrix_profile(t, 16, 5).partials
    for new_length in range(17, 33):
        partials.advance(new_length)
        for i in range(0, t.n - new_length + 1, 37):
            live = np.isfinite(partials.dist[i])
            for j, d in zip(partials.nbr[i][live], partials.dist[i][live]):
                expected = _naive_znorm(t.window(i, new_length), t.window(int(j), new_length))
                assert d == pytest.approx(expected, abs=1e-7)


def test_update_dist_and_lb_out_of_range():
    # an entry dies when its neighbor window leaves the series
    rng = np.random.default_rng(7)
    t = sm.ingest(rng.standard_normal(100))
    partials = compute_matrix_profile(t, 19, t.n).partials
    last = t.n - 19          # the last neighbor offset that exists at length 19
    assert np.isfinite(partials.dist[0, partials.nbr[0] == last]).tolist() == [True]
    partials.advance(20)
    assert not (np.isfinite(partials.dist) & (partials.nbr >= last)).any()
    assert not np.isfinite(partials.m_sigma[last:]).any()


def test_thresholds_bound_unstored_pairs_after_advance():
    # certification soundness: after k steps no pair outside a row's stored
    # entries lies below that row's threshold
    rng = np.random.default_rng(9)
    t = sm.ingest(np.cumsum(rng.standard_normal(250)))
    length, p = 12, 4
    partials = compute_matrix_profile(t, length, p).partials
    for new_length in range(length + 1, length + 13):
        partials.advance(new_length)
        truth = naive_distance_matrix(t, new_length)
        thr = partials.thresholds()
        for i in np.flatnonzero(np.isfinite(partials.m_sigma)):
            unstored = np.ones(truth.shape[1], dtype=bool)
            unstored[partials.nbr[i][np.isfinite(partials.dist[i])]] = False
            row = truth[i][unstored]
            assert np.all(row[np.isfinite(row)] >= thr[i] - 1e-9), (new_length, i)


def test_thresholds_of_resurrected_and_constant_rows():
    # a window that is flat at the scan length but not one step longer holds
    # no stored entries, so it certifies nothing (0); a still-flat window is
    # dead (+inf)
    values = np.cumsum(np.random.default_rng(4).standard_normal(200))
    values[50:62] = values[50]
    values[120:140] = values[120]
    t = sm.ingest(values)
    partials = compute_matrix_profile(t, 12, 4).partials
    stored = [a.copy() for a in (partials.nbr, partials.qt, partials.dist, partials.m_sigma)]
    partials.advance(partials.length)      # no-op at the current length
    for before, after in zip(stored, (partials.nbr, partials.qt, partials.dist, partials.m_sigma)):
        assert np.array_equal(before, after)
    # step's thresholds mark exactly the constant rows dead, at the scan
    # length (no advance) and after each advance
    for length in range(12, 20):
        _, _, thr = partials.step(length, 1)
        sd = t.moving_stats(length)[1]
        assert np.array_equal(np.isfinite(thr), sd >= t.sigma_floor), length
        if length == 13:
            thr = partials.thresholds()
            assert not np.isfinite(partials.m_sigma[50]) and thr[50] == 0.0
            assert not np.isfinite(partials.m_sigma[120]) and thr[120] == np.inf
            assert np.all(thr[t.n - 13 + 1:] == np.inf)


def test_exhaustive_soundness_small_series():
    # every sampled owner against every neighbor, extensions 1, 5 and 16
    rng = np.random.default_rng(8)
    t = sm.ingest(np.cumsum(rng.standard_normal(200)))
    length = 16
    truth = {k: naive_distance_matrix(t, length + k) for k in (1, 5, 16)}
    n_pairs = 0
    for i in range(0, t.n - 2 * length, 5):
        _, _, f_row = full_rows(t, i, length)
        for k, dists in truth.items():
            n_dp = dists.shape[1]
            lb = _scaled_bound(f_row, t, i, length, k)[:n_dp]
            ok = np.isfinite(lb) & np.isfinite(dists[i])
            assert np.all(lb[ok] <= dists[i][ok] + 1e-9)
            n_pairs += int(ok.sum())
    assert n_pairs > 1000
