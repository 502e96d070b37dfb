import numpy as np
import pytest

import seriesmine as sm
from seriesmine.exceptions import (EmptySeriesError, InvalidParametersError,
                                   LengthExceedsSeriesError, NonFiniteError, OutOfRangeError)
from seriesmine.profile import PartialProfiles, compute_matrix_profile
from seriesmine.series import (_fast_len, _znorm, advance_dot_products, pair_distance,
                               sliding_dot_product, sliding_dot_products)
from seriesmine.synthetic import random_walk


def _shelf_walk(n=300, seed=0, start=100, stop=160):
    values = random_walk(n, seed=seed)
    values[start:stop] = values[start]
    return values


def test_ingest_basic():
    s = sm.ingest([1.0, 2.0, 3.0])
    assert s.n == 3
    assert np.allclose(s._cum, [0, 1, 3, 6])


def test_ingest_copies_the_callers_array():
    # the series locks its own copy; the caller's array stays writable
    a = np.random.default_rng(0).standard_normal(10)
    before = a.copy()
    s = sm.ingest(a)
    a[0] = 1.0
    assert np.array_equal(s.values, before) and not s.values.flags.writeable


def test_ingest_rejects_nan_with_position():
    with pytest.raises(NonFiniteError) as exc:
        sm.ingest([1.0, np.nan])
    assert exc.value.index == 1
    with pytest.raises(NonFiniteError):
        sm.ingest([np.inf, 1.0])


def test_ingest_rejects_empty():
    with pytest.raises(EmptySeriesError):
        sm.ingest([])


def test_ingest_rejects_non_1d_input():
    # no silent flattening: a matrix, a column and a scalar are not a series
    for raw in ([[1.0, 2.0], [3.0, 4.0]], np.arange(5.0)[:, None], 3.0):
        with pytest.raises(InvalidParametersError, match="one-dimensional"):
            sm.ingest(raw)
    with pytest.raises(InvalidParametersError):
        sm.DataSeries(np.zeros((2, 2)))


def test_ingest_million_points(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal(1_000_000)
    path = tmp_path / "big.txt"
    np.savetxt(path, values)
    s = sm.read_series(str(path))
    assert s.n == 1_000_000
    # line count of the written file is the independent check on n
    with open(path) as fh:
        assert sum(1 for _ in fh) == 1_000_000


def test_window_stats_match_naive():
    rng = np.random.default_rng(1)
    t = sm.ingest(rng.standard_normal(300))
    for i, length in [(0, 10), (5, 32), (250, 50), (290, 10)]:
        mu, sd = t.moving_stats(length)
        w = t.values[i:i + length]
        assert mu[i] == pytest.approx(w.mean(), rel=1e-12)
        assert sd[i] == pytest.approx(w.std(), rel=1e-9)


def test_stats_sigma_clamped_nonnegative():
    t = sm.ingest(np.full(50, 3.7))
    assert pair_distance(t, 10, 30, 20) == np.inf      # uncached stats
    assert 20 not in t._moving
    _, sd = t.moving_stats(20)
    assert np.all((0.0 <= sd) & (sd < t.sigma_floor))


def test_sliding_dot_product_hand_sum():
    t = sm.ingest([1.0, 2.0, 3.0])
    qt = sliding_dot_product(np.array([1.0, 1.0]), t)
    assert np.allclose(qt, [3.0, 5.0])


def test_sliding_dot_product_self_equals_squared_sum():
    rng = np.random.default_rng(2)
    t = sm.ingest(rng.standard_normal(128))
    length = 16
    qt = sliding_dot_product(t.window(0, length), t)
    mu, sd = t.moving_stats(length)
    assert qt[0] == pytest.approx(length * (sd[0] ** 2 + mu[0] ** 2), rel=1e-12)


def test_sliding_dot_product_matches_naive():
    rng = np.random.default_rng(3)
    t = sm.ingest(rng.standard_normal(512))
    length = 32
    q = t.window(100, length)
    qt = sliding_dot_product(q, t)
    naive = np.array([np.dot(q, t.values[j:j + length])
                      for j in range(t.n - length + 1)])
    assert np.max(np.abs(qt - naive)) < 1e-9


def test_cached_stats_and_spectrum_equal_uncached_formulas():
    from scipy import fft
    rng = np.random.default_rng(5)
    t = sm.ingest(rng.standard_normal(300).cumsum())
    for length in (8, 33, 64):
        for _ in range(2):      # first call fills the cache, second reads it
            mu, sd = t.moving_stats(length)
            s = t._cum[length:] - t._cum[:-length]
            ss = t._cum2[length:] - t._cum2[:-length]
            mu_ref = s / length
            var = np.maximum(ss / length - mu_ref * mu_ref, 0.0)
            assert np.array_equal(mu, mu_ref)
            assert np.array_equal(sd, np.sqrt(var))
        for i in (0, 17, t.n - length):
            q = t.window(i, length)
            size = fft.next_fast_len(t.n + length - 1, real=True)
            ref = fft.irfft(fft.rfft(t.values, size) * fft.rfft(q[::-1], size),
                            size)[length - 1:t.n]
            for _ in range(2):
                assert np.array_equal(sliding_dot_product(q, t), ref)


@pytest.mark.parametrize("n, lengths, sizes", [
    (800, (32, 47, 64), {864}),                  # mixed lengths, one FFT size
    (1000, tuple(range(16, 33)), {1024, 1080}),  # one call, two FFT sizes
])
def test_batched_rows_equal_one_query_bits(n, lengths, sizes):
    # a batched row holds the bits of the one-query 1-D transform, at both
    # ends of the series and whatever else its 2-D transform carries
    t = sm.ingest(random_walk(n, seed=n))
    assert {_fast_len(n + length - 1) for length in lengths} == sizes
    windows = [(i, length) for length in lengths for i in (0, 1, n // 3, n - length)]
    queries = [t.window(i, length) for i, length in windows]
    for max_rows in (1, 5, len(queries)):
        rows = list(sliding_dot_products(t, queries, max_rows))
        # sizes ascending, each size's queries in their given order
        assert [k for k, _ in rows] == sorted(
            range(len(queries)), key=lambda k: (_fast_len(n + windows[k][1] - 1), k))
        for k, qt in rows:
            i, length = windows[k]
            q = t.window(i, length)
            size = _fast_len(n + length - 1)
            ref = np.fft.irfft(t.spectrum(size) * np.fft.rfft(q[::-1], size), size)[length - 1:n]
            assert np.array_equal(qt, ref), (max_rows, i, length)
            assert np.array_equal(qt, sliding_dot_product(q, t)), (max_rows, i, length)


def test_fast_len_matches_scipy_next_fast_len():
    # equal FFT sizes keep the sliding dot products bit-equal to scipy's
    from scipy import fft
    fast_len = _fast_len.__wrapped__    # uncached, so the test leaves the cache empty
    assert [t for t in range(1, 60000) if fast_len(t) != fft.next_fast_len(t, real=True)] == []


def test_flat_windows_have_zero_std():
    # cumulative-sum cancellation leaves the variance of a flat stretch
    # above the constancy floor; every window of equal values reads 0
    values = _shelf_walk()
    t = sm.ingest(values)
    uncached = sm.ingest(values)
    for length in (8, 16, 60):
        mu, sd = t.moving_stats(length)
        s = t._cum[length:] - t._cum[:-length]
        ss = t._cum2[length:] - t._cum2[:-length]
        mu_ref = s / length
        sd_ref = np.sqrt(np.maximum(ss / length - mu_ref * mu_ref, 0.0))
        flat = np.array([np.all(values[i:i + length] == values[i])
                         for i in range(t.n - length + 1)])
        assert flat.sum() == 61 - length
        assert np.all(sd[flat] == 0.0)
        assert np.array_equal(sd[~flat], sd_ref[~flat])
        assert np.array_equal(mu, mu_ref)
        for i in np.flatnonzero(flat):
            assert pair_distance(uncached, int(i), 0, length) == np.inf
        assert not uncached._moving
    _, sd8 = t.moving_stats(8)
    sd8_ref = np.sqrt(np.maximum((t._cum2[8:] - t._cum2[:-8]) / 8
                                 - ((t._cum[8:] - t._cum[:-8]) / 8) ** 2, 0.0))
    assert np.any(sd8_ref[100:153] >= t.sigma_floor)    # the case the rule mends


def test_cached_arrays_are_read_only():
    t = sm.ingest(np.random.default_rng(6).standard_normal(100))
    mu, sd = t.moving_stats(10)
    for arr in (mu, sd, t.spectrum(128)):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_sliding_dot_product_query_too_long():
    t = sm.ingest([1.0, 2.0, 3.0])
    with pytest.raises(LengthExceedsSeriesError):
        sliding_dot_product(np.ones(5), t)


def test_advance_matches_scratch():
    rng = np.random.default_rng(4)
    t = sm.ingest(rng.standard_normal(256))
    length = 24
    qt = sliding_dot_product(t.window(0, length), t)
    for i in range(1, 40):
        qt = advance_dot_products(qt, t, i, length, out=qt)
        scratch = sliding_dot_product(t.window(i, length), t)
        assert np.max(np.abs(qt - scratch)) < 1e-7


def test_advance_constant_series():
    t = sm.ingest(np.full(40, 2.0))
    length = 8
    qt = sliding_dot_product(t.window(0, length), t)
    for i in range(1, 10):
        qt = advance_dot_products(qt, t, i, length, out=qt)
        assert np.allclose(qt, length * 4.0)


def test_extend_dot_product():
    # a stored dot product grows by the product of the two new last values
    t = sm.ingest([1.0, 2.0, 3.0, 1.0, 5.0, 2.0, 4.0, 0.0, 3.0, 7.0])
    partials = PartialProfiles(t, p=1, length=4)
    # row 0 stores neighbor 5, its dot product 1*2+2*4+3*0+1*3 and bound factor 1
    partials._store(0, np.array([5]), np.array([13.0]), np.zeros(1), 1.0)
    partials.advance(5)
    assert np.isfinite(partials.dist[0, 0])
    assert partials.qt[0, 0] == 13.0 + 5.0 * 7.0


def test_extend_matches_scratch():
    rng = np.random.default_rng(6)
    t = sm.ingest(rng.standard_normal(256))
    partials = compute_matrix_profile(t, 20, 5).partials
    for new_length in range(21, 31):
        partials.advance(new_length)
        for i in range(0, t.n - new_length + 1, 13):
            live = np.isfinite(partials.dist[i])
            for j, qt in zip(partials.nbr[i][live], partials.qt[i][live]):
                scratch = float(np.dot(t.window(i, new_length),
                                       t.window(int(j), new_length)))
                assert qt == pytest.approx(scratch, rel=1e-9, abs=1e-9)


def test_extend_out_of_range():
    # a row dies when its owner window no longer fits in the series
    rng = np.random.default_rng(12)
    t = sm.ingest(rng.standard_normal(20))
    partials = compute_matrix_profile(t, 8, 3).partials
    # 12 + 8 = n
    assert np.isfinite(partials.m_sigma[12]) and np.isfinite(partials.dist[12]).any()
    partials.advance(9)
    assert not np.isfinite(partials.m_sigma[12]) and not np.isfinite(partials.dist[12]).any()


def _naive_znorm(a, b):
    za = (a - a.mean()) / a.std()
    zb = (b - b.mean()) / b.std()
    return float(np.sqrt(((za - zb) ** 2).sum()))


def test_pair_distance_identical_is_zero():
    rng = np.random.default_rng(7)
    t = sm.ingest(np.tile(rng.standard_normal(16), 4))
    assert pair_distance(t, 0, 16, 16) == pytest.approx(0.0, abs=1e-6)


def test_pair_distance_anticorrelated():
    # exact anti-correlation at length 4: distance = sqrt(2*4*2) = 4
    w = np.array([1.0, 2.0, 3.0, 4.0])
    t = sm.ingest(np.concatenate([w, -w]))
    assert pair_distance(t, 0, 4, 4) == pytest.approx(4.0, rel=1e-12)


def test_pair_distance_matches_explicit():
    rng = np.random.default_rng(8)
    t = sm.ingest(rng.standard_normal(200))
    length = 16
    for i, j in [(0, 50), (3, 120), (90, 140)]:
        assert pair_distance(t, i, j, length) == pytest.approx(
            _naive_znorm(t.window(i, length), t.window(j, length)), rel=1e-9)


def test_pair_distance_zero_variance_is_inf():
    t = sm.ingest(np.concatenate([np.full(8, 1.0), np.arange(8.0)]))
    assert pair_distance(t, 0, 8, 8) == np.inf
    assert pair_distance(t, 8, 0, 8) == np.inf


def test_znorm_symmetry():
    rng = np.random.default_rng(9)
    t = sm.ingest(rng.standard_normal(100))
    for _ in range(2):      # uncached stats, then the cached arrays
        assert pair_distance(t, 2, 60, 12) == pair_distance(t, 60, 2, 12)
        t.moving_stats(12)


def test_distance_scale_offset_invariance():
    rng = np.random.default_rng(10)
    base = rng.standard_normal(120)
    length = 20
    i, j = 5, 70
    d_ref = _naive_znorm(base[i:i + length], base[j:j + length])
    for a, b in [(2.5, 1.0), (0.3, -7.0), (10.0, 100.0)]:
        scaled = base.copy()
        scaled[i:i + length] = a * scaled[i:i + length] + b
        t = sm.ingest(scaled)
        assert pair_distance(t, i, j, length) == pytest.approx(d_ref, abs=1e-7)


def test_pair_distance_symmetric_bitwise():
    rng = np.random.default_rng(11)
    t = sm.ingest(np.cumsum(rng.standard_normal(300)))
    for i, j in [(0, 50), (17, 230), (111, 40)]:
        assert pair_distance(t, i, j, 24) == pair_distance(t, j, i, 24)


def test_pair_distance_cached_uncached_and_znorm_bitwise():
    # uncached stats on one series, the cached moving_stats arrays on
    # another, and the scalar kernel fed from those arrays
    values = _shelf_walk(seed=12)
    uncached, cached = sm.ingest(values), sm.ingest(values)
    rng = np.random.default_rng(12)
    for length in (8, 24):
        pairs = [tuple(int(x) for x in rng.integers(0, cached.n - length + 1, size=2))
                 for _ in range(200)] + [(110, 200)]       # one inside the shelf
        mu, sd = cached.moving_stats(length)
        for i, j in pairs:
            a, b = min(i, j), max(i, j)
            d = pair_distance(uncached, i, j, length)
            assert d == pair_distance(cached, i, j, length)
            if sd[a] < cached.sigma_floor or sd[b] < cached.sigma_floor:
                assert d == np.inf
                continue
            qt = float(np.dot(cached.window(a, length), cached.window(b, length)))
            assert d == _znorm(qt, length, mu[a], sd[a], mu[b], sd[b])
        assert not uncached._moving
    assert cached.moving_stats(8)[1][110] == 0.0


def test_pair_distance_out_of_range():
    t = sm.ingest(random_walk(100, seed=13))
    for i, j in [(-1, 50), (50, -3), (0, 93), (100, 0)]:
        with pytest.raises(OutOfRangeError):
            pair_distance(t, i, j, 8)
    with pytest.raises(OutOfRangeError):
        pair_distance(t, 0, 10, 101)
