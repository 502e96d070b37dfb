import numpy as np
import pytest

import seriesmine as sm
from seriesmine.exceptions import (EmptySeriesError, LengthExceedsSeriesError,
                                   NonFiniteError, ZeroVarianceError)
from seriesmine.profile import PartialProfiles, compute_matrix_profile


def test_ingest_basic():
    s = sm.ingest([1.0, 2.0, 3.0])
    assert s.n == 3
    assert np.allclose(s._cum, [0, 1, 3, 6])


def test_ingest_rejects_nan_with_position():
    with pytest.raises(NonFiniteError) as exc:
        sm.ingest([1.0, np.nan])
    assert exc.value.index == 1
    with pytest.raises(NonFiniteError):
        sm.ingest([np.inf, 1.0])


def test_ingest_rejects_empty():
    with pytest.raises(EmptySeriesError):
        sm.ingest([])


def test_ingest_million_points(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal(1_000_000)
    path = tmp_path / "big.txt"
    np.savetxt(path, values)
    s = sm.read_series(str(path))
    assert s.n == 1_000_000
    # line count of the written file is the independent check on n
    assert sum(1 for _ in open(path)) == 1_000_000


def test_window_stats_match_naive():
    rng = np.random.default_rng(1)
    t = sm.ingest(rng.standard_normal(300))
    for i, length in [(0, 10), (5, 32), (250, 50), (290, 10)]:
        st = t.stats(i, length)
        w = t.values[i:i + length]
        assert st.mu == pytest.approx(w.mean(), rel=1e-12)
        assert st.sigma == pytest.approx(w.std(), rel=1e-9)


def test_stats_sigma_clamped_nonnegative():
    t = sm.ingest(np.full(50, 3.7))
    st = t.stats(10, 20)
    assert 0.0 <= st.sigma < t.sigma_floor
    assert st.is_constant


def test_sliding_dot_product_hand_sum():
    t = sm.ingest([1.0, 2.0, 3.0])
    qt = sm.sliding_dot_product(np.array([1.0, 1.0]), t)
    assert np.allclose(qt, [3.0, 5.0])


def test_sliding_dot_product_self_equals_squared_sum():
    rng = np.random.default_rng(2)
    t = sm.ingest(rng.standard_normal(128))
    length = 16
    qt = sm.sliding_dot_product(t.window(0, length), t)
    _, ss = t.window_sums(0, length)
    assert qt[0] == pytest.approx(ss, rel=1e-12)


def test_sliding_dot_product_matches_naive():
    rng = np.random.default_rng(3)
    t = sm.ingest(rng.standard_normal(512))
    length = 32
    q = t.window(100, length)
    qt = sm.sliding_dot_product(q, t)
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
                assert np.array_equal(sm.sliding_dot_product(q, t), ref)


def test_cached_arrays_are_read_only():
    t = sm.ingest(np.random.default_rng(6).standard_normal(100))
    mu, sd = t.moving_stats(10)
    for arr in (mu, sd, t.spectrum(128)):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_sliding_dot_product_query_too_long():
    t = sm.ingest([1.0, 2.0, 3.0])
    with pytest.raises(LengthExceedsSeriesError):
        sm.sliding_dot_product(np.ones(5), t)


def test_advance_matches_scratch():
    rng = np.random.default_rng(4)
    t = sm.ingest(rng.standard_normal(256))
    length = 24
    qt = sm.sliding_dot_product(t.window(0, length), t)
    for i in range(1, 40):
        qt = sm.advance_dot_products(qt, t, i, length)
        scratch = sm.sliding_dot_product(t.window(i, length), t)
        assert np.max(np.abs(qt - scratch)) < 1e-7


def test_advance_identity_at_zero():
    rng = np.random.default_rng(5)
    t = sm.ingest(rng.standard_normal(64))
    qt = sm.sliding_dot_product(t.window(0, 8), t)
    assert sm.advance_dot_products(qt, t, 0, 8) is qt


def test_advance_constant_series():
    t = sm.ingest(np.full(40, 2.0))
    length = 8
    qt = sm.sliding_dot_product(t.window(0, length), t)
    for i in range(1, 10):
        qt = sm.advance_dot_products(qt, t, i, length)
        assert np.allclose(qt, length * 4.0)


def test_extend_dot_product():
    # a stored dot product grows by the product of the two new last values
    t = sm.ingest([1.0, 2.0, 3.0, 1.0, 5.0, 2.0, 4.0, 0.0, 3.0, 7.0])
    partials = PartialProfiles(t, n_rows=7, p=1, length=4)
    partials.set_row(0, [5], [13.0], [0.0], m_f=1.0, sigma_base=1.0)   # 1*2+2*4+3*0+1*3
    partials.advance(5)
    assert partials.alive[0, 0]
    assert partials.qt[0, 0] == 13.0 + 5.0 * 7.0


def test_extend_matches_scratch():
    rng = np.random.default_rng(6)
    t = sm.ingest(rng.standard_normal(256))
    partials = compute_matrix_profile(t, 20, 5).partials
    for new_length in range(21, 31):
        partials.advance(new_length)
        for i in range(0, t.n - new_length + 1, 13):
            for j, qt in zip(partials.nbr[i][partials.alive[i]],
                             partials.qt[i][partials.alive[i]]):
                scratch = float(np.dot(t.window(i, new_length),
                                       t.window(int(j), new_length)))
                assert qt == pytest.approx(scratch, rel=1e-9, abs=1e-9)


def test_extend_out_of_range():
    # a row dies when its owner window no longer fits in the series
    rng = np.random.default_rng(12)
    t = sm.ingest(rng.standard_normal(20))
    partials = compute_matrix_profile(t, 8, 3).partials
    assert partials.owner_ok[12] and partials.alive[12].any()   # 12 + 8 = n
    partials.advance(9)
    assert not partials.owner_ok[12] and not partials.alive[12].any()


def _naive_znorm(a, b):
    za = (a - a.mean()) / a.std()
    zb = (b - b.mean()) / b.std()
    return float(np.sqrt(((za - zb) ** 2).sum()))


def test_znorm_distance_identical_is_zero():
    rng = np.random.default_rng(7)
    t = sm.ingest(np.tile(rng.standard_normal(16), 4))
    qt = float(np.dot(t.window(0, 16), t.window(16, 16)))
    d = sm.znorm_distance(qt, t.stats(0, 16), t.stats(16, 16))
    assert d == pytest.approx(0.0, abs=1e-6)


def test_znorm_distance_anticorrelated():
    # exact anti-correlation at length 4: distance = sqrt(2*4*2) = 4
    w = np.array([1.0, 2.0, 3.0, 4.0])
    t = sm.ingest(np.concatenate([w, -w]))
    qt = float(np.dot(t.window(0, 4), t.window(4, 4)))
    d = sm.znorm_distance(qt, t.stats(0, 4), t.stats(4, 4))
    assert d == pytest.approx(4.0, rel=1e-12)


def test_znorm_distance_matches_explicit():
    rng = np.random.default_rng(8)
    t = sm.ingest(rng.standard_normal(200))
    length = 16
    for i, j in [(0, 50), (3, 120), (90, 140)]:
        qt = float(np.dot(t.window(i, length), t.window(j, length)))
        d = sm.znorm_distance(qt, t.stats(i, length), t.stats(j, length))
        assert d == pytest.approx(
            _naive_znorm(t.window(i, length), t.window(j, length)), rel=1e-9)


def test_znorm_distance_zero_variance():
    t = sm.ingest(np.concatenate([np.full(8, 1.0), np.arange(8.0)]))
    with pytest.raises(ZeroVarianceError):
        sm.znorm_distance(0.0, t.stats(0, 8), t.stats(8, 8))


def test_znorm_symmetry():
    rng = np.random.default_rng(9)
    t = sm.ingest(rng.standard_normal(100))
    qt = float(np.dot(t.window(2, 12), t.window(60, 12)))
    a, b = t.stats(2, 12), t.stats(60, 12)
    assert sm.znorm_distance(qt, a, b) == sm.znorm_distance(qt, b, a)


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
        qt = float(np.dot(t.window(i, length), t.window(j, length)))
        d = sm.znorm_distance(qt, t.stats(i, length), t.stats(j, length))
        assert d == pytest.approx(d_ref, abs=1e-7)


def test_pair_distance_symmetric_bitwise():
    rng = np.random.default_rng(11)
    t = sm.ingest(np.cumsum(rng.standard_normal(300)))
    from seriesmine.series import pair_distance
    for i, j in [(0, 50), (17, 230), (111, 40)]:
        assert pair_distance(t, i, j, 24) == pair_distance(t, j, i, 24)
