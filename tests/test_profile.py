import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import seriesmine as sm
from seriesmine import policy, profile
from seriesmine.exceptions import (AllConstantError, InvalidParametersError,
                                   SeriesTooShortError)
from seriesmine.oracle import naive_distance_matrix, naive_profile
from seriesmine.profile import (CHUNK_ROWS, PartialProfiles, _harvest_select,
                                compute_matrix_profile, row_profile)
from seriesmine.series import advance_dot_products, sliding_dot_product
from seriesmine.synthetic import planted_pair_series, random_walk

from kernel_rows import full_rows


def test_planted_duplicate_pair():
    rng = np.random.default_rng(0)
    t_values = np.cumsum(rng.standard_normal(400))
    length = 32
    t_values[300:300 + length] = t_values[50:50 + length]
    t = sm.ingest(t_values)
    res = compute_matrix_profile(t, length, 3)
    assert res.profile.mp[50] == pytest.approx(0.0, abs=1e-6)
    assert res.profile.mp[300] == pytest.approx(0.0, abs=1e-6)
    assert res.profile.ip[50] == 300
    assert res.profile.ip[300] == 50


@pytest.mark.parametrize("length", [8, 16, 64])
def test_matches_naive_oracle(length):
    t = sm.ingest(random_walk(500, seed=length))
    res = compute_matrix_profile(t, length, 5)
    mp_o, ip_o = naive_profile(t, length)
    assert np.max(np.abs(res.profile.mp - mp_o)) < 1e-7
    assert np.array_equal(res.profile.ip, ip_o)


def test_degenerate_capacity_stores_whole_row():
    t = sm.ingest(random_walk(200, seed=1))
    length = 16
    res = compute_matrix_profile(t, length, p=t.n)
    n_dp = t.n - length + 1
    excl = 8
    for i in (0, 57, n_dp - 1):
        live = np.isfinite(res.partials.dist[i])
        candidates = sum(1 for j in range(n_dp) if abs(j - i) >= excl)
        assert live.sum() == candidates
        row_min = res.partials.dist[i][live].min()
        assert row_min == res.profile.mp[i]


def test_capacity_above_the_row_count_changes_nothing():
    # a row never has more neighbors than there are rows, so storage is at
    # most that wide whatever p asks, and the output is the oracle's
    t = sm.ingest(random_walk(24, seed=2))
    p = 10 ** 5
    for length in (4, 8, 16):
        assert compute_matrix_profile(t, length, p).partials.nbr.shape[1] <= t.n - length + 1
    v = sm.valmod(t, 4, 16, p)
    om = sm.brute_force_motifs(t, 4, 16)
    assert np.array_equal(v.indices, om.valmp_index)
    assert np.array_equal(v.lengths, om.valmp_length)
    m = t.n       # more matches than any length has rows
    scan = sm.topkm_discord_discovery(t, 4, 16, 2, m, p)
    per_o, merged_o = sm.brute_force_discords(t, 4, 16, 2, m)
    for length in range(4, 17):
        assert np.array_equal(scan.per_length[length].offset, per_o[length].offset)
        assert np.array_equal(scan.per_length[length].dist, per_o[length].dist)
    assert np.array_equal(scan.merged.offset, merged_o.offset)
    assert np.array_equal(scan.merged.length, merged_o.length)


def test_harvest_keeps_smallest_bounds():
    # every pair left out of a partial profile bounds above the stored max
    t = sm.ingest(random_walk(300, seed=2))
    length = 16
    p = 5
    res = compute_matrix_profile(t, length, p)
    for i in range(0, t.n - length + 1, 23):
        if not np.isfinite(res.partials.m_sigma[i]):
            continue
        _, _, f_row = full_rows(t, i, length)
        sel = np.isfinite(res.partials.dist[i])
        stored = set(res.partials.nbr[i][sel].tolist())
        stored_max = max(f_row[j] for j in stored)
        for j in np.flatnonzero(np.isfinite(f_row)):
            if int(j) not in stored:
                assert f_row[j] >= stored_max - 1e-12


def test_distance_symmetry_sampled():
    t = sm.ingest(random_walk(300, seed=3))
    dists = naive_distance_matrix(t, 24)
    finite = np.isfinite(dists)
    assert np.array_equal(finite, finite.T)
    assert np.max(np.abs(dists[finite] - dists.T[finite])) < 1e-9


def _explicit_row(t, i, length):
    """Distances of window i to every window, z-normalized one by one."""
    def z(w):
        return (w - w.mean()) / w.std()
    zi = z(t.window(i, length))
    return np.array([np.linalg.norm(zi - z(t.window(j, length)))
                     for j in range(t.n - length + 1)])


def test_min_with_exclusion_skips_zone():
    # unmasked, the self-match would win; the exclusion zone
    # (ceil(16/2) = 8 each side) hides it and the overlapping shifts
    t = sm.ingest(random_walk(200, seed=4))
    i, length = 50, 16
    dist = row_profile(t, i, length)
    assert int(np.argmin(_explicit_row(t, i, length))) == i
    assert np.all(np.isinf(dist[i - 7:i + 8]))
    assert np.isfinite(dist[i - 8]) and np.isfinite(dist[i + 8])


def test_min_with_exclusion_matches_filter_oracle():
    t = sm.ingest(random_walk(100, seed=4))
    i, length = 50, 16
    dist = row_profile(t, i, length)
    explicit = _explicit_row(t, i, length)
    mask = np.abs(np.arange(explicit.shape[0]) - i) >= 8
    expected_j = int(np.flatnonzero(mask)[np.argmin(explicit[mask])])
    assert int(np.argmin(dist)) == expected_j
    assert dist[expected_j] == pytest.approx(explicit[expected_j], abs=1e-9)


def test_min_with_exclusion_no_neighbor():
    # n=10, length 8: three windows, all inside each other's zone
    t = sm.ingest(random_walk(10, seed=4))
    dist = row_profile(t, 1, 8)
    assert not np.isfinite(dist).any()


def test_series_too_short():
    t = sm.ingest(np.arange(20.0))
    with pytest.raises(SeriesTooShortError):
        compute_matrix_profile(t, 16, 2)
    with pytest.raises(InvalidParametersError):     # below the minimum length 4
        compute_matrix_profile(t, 3, 2)


def test_all_constant_rejected():
    t = sm.ingest(np.full(64, 5.0))
    with pytest.raises(AllConstantError):
        compute_matrix_profile(t, 8, 2)


def test_invalid_capacity():
    t = sm.ingest(random_walk(64, seed=5))
    with pytest.raises(InvalidParametersError):
        compute_matrix_profile(t, 8, 0)


def test_constant_stretch_excluded_from_matches():
    values = random_walk(300, seed=6)
    values[100:140] = values[99]     # a flat shelf
    t = sm.ingest(values)
    length = 16
    res = compute_matrix_profile(t, length, 4)
    mp_o, ip_o = naive_profile(t, length)
    assert np.allclose(res.profile.mp, mp_o, atol=1e-7, equal_nan=True)
    assert np.array_equal(res.profile.ip, ip_o)
    # fully-flat windows are not candidates
    flat = [i for i in range(105, 120)]
    for i in flat:
        assert not np.isfinite(res.profile.mp[i])


def test_chunk_seams_match_fresh_rows():
    # rows on both sides of each chunk boundary equal a from-scratch row
    t = sm.ingest(random_walk(5000, seed=7))
    res = compute_matrix_profile(t, 64, 5)
    assert res.profile.mp.shape[0] > 2 * CHUNK_ROWS     # three chunks
    for i in (CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS - 1, 2 * CHUNK_ROWS):
        qt_row, dist, _ = full_rows(t, i, 64)
        j = int(np.argmin(dist))
        assert np.allclose(res.profile.mp[i], dist[j], rtol=1e-9, atol=1e-9)
        assert res.profile.ip[i] == j
        stored = np.isfinite(res.partials.dist[i])
        assert np.allclose(res.partials.qt[i][stored],
                           qt_row[res.partials.nbr[i][stored]], rtol=1e-9, atol=1e-9)


def test_best_match_harvest_tracks_m_smallest():
    t = sm.ingest(random_walk(400, seed=8))
    length, m = 16, 3
    dists = naive_distance_matrix(t, length)
    for i in range(0, t.n - length + 1, 31):
        row = row_profile(t, i, length)
        nbrs = _harvest_select(row, m)
        finite = np.sort(dists[i][np.isfinite(dists[i])])[:m]
        assert np.allclose(np.sort(row[nbrs]), finite, atol=1e-7)
        assert np.allclose(dists[i][nbrs], row[nbrs], atol=1e-7)


def test_harvest_select_breaks_ties_towards_smaller_offsets():
    # rows with ties at the m-th place and inf cells: the m best are the
    # first m cells in (distance, offset) order, as a set
    rng = np.random.default_rng(12)
    for _ in range(2000):
        n, m = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        d = rng.integers(0, 6, n).astype(float)
        d[rng.random(n) < 0.2] = np.inf
        fin = np.flatnonzero(np.isfinite(d))
        want = fin[np.lexsort((fin, d[fin]))][:m]
        assert np.array_equal(_harvest_select(d, m), np.sort(want))


def test_planted_pair_certified_across_lengths():
    t = sm.ingest(planted_pair_series(600, 64, offsets=(100, 400), seed=3))
    res = compute_matrix_profile(t, 32, 5)
    assert res.profile.ip[100] == 400
    assert res.profile.ip[400] == 100


def _row_by_row_scan(t, length, p):
    """The scan as full rows: the dot-product recursion (FFT-seeded per
    chunk), then ``_harvest_full`` on every live row."""
    n_dp = t.n - length + 1
    mu, sd = t.moving_stats(length)
    valid = sd >= t.sigma_floor
    mp, ip = np.full(n_dp, np.inf), np.full(n_dp, -1, dtype=np.int64)
    partials = PartialProfiles(t, p, length)
    for i in range(n_dp):
        if i % CHUNK_ROWS == 0:
            qt = sliding_dot_product(t.window(i, length), t)
        else:
            qt = advance_dot_products(qt, t, i, length, out=qt)
        if not valid[i]:
            continue
        nbrs, dists = profile._harvest_full(partials, i, qt, length, mu, sd, valid, 1)
        if nbrs.shape[0]:
            mp[i], ip[i] = dists[0], nbrs[0]
    return mp, ip, partials


_PARTIAL_ARRAYS = ("nbr", "qt", "dist", "m_sigma", "sd")


def _assert_same_bits(res, mp, ip, partials):
    assert np.array_equal(res.profile.mp, mp)
    assert np.array_equal(res.profile.ip, ip)
    for name in _PARTIAL_ARRAYS:
        assert np.array_equal(getattr(res.partials, name), getattr(partials, name)), name


def _exact_repeats(seed):
    rng = np.random.default_rng(seed)
    pat = np.cumsum(rng.standard_normal(40))
    v = np.cumsum(rng.standard_normal(400))
    for a in (40, 140, 240, 330):
        v[a:a + 40] = pat
    return v


def _shelf_walk():
    v = random_walk(300, seed=6)
    v[100:140] = v[99]
    return v


def _spike_walk():
    v = random_walk(500, seed=3)
    v[250] += 30.0
    return v


def _fading_step():
    """A shelf with one step just above the constant-window floor: the
    windows over it turn constant as they grow."""
    v = random_walk(200, seed=4)
    v[100:160] = v[100]
    v[120] += 3.5 * sm.ingest(v).sigma_floor
    return v


def _advanced_partials(values, lmin, lmax, p):
    """Partial profiles scanned at ``lmin`` and advanced to ``lmax``; at
    every longer length, every fifth live row is recomputed through
    ``row_profile``'s harvesting form."""
    t = sm.ingest(values)
    pp = compute_matrix_profile(t, lmin, p).partials
    for length in range(lmin + 1, lmax + 1):
        pp.advance(length)
        live = np.flatnonzero(t.moving_stats(length)[1] >= t.sigma_floor)
        for i in live[::5].tolist():
            row_profile(t, i, length, harvest=pp, m=3)
    return t, pp


def _assert_liveness_invariants(t, pp):
    """+inf carries liveness: live entries hold ascending neighbors that can
    still match, dead ones hold +inf, and only rows with a live owner hold a
    finite ``m_sigma``."""
    n_dp, floor = pp.sd.shape[0], t.sigma_floor
    live = np.isfinite(pp.dist)
    assert np.all(live | (pp.dist == np.inf))
    for i in range(pp.n_rows):
        assert np.all(np.diff(pp.nbr[i][live[i]]) > 0), i
    owner_live = np.zeros(pp.n_rows, dtype=bool)
    owner_live[:n_dp] = pp.sd >= floor
    assert not (np.isfinite(pp.m_sigma) & ~owner_live).any()
    in_range = (pp.nbr >= 0) & (pp.nbr < n_dp)
    can_match = (in_range & (pp.sd[np.where(in_range, pp.nbr, 0)] >= floor)
                 & (np.abs(pp.nbr - np.arange(pp.n_rows)[:, None])
                    >= policy.exclusion_zone(pp.length)))
    assert not (live & ~(can_match & np.isfinite(pp.m_sigma)[:, None])).any()


_PARTIAL_STATES = [          # (series, scan length, final length, p)
    (random_walk(400, seed=9), 16, 20, 6),
    (_shelf_walk(), 16, 20, 6),
    (_exact_repeats(0), 12, 15, 10),
    (_spike_walk(), 16, 18, 5),
    (_fading_step(), 8, 14, 5),                 # owners turning constant
    (random_walk(60, seed=3), 8, 14, 60),      # rows dying at the series end
]


def test_sorted_row_matches_equals_per_row_lexsort():
    # states reached by scans, advances and harvesting recomputes (walk,
    # shelf, exact repeats, spike, owners turning constant, rows dying at
    # the series end) keep the invariants the stable sort relies on, also
    # with ties between two live neighbors and entries killed with +inf; the
    # m best then equal a per-row (distance, neighbor) lexsort
    for values, lmin, lmax, p in _PARTIAL_STATES:
        t, pp = _advanced_partials(values, lmin, lmax, p)
        _assert_liveness_invariants(t, pp)
        n_rows = pp.sd.shape[0]
        assert n_rows < pp.n_rows and (~np.isfinite(pp.dist[:n_rows])).any()
        rows = np.random.default_rng(9).choice(n_rows, min(80, n_rows), replace=False)
        both = np.isfinite(pp.dist[rows, 1]) & np.isfinite(pp.dist[rows, 3])
        pp.dist[rows[both], 3] = pp.dist[rows[both], 1]   # ties between two live neighbors
        pp.dist[rows[:10], 0] = np.inf                      # dead entries
        assert both.sum() > 10
        _assert_liveness_invariants(t, pp)
        for m in (1, 4, pp.p + 2):
            dists, nbrs = pp.sorted_row_matches(m)
            assert dists.shape == nbrs.shape == (n_rows, m)
            for i in range(n_rows):
                sel = np.isfinite(pp.dist[i])
                d, nb = pp.dist[i][sel], pp.nbr[i][sel]
                order = np.lexsort((nb, d))[:m]
                take = order.shape[0]
                assert np.array_equal(dists[i, :take], d[order]), (lmin, m, i)
                assert np.array_equal(nbrs[i, :take], nb[order]), (lmin, m, i)
                assert np.all(dists[i, take:] == np.inf) and np.all(nbrs[i, take:] == -1)


@pytest.mark.parametrize("name, values, length, p, fallback", [
    ("shelf", _shelf_walk(), 16, 4, None),
    ("repeats", _exact_repeats(0), 12, 10, None),
    ("spike", _spike_walk(), 16, 5, None),
    ("periodic", np.sin(2 * np.pi * np.arange(900) / 50), 50, 10, "some"),
    ("too short for a block", random_walk(12, seed=1), 4, 9, "all"),
    ("p above the row count", random_walk(24, seed=2), 8, 100, "all"),
    ("three chunks", random_walk(5000, seed=7), 64, 5, "none"),
])
def test_block_scan_bits_equal_row_by_row(monkeypatch, name, values, length, p, fallback):
    # settling rows a block at a time from their p+1 best correlations gives
    # the bits of full rows; rows the block cannot settle fall back to full rows
    t = sm.ingest(values)
    expected = _row_by_row_scan(t, length, p)
    calls = []
    row_arrays = profile._row_arrays

    def counted(*args, **kwargs):
        calls.append(args[2])
        return row_arrays(*args, **kwargs)

    monkeypatch.setattr(profile, "_row_arrays", counted)
    _assert_same_bits(compute_matrix_profile(t, length, p), *expected)
    live = int((t.moving_stats(length)[1] >= t.sigma_floor).sum())
    if fallback == "none":
        assert not calls
    elif fallback == "all":
        assert len(calls) == live
    elif fallback == "some":
        assert 0 < len(calls) < live


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(40, 260), shelf=st.booleans(),
       spike=st.booleans(), repeat=st.booleans(), length=st.integers(4, 24),
       p=st.integers(1, 12))
def test_block_size_changes_no_bit(seed, n, shelf, spike, repeat, length, p):
    values = random_walk(n, seed=seed)
    if shelf:
        values[n // 4:n // 4 + 12] = values[n // 4]
    if spike:
        values[n // 2] += 8.0
    if repeat:
        values[n - 20:] = values[5:25]
    length = min(length, 2 * n // 3)
    t = sm.ingest(values)
    expected = _row_by_row_scan(t, length, p)
    for cells in (1, 1 << 40):       # one row per block; the whole chunk as one block
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(profile, "_BLOCK_CELLS", cells)
            _assert_same_bits(compute_matrix_profile(t, length, p), *expected)


def test_scan_makes_one_fft_per_chunk_and_no_row_profile(monkeypatch):
    # the benchmark's call counts read one FFT per chunk and no single-row
    # rescans inside a full scan
    t = sm.ingest(random_walk(5000, seed=7))
    calls = {"sliding_dot_product": 0, "row_profile": 0}
    for name in calls:
        fn = getattr(profile, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(profile, name, counted)
    compute_matrix_profile(t, 64, 10)
    assert calls == {"sliding_dot_product": math.ceil((t.n - 64 + 1) / CHUNK_ROWS),
                     "row_profile": 0}


def test_block_settle_resolves_near_ties_like_full_rows():
    # correlations in clusters of adjacent floats: distinct q_raw that round
    # to one distance or bound factor, exact ties, q_raw >= 1 and <= 0; a row
    # the block settles must carry its full rows' bits, and the rest fall back
    rng = np.random.default_rng(0)
    n_settled = n_fallback = 0
    for _ in range(200):
        length, p, n_dp = int(rng.choice([12, 16, 20])), int(rng.integers(1, 6)), 60
        t = sm.ingest(random_walk(n_dp + length - 1, seed=1))
        mu, sd = np.zeros(n_dp), np.ones(n_dp)     # so q_raw is qt / length
        valid = rng.random(n_dp) > 0.05
        rows = np.arange(10, 50)
        q = rng.uniform(-1.0, 0.2, (rows.shape[0], n_dp))
        for r in range(rows.shape[0]):
            a = rng.choice([0.3, 0.7, 0.9999, 1.0, 1.5, -0.2])
            cols = rng.choice(n_dp, p + 3, replace=False)
            q[r, cols] = a + rng.integers(-4, 5, p + 3) * np.spacing(a)
        qt = length * q
        full, block = (PartialProfiles(t, p, length) for _ in range(2))
        full.sd = block.sd = sd
        mp_full, ip_full = np.full(n_dp, np.inf), np.full(n_dp, -1, dtype=np.int64)
        mp_block, ip_block = mp_full.copy(), ip_full.copy()
        settled = profile._settle_block(rows, qt, np.empty_like(qt), length, mu, sd,
                                        valid, mp_block, ip_block, block)
        for r, i in enumerate(rows):
            nbrs, dists = profile._harvest_full(full, i, qt[r], length, mu, sd, valid, 1)
            if nbrs.shape[0]:
                mp_full[i], ip_full[i] = dists[0], nbrs[0]
        s = rows[settled]
        assert np.array_equal(mp_block[s], mp_full[s])
        assert np.array_equal(ip_block[s], ip_full[s])
        for name in _PARTIAL_ARRAYS[:-1]:
            assert np.array_equal(getattr(block, name)[s], getattr(full, name)[s]), name
        n_settled += s.shape[0]
        n_fallback += int((valid[rows] & ~settled).sum())
    assert n_settled > 1000 and n_fallback > 1000


def _harvest_select_reference(f_row, p):
    """``_harvest_select`` before its one-partition fast path."""
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


def test_harvest_select_fast_path_equals_reference():
    # rows with ties at the boundary, inf cells, fewer finite cells than p,
    # and p at or above the row length
    rng = np.random.default_rng(21)
    for _ in range(5000):
        n, p = int(rng.integers(1, 30)), int(rng.integers(1, 35))
        d = rng.integers(0, 6, n).astype(float) if rng.random() < 0.5 else rng.standard_normal(n)
        d[rng.random(n) < rng.choice([0.0, 0.2, 0.9])] = np.inf
        got, want = _harvest_select(d, p), _harvest_select_reference(d, p)
        assert got.dtype == want.dtype and np.array_equal(got, want), (d, p)


def _recompute_by_full_rows(t, partials, i, length, m):
    """A recomputed row the way valmod and the discord scan took it before
    the settle path: full rows, the ``p`` smallest bound factors stored (a
    row with none finite keeps its entries), then the m nearest."""
    qt_row, dist, f_row = full_rows(t, i, length)
    sel = _harvest_select(f_row, partials.p)
    if sel.shape[0]:
        partials._store(i, sel, qt_row[sel], dist[sel], f_row[sel].max())
    nbrs = _harvest_select(dist, m)
    return nbrs, dist[nbrs]


def _assert_recompute_bits(t, lmin, length, p, m):
    """Recompute every live row at ``length`` through ``row_profile``'s
    harvesting form and through full rows, from equal partial profiles
    advanced from ``lmin``; both must leave the same bits. Returns the rows
    the harvesting form settled and the live row count."""
    partials, expected = (compute_matrix_profile(t, lmin, p).partials for _ in range(2))
    for step in range(lmin + 1, length + 1):
        partials.advance(step)
        expected.advance(step)
    fell_back = []
    harvest_full = profile._harvest_full
    live = np.flatnonzero(t.moving_stats(length)[1] >= t.sigma_floor).tolist()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(profile, "_harvest_full",
                      lambda pp, i, *args: fell_back.append(i) or harvest_full(pp, i, *args))
        for i in live:
            nbrs, dists = row_profile(t, i, length, harvest=partials, m=m)
            want_nbrs, want_dists = _recompute_by_full_rows(t, expected, i, length, m)
            assert np.array_equal(nbrs, want_nbrs) and np.array_equal(dists, want_dists), i
    for name in _PARTIAL_ARRAYS:
        assert np.array_equal(getattr(partials, name), getattr(expected, name)), name
    return len(live) - len(fell_back), len(live)


@pytest.mark.parametrize("name, values, lmin, length, p, m, settled", [
    ("walk", random_walk(600, seed=2), 16, 19, 10, 3, "all"),
    ("shelf", _shelf_walk(), 16, 18, 4, 3, None),
    ("repeats", _exact_repeats(0), 12, 14, 10, 3, None),
    ("spike", _spike_walk(), 16, 17, 5, 2, None),
    ("periodic", np.sin(2 * np.pi * np.arange(900) / 50), 50, 51, 10, 3, "some"),
    ("m equals p", random_walk(400, seed=5), 16, 18, 4, 4, None),
    ("p at the row count", random_walk(24, seed=2), 8, 10, 100, 2, "none"),
])
def test_harvesting_row_profile_bits_equal_full_rows(name, values, lmin, length, p, m, settled):
    # a recomputed row settled from its p+1 highest correlations leaves the
    # stored entries and m nearest of its full rows; the rest fall back
    n_settled, n_live = _assert_recompute_bits(sm.ingest(values), lmin, length, p, m)
    if settled == "all":
        assert n_settled == n_live
    elif settled == "some":
        assert 0 < n_settled < n_live
    elif settled == "none":
        assert n_settled == 0


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(40, 200), shelf=st.booleans(),
       spike=st.booleans(), repeat=st.booleans(), lmin=st.integers(4, 20),
       steps=st.integers(0, 3), p=st.integers(1, 12), m=st.integers(1, 12))
def test_harvesting_row_profile_never_moves_a_bit(seed, n, shelf, spike, repeat, lmin, steps,
                                                  p, m):
    values = random_walk(n, seed=seed)
    if shelf:
        values[n // 4:n // 4 + 12] = values[n // 4]
    if spike:
        values[n // 2] += 8.0
    if repeat:
        values[n - 20:] = values[5:25]
    lmin = min(lmin, n // 3)
    _assert_recompute_bits(sm.ingest(values), lmin, lmin + steps, p, min(m, p))


def test_row_settle_resolves_near_ties_like_full_rows():
    # correlations in clusters of adjacent floats, exact ties, q_raw >= 1
    # and <= 0, for every m up to p: a row the one-row settle takes must
    # carry its full rows' bits, and the rest fall back
    rng = np.random.default_rng(1)
    n_settled = n_fallback = 0
    for _ in range(300):
        length, p, n_dp = int(rng.choice([12, 16, 20])), int(rng.integers(1, 6)), 60
        m = int(rng.integers(1, p + 1))
        t = sm.ingest(random_walk(n_dp + length - 1, seed=1))
        mu, sd = np.zeros(n_dp), np.ones(n_dp)     # so q_raw is qt / length
        valid = rng.random(n_dp) > 0.05
        i = int(rng.integers(10, 50))
        q = rng.uniform(-1.0, 0.2, n_dp)
        a = rng.choice([0.3, 0.7, 0.9999, 1.0, 1.5, -0.2])
        cols = rng.choice(n_dp, p + 3, replace=False)
        q[cols] = a + rng.integers(-4, 5, p + 3) * np.spacing(a)
        qt = length * q
        full, one = (PartialProfiles(t, p, length) for _ in range(2))
        full.sd = one.sd = sd
        got = profile._settle_row(one, i, qt, length, mu, sd, valid, m)
        nbrs, dists = profile._harvest_full(full, i, qt, length, mu, sd, valid, m)
        if got is None:
            n_fallback += valid[i]
            continue
        assert np.array_equal(got[0], nbrs) and np.array_equal(got[1], dists)
        for name in _PARTIAL_ARRAYS[:-1]:
            assert np.array_equal(getattr(one, name)[i], getattr(full, name)[i]), name
        n_settled += 1
    assert n_settled > 50 and n_fallback > 50


def test_settle_path_changes_no_task_output(monkeypatch):
    # valmod and the discord scan give the same bits and counts with every
    # recomputed row (discord owners, valmod's hiding rows) taking full rows
    t = sm.ingest(random_walk(500, seed=11))

    def run():
        dtrace, vtrace = sm.RunTrace(), sm.RunTrace()
        scan = sm.topkm_discord_discovery(t, 16, 24, 3, 3, 6, trace=dtrace)
        v = sm.valmod(t, 16, 24, 2, trace=vtrace)
        mats = [(d.dist, d.offset) for _, d in sorted(scan.per_length.items())]
        return mats, scan.merged, dtrace.totals(), v, vtrace.totals()

    settled = run()
    monkeypatch.setattr(profile, "_settle_row", lambda *args: None)
    full = run()
    for (d1, o1), (d2, o2) in zip(settled[0], full[0]):
        assert np.array_equal(d1, d2) and np.array_equal(o1, o2)
    for name in ("dist", "offset", "length"):
        assert np.array_equal(getattr(settled[1], name), getattr(full[1], name))
    for name in ("distances", "norm_distances", "lengths", "indices", "populated"):
        assert np.array_equal(getattr(settled[3], name), getattr(full[3], name)), name
    assert settled[2] == full[2] and settled[4] == full[4]
    assert settled[2]["recomputed"] > 0 and settled[4]["recomputed"] > 0
