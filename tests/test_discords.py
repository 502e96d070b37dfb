import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import seriesmine as sm
from seriesmine.discords import (DiscordMatrix, VariableLengthDiscordMatrix,
                                 update_fixed_length_discords, update_variable_length_discords)
from seriesmine.exceptions import InvalidParametersError
from seriesmine.metrics import RunTrace
from seriesmine.oracle import naive_distance_matrix, sorted_match_distances
from seriesmine.synthetic import random_walk


def _spike_series(n=600, at=300, seed=0):
    # repetitive background, so the spike window is the anomaly at any length
    rng = np.random.default_rng(seed)
    values = np.sin(np.arange(n) * (2 * np.pi / 50)) + rng.normal(0, 0.05, n)
    values[at] += 6.0
    return sm.ingest(values), at


def test_insert_first_candidate_fills_last_column_top():
    dkm = DiscordMatrix.empty(3, 2, 16)
    assert update_fixed_length_discords(dkm, np.array([1.0, 2.0]), 50)
    assert dkm.dist[0, 1] == 2.0 and dkm.offset[0, 1] == 50
    assert np.all(dkm.offset[:, 0] == -1)


def test_insert_below_everything_changes_nothing():
    dkm = DiscordMatrix.empty(2, 2, 16)
    for off, vals in [(0, [5.0, 6.0]), (20, [4.0, 5.5]),
                      (40, [3.0, 5.0]), (60, [2.5, 4.8])]:
        update_fixed_length_discords(dkm, np.array(vals), off)
    assert np.all(dkm.offset >= 0)   # full matrix
    before_d, before_o = dkm.dist.copy(), dkm.offset.copy()
    assert not update_fixed_length_discords(dkm, np.array([0.1, 0.2]), 80)
    assert np.array_equal(dkm.dist, before_d) and np.array_equal(dkm.offset, before_o)


def test_insert_policy_replay_on_random_rows():
    # replaying identical insertions must give the identical matrix
    rng = np.random.default_rng(1)
    k = m = 3
    a = DiscordMatrix.empty(k, m, 12)
    b = DiscordMatrix.empty(k, m, 12)
    for off in range(0, 600, 13):
        vals = np.sort(rng.uniform(0.5, 6.0, size=m))
        if not a.has_trivial(off):
            update_fixed_length_discords(a, vals, off)
        if not b.has_trivial(off):
            update_fixed_length_discords(b, vals, off)
    assert np.array_equal(a.dist, b.dist) and np.array_equal(a.offset, b.offset)


def test_has_trivial_equals_linear_scan():
    # inserts (and the drops they cause) in arbitrary offset order, with and
    # without the trivial-match check, so stored owners may also overlap
    rng = np.random.default_rng(5)
    k, m, length = 3, 2, 16
    excl = -(-length // 2)
    dkm = DiscordMatrix.empty(k, m, length)
    for step in range(200):
        off = int(rng.integers(0, 500))
        if step % 2 and dkm.has_trivial(off):
            continue
        update_fixed_length_discords(dkm, np.sort(rng.uniform(0, 10, size=m)), off)
        stored = [int(o) for o in dkm.offset[dkm.offset >= 0]]
        for q in range(0, 520):
            assert dkm.has_trivial(q) == any(abs(q - o) < excl for o in stored), (step, q)


def test_columns_stay_sorted_descending():
    rng = np.random.default_rng(2)
    k = m = 3
    dkm = DiscordMatrix.empty(k, m, 16)
    for off in range(0, 900, 11):
        vals = np.sort(rng.uniform(0, 10, size=m))
        if not dkm.has_trivial(off):
            update_fixed_length_discords(dkm, vals, off)
    for j in range(m):
        col = dkm.dist[:, j]
        assert np.all(np.diff(col) <= 0)


def test_merge_first_length_is_normalized_copy():
    dkm = DiscordMatrix.empty(2, 2, 16)
    update_fixed_length_discords(dkm, np.array([2.0, 3.0]), 10)
    update_fixed_length_discords(dkm, np.array([1.0, 2.5]), 40)
    merged = VariableLengthDiscordMatrix.empty(2, 2)
    update_variable_length_discords(dkm, merged)
    assert np.allclose(merged.dist, dkm.dist / 4.0)
    assert np.array_equal(merged.offset, dkm.offset)
    assert np.all(merged.length[merged.offset >= 0] == 16)


def test_merge_tie_keeps_later_length():
    merged = VariableLengthDiscordMatrix.empty(1, 1)
    d16 = DiscordMatrix.empty(1, 1, 16)
    update_fixed_length_discords(d16, np.array([4.0]), 10)
    d25 = DiscordMatrix.empty(1, 1, 25)
    update_fixed_length_discords(d25, np.array([5.0]), 77)   # 5/sqrt(25) == 4/sqrt(16)
    update_variable_length_discords(d16, merged)
    update_variable_length_discords(d25, merged)
    assert merged.length[0, 0] == 25 and merged.offset[0, 0] == 77


def test_merge_equals_per_cell_max_over_lengths():
    rng = np.random.default_rng(3)
    k = m = 2
    merged = VariableLengthDiscordMatrix.empty(k, m)
    cells = []
    for length in (16, 20, 24):
        dkm = DiscordMatrix.empty(k, m, length)
        for off in range(0, 500, 37):
            vals = np.sort(rng.uniform(1, 9, size=m))
            if not dkm.has_trivial(off):
                update_fixed_length_discords(dkm, vals, off)
        cells.append(dkm.dist / np.sqrt(length))
        update_variable_length_discords(dkm, merged)
    assert np.allclose(merged.dist, np.maximum.reduce(cells))


def test_degenerate_single_length_equals_profile_argmax():
    # k=m=1 at a single length: the profile argmax under the ascending
    # trivial-match policy, here replayed on the brute-force profile
    t = sm.ingest(random_walk(500, seed=4))
    scan = sm.topkm_discord_discovery(t, 24, 24, 1, 1, 5)
    dists = naive_distance_matrix(t, 24)
    replay = DiscordMatrix.empty(1, 1, 24)
    for i in range(dists.shape[0]):
        if replay.has_trivial(i):
            continue
        d = sorted_match_distances(dists[i], 1)
        if np.isfinite(d[0]):
            update_fixed_length_discords(replay, d, i)
    assert int(scan.merged.offset[0, 0]) == int(replay.offset[0, 0])
    assert float(scan.per_length[24].dist[0, 0]) == \
        pytest.approx(float(replay.dist[0, 0]), abs=1e-7)


def test_spike_tops_ranking_at_every_length():
    t, at = _spike_series()
    scan = sm.topkm_discord_discovery(t, 16, 32, 1, 1, 5)
    for length, dkm in scan.per_length.items():
        off = int(dkm.offset[0, 0])
        assert off <= at <= off + length - 1, length
    off, length = int(scan.merged.offset[0, 0]), int(scan.merged.length[0, 0])
    assert off <= at <= off + length - 1


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k,m", [(1, 1), (3, 3)])
def test_equals_oracle_on_random_series(seed, k, m):
    t = sm.ingest(random_walk(600, seed=10 + seed))
    scan = sm.topkm_discord_discovery(t, 16, 40, k, m, max(m, 5))
    per_o, merged_o = sm.brute_force_discords(t, 16, 40, k, m)
    for length in range(16, 41):
        e, o = scan.per_length[length], per_o[length]
        assert np.array_equal(e.offset, o.offset), length
        fe = np.isfinite(e.dist)
        assert np.array_equal(fe, np.isfinite(o.dist))
        assert np.allclose(e.dist[fe], o.dist[fe], atol=1e-7)
    assert np.array_equal(scan.merged.offset, merged_o.offset)
    assert np.array_equal(scan.merged.length, merged_o.length)
    assert np.allclose(scan.merged.dist, merged_o.dist, atol=1e-7)


def test_size_tier_w4_per_length_equals_oracle():
    # the ROADMAP W4 size (n=3000, L 32-64, k=m=3, p=10); the oracle builds
    # full distance matrices, so three of the lengths are checked
    t = sm.ingest(random_walk(3000, seed=2))
    scan = sm.topkm_discord_discovery(t, 32, 64, 3, 3, 10)
    for length in (32, 48, 64):
        o = sm.brute_force_discords(t, length, length, 3, 3)[0][length]
        e = scan.per_length[length]
        assert np.array_equal(e.offset, o.offset), length
        assert np.all(np.isfinite(o.dist))
        assert np.allclose(e.dist, o.dist, rtol=0, atol=1e-7), length


@pytest.mark.parametrize("seed", range(8))
def test_flat_shelf_equals_oracle(seed):
    # windows inside the shelf are exactly constant and never candidates
    values = random_walk(300, seed=seed)
    values[100:160] = values[100]
    t = sm.ingest(values)
    scan = sm.topkm_discord_discovery(t, 8, 24, 3, 3, 5)
    per_o, merged_o = sm.brute_force_discords(t, 8, 24, 3, 3)
    for length in range(8, 25):
        e, o = scan.per_length[length], per_o[length]
        assert np.array_equal(e.offset, o.offset), length
        fe = np.isfinite(e.dist)
        assert np.array_equal(fe, np.isfinite(o.dist))
        assert np.allclose(e.dist[fe], o.dist[fe], atol=1e-7)
    assert np.array_equal(scan.merged.offset, merged_o.offset)
    assert np.array_equal(scan.merged.length, merged_o.length)
    assert np.allclose(scan.merged.dist, merged_o.dist, atol=1e-7)


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), shelf=st.booleans(), spike=st.booleans(),
       k=st.integers(1, 3), m=st.integers(1, 3))
def test_matrices_bit_identical_for_every_capacity(seed, shelf, spike, k, m):
    values = random_walk(240, seed=seed)
    if shelf:
        values[60:100] = values[60]
    if spike:
        values[170] += 8.0
    t = sm.ingest(values)
    base = sm.topkm_discord_discovery(t, 8, 16, k, m, m)
    for p in range(m + 1, 4 * m + 1):
        scan = sm.topkm_discord_discovery(t, 8, 16, k, m, p)
        for length, dkm in base.per_length.items():
            assert np.array_equal(dkm.dist, scan.per_length[length].dist), (p, length)
            assert np.array_equal(dkm.offset, scan.per_length[length].offset), (p, length)
        assert np.array_equal(base.merged.dist, scan.merged.dist), p
        assert np.array_equal(base.merged.offset, scan.merged.offset), p
        assert np.array_equal(base.merged.length, scan.merged.length), p


def test_capacity_does_not_change_matrices():
    t = sm.ingest(random_walk(600, seed=20))
    m = 3
    a = sm.topkm_discord_discovery(t, 16, 32, 3, m, m)        # minimum capacity
    b = sm.topkm_discord_discovery(t, 16, 32, 3, m, 4 * m)
    for length in range(16, 33):
        assert np.array_equal(a.per_length[length].offset, b.per_length[length].offset)
        fa = np.isfinite(a.per_length[length].dist)
        assert np.allclose(a.per_length[length].dist[fa],
                           b.per_length[length].dist[fa], atol=1e-9)
    assert np.array_equal(a.merged.offset, b.merged.offset)


def test_no_trivial_matches_within_matrix():
    t = sm.ingest(random_walk(800, seed=21))
    scan = sm.topkm_discord_discovery(t, 16, 32, 3, 3, 5)
    for length, dkm in scan.per_length.items():
        offs = dkm.offset[dkm.offset >= 0]
        excl = -(-length // 2)
        for a in range(len(offs)):
            for b in range(a + 1, len(offs)):
                assert abs(int(offs[a]) - int(offs[b])) >= excl


def test_smooth_series_prunes_everything():
    from seriesmine.synthetic import smooth_walk
    t = sm.ingest(smooth_walk(900, seed=22))
    trace = RunTrace()
    sm.topkm_discord_discovery(t, 16, 28, 1, 1, 8, trace=trace)
    recomputed = sum(r.n_recomputed for r in trace.records)
    considered = sum(r.n_valid + r.n_nonvalid for r in trace.records)
    assert recomputed < 0.05 * considered


def test_first_length_recomputes_uncertified_owners(monkeypatch):
    # with p = m, many owners at the shortest length hold stored entries that
    # do not pin down their m-th match; the replay recomputes the ones that
    # could enter the matrix, and RunTrace counts exactly those rows
    import seriesmine.discords as discords

    calls = []
    row_profile = discords.row_profile

    def counted_row_profile(*args, **kwargs):
        calls.append(args[2])    # the row's length
        return row_profile(*args, **kwargs)

    monkeypatch.setattr(discords, "row_profile", counted_row_profile)
    t = sm.ingest(random_walk(600, seed=10))
    trace = RunTrace()
    scan = sm.topkm_discord_discovery(t, 16, 24, 3, 3, 3, trace=trace)
    first = trace.records[0]
    assert first.length == 16 and first.n_nonvalid > 0 and first.n_recomputed > 0
    assert calls.count(16) == first.n_recomputed
    assert sum(r.n_recomputed for r in trace.records) == len(calls)
    per_o, _ = sm.brute_force_discords(t, 16, 16, 3, 3)
    e, o = scan.per_length[16], per_o[16]
    assert np.array_equal(e.offset, o.offset)
    assert np.allclose(e.dist, o.dist, atol=1e-7)


def test_capacity_below_m_rejected():
    t = sm.ingest(random_walk(300, seed=23))
    with pytest.raises(InvalidParametersError) as exc:
        sm.topkm_discord_discovery(t, 16, 24, 1, 3, 2)
    assert "p" in str(exc.value) and "m" in str(exc.value)


def test_replay_calls_insert_only_for_offers_that_change_the_matrix(monkeypatch):
    # the replay hands an offer to the insert only when it beats the bottom
    # row in some column, which is the insert's own condition while columns
    # stay sorted: every call lands, fewer calls than offers are made, and
    # the matrices are the oracle's
    import seriesmine.discords as discords

    landed, n_pairs = [], [0]
    insert, pair_distance = discords.update_fixed_length_discords, discords.pair_distance

    def counted_pair_distance(*args):
        n_pairs[0] += 1
        return pair_distance(*args)

    def recorded_insert(*args):
        landed.append(insert(*args))
        return landed[-1]

    monkeypatch.setattr(discords, "pair_distance", counted_pair_distance)
    monkeypatch.setattr(discords, "update_fixed_length_discords", recorded_insert)
    t = sm.ingest(random_walk(500, seed=12))
    k = m = 3
    scan = sm.topkm_discord_discovery(t, 16, 20, k, m, 6)
    assert landed and all(landed)
    assert len(landed) < n_pairs[0] // m
    per_o, _ = sm.brute_force_discords(t, 16, 20, k, m)
    for length, dkm in scan.per_length.items():
        assert np.array_equal(dkm.offset, per_o[length].offset), length
