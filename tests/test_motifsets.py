import numpy as np
import pytest

import seriesmine as sm
from seriesmine import policy
from seriesmine.motifsets import PairRanking
from seriesmine.oracle import naive_distance_matrix
from seriesmine.synthetic import planted_cluster_series, planted_pair_series, random_walk


def test_ranking_capacity_one_keeps_top_pair():
    t = sm.ingest(planted_pair_series(600, 64, offsets=(100, 400), seed=3))
    ranking = PairRanking(1)
    v = sm.valmod(t, 32, 64, 5, ranking=ranking)
    assert len(ranking) == 1
    pair = next(iter(ranking))
    top = sm.top_variable_length_motif(v)
    assert (pair.off1, pair.off2) == (min(top[0], top[1]), max(top[0], top[1]))
    assert pair.norm_distance == pytest.approx(top[4], abs=1e-12)


def test_ranking_dedups_mirrored_pairs():
    ranking = PairRanking(8)
    assert ranking.push(10, 50, 1.0, 16, 0.25)
    assert not ranking.push(50, 10, 1.0, 16, 0.25)   # mirrored duplicate
    assert ranking.push(50, 10, 0.8, 16, 0.20)       # improvement replaces
    assert len(ranking) == 1
    assert next(iter(ranking)).norm_distance == 0.20


def test_ranking_eviction_drops_worst_pair():
    ranking = PairRanking(2)
    ranking.push(1, 20, 1.0, 8, 0.10)
    ranking.push(2, 30, 2.0, 8, 0.20)
    assert ranking.push(3, 40, 1.5, 8, 0.15)
    assert (2, 30) not in ranking
    assert len(ranking) == 2


def test_topk_matches_oracle_over_two_lengths():
    # degenerate capacity so no pruning ever skips an improvement event
    t = sm.ingest(random_walk(260, seed=1))
    ranking = PairRanking(40)
    sm.valmod(t, 16, 17, t.n, ranking=ranking)

    # oracle: replay the same improvement-event stream on brute-force rows
    om = sm.brute_force_motifs(t, 16, 17)
    expected = PairRanking(40)
    norm = np.full(t.n - 16 + 1, np.inf)
    for length in (16, 17):
        mp, ip = om.profiles[length]
        lnorm = mp * np.sqrt(1.0 / length)
        for i in range(mp.shape[0]):
            if np.isfinite(lnorm[i]) and lnorm[i] < norm[i]:
                norm[i] = lnorm[i]
                expected.push(i, int(ip[i]), float(mp[i]), length, float(lnorm[i]))
    got = [(p.off1, p.off2, p.length) for p in ranking]
    want = [(p.off1, p.off2, p.length) for p in expected]
    assert got == want
    assert np.allclose([p.norm_distance for p in ranking],
                       [p.norm_distance for p in expected], atol=1e-7)


def test_sets_collapse_to_anchor_pairs_for_tiny_radius():
    t = sm.ingest(random_walk(500, seed=2))
    ranking = PairRanking(5)
    sm.valmod(t, 16, 24, 5, ranking=ranking)
    sets = sm.compute_var_length_motif_sets(t, ranking, radius_factor=1e-9)
    for s in sets:
        assert s.frequency == 2
        assert tuple(s.members) == s.anchor


def test_planted_cluster_top_set_matches_range_query():
    offsets = (200, 500, 800, 1100, 1400)
    t = sm.ingest(planted_cluster_series(1800, 48, offsets, jitter=0.02, seed=0))
    ranking = PairRanking(10)
    sm.valmod(t, 32, 48, 8, ranking=ranking)
    sets = sm.compute_var_length_motif_sets(t, ranking, radius_factor=4.0)
    top = sets[0]
    assert top.frequency == 5
    dists = naive_distance_matrix(t, top.length)
    a, b = top.anchor
    in_range = set(np.flatnonzero((dists[a] < top.radius) |
                                  (dists[b] < top.radius)).tolist()) | {a, b}
    assert set(map(int, top.members)) == in_range
    assert sm.validate_disjoint(sets)


def test_later_sets_exclude_consumed_members():
    offsets = (200, 500, 800, 1100, 1400)
    t = sm.ingest(planted_cluster_series(1800, 48, offsets, jitter=0.02, seed=0))
    ranking = PairRanking(40)
    sm.valmod(t, 32, 48, 8, ranking=ranking)
    sets = sm.compute_var_length_motif_sets(t, ranking, radius_factor=4.0)
    seen = set()
    for s in sets:
        assert not (seen & set(map(int, s.members)))
        seen |= set(map(int, s.members))
    assert sm.validate_disjoint(sets)


def test_frequency_monotone_in_radius_factor():
    offsets = (200, 500, 800, 1100, 1400)
    t = sm.ingest(planted_cluster_series(1800, 48, offsets, jitter=0.02, seed=2))
    members = {}
    for factor in (1.0, 2.0, 4.0, 8.0):
        ranking = PairRanking(1)
        sm.valmod(t, 32, 48, 8, ranking=ranking)
        sets = sm.compute_var_length_motif_sets(t, ranking, radius_factor=factor)
        members[factor] = set(map(int, sets[0].members))
    assert members[1.0] <= members[2.0] <= members[4.0] <= members[8.0]


def test_min_frequency_post_filter():
    t = sm.ingest(random_walk(500, seed=3))
    ranking = PairRanking(5)
    sm.valmod(t, 16, 24, 5, ranking=ranking)
    all_sets = sm.compute_var_length_motif_sets(t, ranking, 1e-9)
    filtered = sm.compute_var_length_motif_sets(t, ranking, 1e-9, min_frequency=3)
    assert len(all_sets) > 0 and filtered == []


def _oracle_sets(t, ranking, radius_factor):
    """Replay the admission rule on brute-force distance rows: ascending
    offsets within r of either anchor, skipping consumed offsets and any
    overlap with an admitted member."""
    rows = {}
    for length in {pair.length for pair in ranking}:
        dists = naive_distance_matrix(t, length)
        for pair in ranking:
            if pair.length == length:
                rows[pair.off1, length] = dists[pair.off1]
                rows[pair.off2, length] = dists[pair.off2]
    consumed = set()
    sets = []
    for pair in ranking:
        a, b, length = pair.off1, pair.off2, pair.length
        if a in consumed or b in consumed:
            continue
        r = pair.distance * radius_factor
        excl = policy.exclusion_zone(length)
        admitted = [a, b]
        for c in np.flatnonzero((rows[a, length] < r) | (rows[b, length] < r)):
            c = int(c)
            if c not in consumed and all(abs(c - x) >= excl for x in admitted):
                admitted.append(c)
        sets.append(((a, b), length, sorted(admitted)))
        consumed.update(admitted)
    return sets


@pytest.mark.parametrize("values, lmin, lmax, p, top_k, radius_factor", [
    (planted_cluster_series(1800, 48, (200, 500, 800, 1100, 1400), jitter=0.02, seed=0),
     32, 48, 8, 40, 4.0),
    (planted_cluster_series(500, 32, (60, 200, 340), jitter=0.03, seed=4),
     16, 32, 10, 5, 2.0),
    (random_walk(800, seed=1), 32, 64, 10, 40, 4.0),
    (random_walk(600, seed=3), 16, 40, 50, 20, 1.0),
], ids=["cluster-1800", "cluster-500", "walk-800", "walk-600"])
def test_every_motif_set_equals_oracle(values, lmin, lmax, p, top_k, radius_factor):
    t = sm.ingest(values)
    ranking = PairRanking(top_k)
    sm.valmod(t, lmin, lmax, p, ranking=ranking)
    sets = sm.compute_var_length_motif_sets(t, ranking, radius_factor)
    got = [(s.anchor, s.length, s.members.tolist()) for s in sets]
    assert got == _oracle_sets(t, ranking, radius_factor)
