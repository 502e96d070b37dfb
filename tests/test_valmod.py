import importlib

import numpy as np
import pytest

import seriesmine as sm
from seriesmine.exceptions import InvalidParametersError, SeriesTooShortError, UnpopulatedError
from seriesmine.metrics import RunTrace
from seriesmine.profile import compute_matrix_profile
from seriesmine.synthetic import planted_motif_benchmark, planted_pair_series, random_walk
from seriesmine.valmod import VALMP, certify_step, compute_sub_mp, update_valmp


def test_single_length_equals_normalized_profile():
    t = sm.ingest(random_walk(400, seed=0))
    length = 16
    v = sm.valmod(t, length, length, 5)
    res = compute_matrix_profile(t, length, 5)
    assert np.allclose(v.distances, res.profile.mp, atol=1e-12)
    assert np.allclose(v.norm_distances, res.profile.mp * np.sqrt(1 / length), atol=1e-12)
    assert np.array_equal(v.indices, res.profile.ip)
    assert np.all(v.lengths == length)


def test_planted_pair_top_motif_every_length():
    # seed chosen so the planted pair is the strict winner at every length,
    # which the oracle run below re-certifies
    t = sm.ingest(planted_pair_series(600, 64, offsets=(100, 400), jitter=0.02, seed=3))
    om = sm.brute_force_motifs(t, 32, 64)
    assert all(p == (100, 400) for p in om.motif_pairs)
    trace = RunTrace()
    v = sm.valmod(t, 32, 64, 5, trace=trace)
    for rec, d_o in zip(trace.records, om.motif_distances):
        assert rec.motif[:2] == (100, 400)
        assert rec.motif[2] == pytest.approx(d_o, abs=1e-7)
    top = sm.top_variable_length_motif(v)
    assert {top[0], top[1]} == {100, 400}
    assert np.array_equal(v.lengths, om.valmp_length)


def test_certification_decision_quoted_values():
    # the worked decision: a profile with min 2.34 under its bound 3.18 is
    # certified; one with min 24.07 over its bound 20.69 is not; the global
    # certificate holds because 2.34 < 20.69
    min_dists = np.array([2.34, 24.07])
    thresholds = np.array([3.18, 20.69])
    valid, min_dist_abs, min_lb_abs, certified = certify_step(min_dists, thresholds)
    assert valid.tolist() == [True, False]
    assert min_dist_abs == 2.34
    assert min_lb_abs == 20.69
    assert certified


def test_certification_no_nonvalid_is_vacuous():
    valid, _, min_lb_abs, certified = certify_step(
        np.array([1.0, 2.0]), np.array([5.0, 5.0]))
    assert valid.all() and min_lb_abs == np.inf and certified


def test_update_valmp_populates_and_keeps_ties():
    v = VALMP(4)
    mp = np.array([4.0, 2.0, 8.0, 1.0])
    ip = np.array([2, 3, 0, 1])
    update_valmp(v, mp, ip, 4, 16)
    assert v.populated.all()
    assert np.allclose(v.norm_distances, mp / 4.0)
    # identical normalized values at a longer length do not displace
    update_valmp(v, mp * np.sqrt(25 / 16), ip[::-1].copy(), 4, 25)
    assert np.all(v.lengths == 16)
    assert np.array_equal(v.indices, ip)
    # a strict improvement does
    better = mp * np.sqrt(25 / 16) * 0.5
    update_valmp(v, better, ip[::-1].copy(), 4, 25)
    assert np.all(v.lengths == 25)


def test_compute_sub_mp_all_valid_case():
    # planted strong pair on a smooth series: stored entries certify every row
    t = sm.ingest(planted_pair_series(500, 48, offsets=(60, 300), jitter=0.01, seed=3))
    res = compute_matrix_profile(t, 24, 8)
    sub = compute_sub_mp(t, t.n - 25 + 1, res.partials, 25, 8)
    assert sub.b_best_m
    assert sub.n_recomputed == 0
    from seriesmine.oracle import naive_profile
    mp_o, _ = naive_profile(t, 25)
    written = ~np.isnan(sub.values)
    assert np.allclose(sub.values[written], mp_o[written], atol=1e-7)


def test_compute_sub_mp_recomputed_rows_match_oracle():
    from seriesmine.oracle import naive_profile
    t = sm.ingest(random_walk(500, seed=4))
    res = compute_matrix_profile(t, 16, 2)
    partials = res.partials
    for length in range(17, 33):
        sub = compute_sub_mp(t, t.n - length + 1, partials, length, 2)
        mp_o, _ = naive_profile(t, length)
        written = ~np.isnan(sub.values)
        assert np.allclose(sub.values[written], mp_o[written], atol=1e-7), length
        if not sub.b_best_m:
            res = compute_matrix_profile(t, length, 2)
            partials = res.partials


def test_valid_rows_always_match_oracle_rows():
    # certification soundness, exhaustively per length on a small series
    from seriesmine.oracle import naive_profile
    t = sm.ingest(random_walk(300, seed=5))
    res = compute_matrix_profile(t, 12, 3)
    partials = res.partials
    for length in range(13, 41):
        sub = compute_sub_mp(t, t.n - length + 1, partials, length, 3)
        mp_o, _ = naive_profile(t, length)
        written = np.flatnonzero(~np.isnan(sub.values))
        for i in written:
            assert sub.values[i] == pytest.approx(mp_o[i], abs=1e-7), (length, i)
        if not sub.b_best_m:
            res = compute_matrix_profile(t, length, 3)
            partials = res.partials


def test_fallback_control_flow_with_unit_capacity():
    # p=1 disables targeted recomputation (break-even bound is zero), so any
    # uncertified step must report b_best_m False and leave floors behind
    t = sm.ingest(random_walk(400, seed=6))
    res = compute_matrix_profile(t, 16, 1)
    saw_fallback = False
    partials = res.partials
    for length in range(17, 40):
        sub = compute_sub_mp(t, t.n - length + 1, partials, length, 1)
        if not sub.b_best_m:
            saw_fallback = True
            assert sub.n_recomputed == 0
            assert len(sub.floors) == sub.n_nonvalid
            break
    assert saw_fallback


@pytest.mark.parametrize("seed,kind", [(0, "walk"), (1, "walk"), (3, "planted")])
def test_end_to_end_exactness(seed, kind):
    if kind == "walk":
        t = sm.ingest(random_walk(700, seed=seed))
    else:
        t = sm.ingest(planted_pair_series(700, 64, offsets=(80, 500), seed=seed))
    om = sm.brute_force_motifs(t, 8, 40)
    for p in (2, 5, 10):
        trace = RunTrace()
        v = sm.valmod(t, 8, 40, p, trace=trace)
        for rec, pair_o, d_o in zip(trace.records, om.motif_pairs, om.motif_distances):
            assert rec.motif[:2] == pair_o, (p, rec.length)
            assert rec.motif[2] == pytest.approx(d_o, abs=1e-7)
        norm = np.where(v.populated, v.norm_distances, np.inf)
        assert np.allclose(norm, om.valmp_norm, atol=1e-7)
        assert np.array_equal(v.indices, om.valmp_index)
        assert np.array_equal(v.lengths, om.valmp_length)


def test_lengths_beyond_half_the_series_equal_oracle():
    # lmax + ceil(lmax/2) fits n=100, but every length above 50 exceeds n/2,
    # where rescans used to be refused
    for seed in range(40):
        t = sm.ingest(random_walk(100, seed=seed))
        om = sm.brute_force_motifs(t, 20, 60)
        for p in (1, 3, 10):
            v = sm.valmod(t, 20, 60, p)
            norm = np.where(v.populated, v.norm_distances, np.inf)
            assert np.allclose(norm, om.valmp_norm, atol=1e-7), (seed, p)
            assert np.array_equal(v.indices, om.valmp_index), (seed, p)
            assert np.array_equal(v.lengths, om.valmp_length), (seed, p)


@pytest.mark.parametrize("seed", range(8))
def test_flat_shelf_equals_oracle(seed):
    values = random_walk(300, seed=seed)
    values[100:160] = values[100]
    t = sm.ingest(values)
    om = sm.brute_force_motifs(t, 8, 24)
    v = sm.valmod(t, 8, 24, 5)
    norm = np.where(v.populated, v.norm_distances, np.inf)
    assert np.allclose(norm, om.valmp_norm, atol=1e-7)
    assert np.array_equal(v.indices, om.valmp_index)
    assert np.array_equal(v.lengths, om.valmp_length)


def test_cost_reseed_bounds_repair_rows(monkeypatch):
    # the module, not the function that the package binds under the same name
    module = importlib.import_module("seriesmine.valmod")
    calls = 0
    original = module.row_profile

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "row_profile", counted)
    t = sm.ingest(planted_motif_benchmark(800, 64, seed=1))
    trace = RunTrace()
    v = sm.valmod(t, 32, 64, 10, trace=trace)
    # without the cost rule this input takes 7,622 single-row rescans
    assert calls <= 2000
    assert any(r.reseed == "cost" for r in trace.records)
    assert all(r.full_recompute == (r.reseed is not None) for r in trace.records)
    om = sm.brute_force_motifs(t, 32, 64)
    assert np.array_equal(v.lengths, om.valmp_length)
    assert np.array_equal(v.indices, om.valmp_index)
    assert np.allclose(v.distances, om.valmp_dist, atol=1e-7)


def test_partial_recompute_branch_equals_oracle(monkeypatch):
    # lengths 41, 52 and 53 of this input recompute a few non-valid rows one
    # by one instead of re-seeding
    module = importlib.import_module("seriesmine.valmod")
    recomputed = {}
    original = module.compute_sub_mp

    def recorded(series, n_dp, list_dp, new_length, p):
        sub = original(series, n_dp, list_dp, new_length, p)
        recomputed[new_length] = sub.n_recomputed
        return sub

    monkeypatch.setattr(module, "compute_sub_mp", recorded)
    t = sm.ingest(random_walk(800, seed=1))
    trace = RunTrace()
    v = sm.valmod(t, 32, 64, 50, trace=trace)
    assert any(recomputed[r.length] > 0 for r in trace.records[1:] if r.reseed is None)
    om = sm.brute_force_motifs(t, 32, 64)
    assert np.array_equal(v.lengths, om.valmp_length)
    assert np.array_equal(v.indices, om.valmp_index)
    assert np.allclose(v.distances, om.valmp_dist, atol=1e-7)
    for rec, pair, d_o in zip(trace.records, om.motif_pairs, om.motif_distances):
        assert rec.motif[:2] == pair
        assert rec.motif[2] == pytest.approx(d_o, abs=1e-7)


def test_capacity_never_changes_output():
    t = sm.ingest(random_walk(600, seed=7))
    results = [sm.valmod(t, 12, 36, p) for p in (2, 5, 10)]
    base = results[0]
    for v in results[1:]:
        assert np.array_equal(base.lengths, v.lengths)
        assert np.array_equal(base.indices, v.indices)
        # values may flow through different certified paths; identical to 1e-9
        assert np.allclose(base.norm_distances, v.norm_distances, atol=1e-9)


def test_top_motif_tie_breaks_to_smaller_offset():
    v = VALMP(5)
    update_valmp(v, np.array([2.0, 1.0, 3.0, 1.0, 9.0]),
                 np.array([3, 3, 0, 1, 0]), 5, 16)
    off, nbr, length, dist, norm = sm.top_variable_length_motif(v)
    assert (off, nbr, length) == (1, 3, 16)
    assert dist == 1.0 and norm == 0.25


def test_top_motif_unpopulated():
    with pytest.raises(UnpopulatedError):
        sm.top_variable_length_motif(VALMP(4))


def test_top_motif_pure_noise_equals_oracle():
    t = sm.ingest(np.random.default_rng(8).standard_normal(400))
    om = sm.brute_force_motifs(t, 8, 24)
    v = sm.valmod(t, 8, 24, 5)
    off, nbr, length, dist, norm = sm.top_variable_length_motif(v)
    i = int(np.argmin(om.valmp_norm))
    assert off == i and norm == pytest.approx(om.valmp_norm[i], abs=1e-9)


def test_range_validation():
    t = sm.ingest(random_walk(100, seed=9))
    with pytest.raises(InvalidParametersError):
        sm.valmod(t, 32, 16, 5)
    with pytest.raises(SeriesTooShortError):
        sm.valmod(t, 16, 80, 5)
    with pytest.raises(InvalidParametersError):
        sm.valmod(t, 8, 16, 0)
