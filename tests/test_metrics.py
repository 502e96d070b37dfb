import numpy as np

import seriesmine as sm
from seriesmine.metrics import RunTrace, pruning_report
from seriesmine.synthetic import random_walk, smooth_walk


def test_mean_tlb_over_profile_in_unit_interval():
    rng = np.random.default_rng(0)
    t = sm.ingest(np.cumsum(rng.standard_normal(300)))
    length = 16
    sd_l, sd_next = t.moving_stats(length)[1], t.moving_stats(length + 1)[1]
    ratios = []
    for _ in range(100):
        i, j = (int(v) for v in rng.integers(0, t.n - 2 * length, size=2))
        if abs(i - j) < 8:
            continue
        _, f_row, _ = sm.row_profile(t, i, length, want_f=True)
        lb = f_row[j] * sd_l[i] / sd_next[i]      # the owner is the anchor
        a = t.window(i, length + 1)
        b = t.window(j, length + 1)
        za = (a - a.mean()) / a.std()
        zb = (b - b.mean()) / b.std()
        true = float(np.sqrt(((za - zb) ** 2).sum()))
        assert lb <= true + 1e-9                  # the bound is sound
        ratios.append(lb / true)
    mean = float(np.mean(ratios))
    assert 0.0 < mean <= 1.0


def test_pruning_accounting_identities():
    t = sm.ingest(random_walk(600, seed=1))
    trace = RunTrace()
    sm.valmod(t, 16, 40, 5, trace=trace)
    rep = pruning_report(trace)
    assert rep.n_valid + rep.n_nonvalid == rep.considered
    assert rep.n_recomputed <= rep.n_nonvalid
    assert rep.n_profiles == sum(r.n_profiles for r in rep.rows)
    for row in rep.rows:
        assert row.n_recomputed <= max(row.n_nonvalid, 0) or row.full_recompute


def test_all_valid_run_reports_zero_recomputed():
    t = sm.ingest(smooth_walk(800, seed=2))
    trace = RunTrace()
    sm.valmod(t, 32, 40, 10, trace=trace)
    rep = pruning_report(trace)
    if rep.n_nonvalid == 0:
        assert rep.n_recomputed == 0
        assert rep.recomputed_fraction == 0.0
    assert 0.0 <= rep.recomputed_fraction <= 1.0
