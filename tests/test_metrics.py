import numpy as np

import seriesmine as sm
from seriesmine.metrics import RunTrace
from seriesmine.synthetic import random_walk, smooth_walk

from kernel_rows import full_rows


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
        _, _, f_row = full_rows(t, i, length)
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
    tot = trace.totals()
    assert list(tot) == ["profiles", "valid", "nonvalid", "recomputed", "recomputed_fraction"]
    assert tot["recomputed"] <= tot["nonvalid"]
    assert tot["profiles"] == sum(r.n_profiles for r in trace.records)
    for row in trace.records:
        assert row.n_recomputed <= max(row.n_nonvalid, 0) or row.full_recompute


def test_all_valid_run_reports_zero_recomputed():
    t = sm.ingest(smooth_walk(800, seed=2))
    trace = RunTrace()
    sm.valmod(t, 32, 40, 10, trace=trace)
    tot = trace.totals()
    if tot["nonvalid"] == 0:
        assert tot["recomputed"] == 0
        assert tot["recomputed_fraction"] == 0.0
    assert 0.0 <= tot["recomputed_fraction"] <= 1.0
