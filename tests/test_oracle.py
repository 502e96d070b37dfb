"""The oracle's explicit-difference distance matrix against scipy's ``cdist``
of explicitly z-normalized windows, under the same exclusion and
constant-window masking."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial.distance import cdist

import seriesmine as sm
from seriesmine import policy
from seriesmine.oracle import naive_distance_matrix
from seriesmine.synthetic import random_walk


def _cdist_reference(series, length):
    windows = sliding_window_view(series.values, length)
    sd = windows.std(axis=1)
    valid = sd >= series.sigma_floor
    z = (windows - windows.mean(axis=1, keepdims=True)) / np.where(valid, sd, 1.0)[:, None]
    ref = cdist(z, z, metric="euclidean")
    offs = np.arange(z.shape[0])
    ref[np.abs(offs[:, None] - offs[None, :]) < policy.exclusion_zone(length)] = np.inf
    ref[~valid, :] = np.inf
    ref[:, ~valid] = np.inf
    return ref, valid


def _shelf_walk():
    v = random_walk(300, seed=6)
    v[100:140] = v[99]
    return v


@pytest.mark.parametrize("values, length, any_constant, all_trivial", [
    (random_walk(400, seed=4), 24, False, False),
    (_shelf_walk(), 16, True, False),
    (random_walk(20, seed=5), 16, False, True),    # 5 offsets, exclusion zone 8
])
def test_distance_matrix_matches_cdist(values, length, any_constant, all_trivial):
    t = sm.ingest(values)
    got = naive_distance_matrix(t, length)
    ref, valid = _cdist_reference(t, length)
    assert (not valid.all()) is any_constant
    assert bool(np.isinf(got).all()) is all_trivial
    assert np.array_equal(np.isinf(got), np.isinf(ref))
    finite = np.isfinite(ref)
    assert np.max(np.abs(got[finite] - ref[finite]), initial=0.0) <= 1e-12
