"""Synthetic series generators used by the tests, demos, and benchmarks."""

from __future__ import annotations

import numpy as np


def random_walk(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal(n))


def smooth_walk(n: int, seed: int = 0, window: int = 8) -> np.ndarray:
    """Random walk with short-range smoothing; bounds stay tight on it."""
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal(n + window)
    kernel = np.ones(window) / window
    return np.cumsum(np.convolve(steps, kernel, mode="valid")[:n])


def planted_pair_series(n: int, pattern_length: int, offsets=(100, 400),
                        jitter: float = 0.02, seed: int = 0) -> np.ndarray:
    """Random-walk background with one pattern planted at two offsets.

    The second copy carries a deterministic ramped perturbation: the pair's
    distance is strictly positive at every window length, and any shifted
    window pair inside the pattern picks up strictly more perturbation, so
    the planted offsets win without ties.
    """
    rng = np.random.default_rng(seed * 7919 + 1)
    t = random_walk(n, seed=seed)
    pattern = np.cumsum(rng.standard_normal(pattern_length))
    pattern = (pattern - pattern.mean()) / (pattern.std() + 1e-12)
    ramp = np.linspace(0.1, 3.0, pattern_length)
    signs = np.where(np.arange(pattern_length) % 2 == 0, 1.0, -1.0)
    a, b = offsets
    t[a:a + pattern_length] = pattern * 3.0
    t[b:b + pattern_length] = pattern * 3.0 + jitter * ramp * signs
    return t


def planted_cluster_series(n: int, pattern_length: int, offsets,
                           jitter: float = 0.02, seed: int = 0) -> np.ndarray:
    """Random-walk background with several jittered copies of one pattern."""
    rng = np.random.default_rng(seed * 7919 + 1)
    t = random_walk(n, seed=seed)
    pattern = np.cumsum(rng.standard_normal(pattern_length))
    pattern = (pattern - pattern.mean()) / (pattern.std() + 1e-12)
    for off in offsets:
        noise = rng.standard_normal(pattern_length) * jitter
        t[off:off + pattern_length] = pattern * 3.0 + noise
    return t


def planted_motif_benchmark(n: int, pattern_length: int, seed: int = 0) -> np.ndarray:
    """Large smooth series with one strong planted pair, for timing runs."""
    t = smooth_walk(n, seed=seed, window=16)
    t = t / (t.std() + 1e-12)
    rng = np.random.default_rng(seed * 7919 + 5)
    pattern = np.cumsum(rng.standard_normal(pattern_length))
    pattern = (pattern - pattern.mean()) / (pattern.std() + 1e-12)
    a, b = n // 4, 3 * n // 4
    ramp = np.linspace(0.5, 1.5, pattern_length)
    signs = np.where(np.arange(pattern_length) % 2 == 0, 1.0, -1.0)
    t[a:a + pattern_length] = pattern * 4.0
    t[b:b + pattern_length] = pattern * 4.0 + 0.01 * ramp * signs
    return t

