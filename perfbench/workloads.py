"""Workload definitions and seeded input generation.

The generators reproduce ``seriesmine.synthetic.random_walk`` and
``planted_motif_benchmark`` line for line, but live here so that a change to
the program cannot silently change the benchmark's inputs. Input ``j`` of a
run with seed ``s`` uses generator seed ``s + j * INPUT_SEED_STRIDE``, so
input 0 of the default seed uses the generator seed of the ROADMAP baseline
table, at this benchmark's smaller size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INPUT_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # `mine` subcommand
    generator: str          # "walk" or "planted"
    n: int
    lmin: int
    lmax: int
    inputs: int             # distinct series mined per run
    default_seed: int
    extra: tuple = field(default_factory=tuple)   # subcommand-specific flags
    why: str = ""

    def argv(self, input_path: str, output_path: str) -> list[str]:
        return [self.command, "--input", input_path, "--output", output_path,
                "--lmin", str(self.lmin), "--lmax", str(self.lmax),
                "--p", "10", "--threads", "1", *self.extra]

    def series(self, seed: int, j: int) -> np.ndarray:
        gen_seed = seed + j * INPUT_SEED_STRIDE
        if self.generator == "walk":
            return random_walk(self.n, gen_seed)
        return planted_motif_benchmark(self.n, self.lmax, gen_seed)


# Sizes are scaled down from the ROADMAP baseline (n=3000-5000, L up to 128)
# because every new seed needs fresh oracle references; at these sizes a run,
# references included, takes about half a minute. Each run mines several
# inputs because cost depends on the data: averaging them keeps the spread
# between seeds small. Each size still keeps its workload's dominant layer
# (see perfbench/README.md).
WORKLOADS = {
    w.name: w for w in (
        Workload("motifs-planted", "motifs", "planted", n=800, lmin=32, lmax=64,
                 inputs=12, default_seed=1,
                 why="smooth series with one planted pair: the repair pass dominates"),
        Workload("motifsets-walk", "motif-sets", "walk", n=800, lmin=32, lmax=64,
                 inputs=16, default_seed=1,
                 extra=("--top-k", "40", "-D", "4"),
                 why="random walk, top-K 40, D=4: full STOMP rescans dominate"),
        Workload("discords-walk", "discords", "walk", n=1000, lmin=16, lmax=32,
                 inputs=16, default_seed=2,
                 extra=("--k", "3", "--m", "3", "--per-length"),
                 why="random walk, k=m=3: per-owner Python work in discords dominates"),
    )
}


def random_walk(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal(n))


def smooth_walk(n: int, seed: int, window: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal(n + window)
    kernel = np.ones(window) / window
    return np.cumsum(np.convolve(steps, kernel, mode="valid")[:n])


def planted_motif_benchmark(n: int, pattern_length: int, seed: int) -> np.ndarray:
    t = smooth_walk(n, seed, window=16)
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


def write_series(path, values: np.ndarray):
    """One value per line in shortest round-trip form, so reading is exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(repr(float(v)) for v in values))
        fh.write("\n")
