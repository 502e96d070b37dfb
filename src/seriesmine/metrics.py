"""Run diagnostics: bound tightness and pruning accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

from .exceptions import ZeroDistanceError


def tlb(lb: float, dist: float) -> float:
    """Tightness of a lower bound: lb / dist, in [0, 1].

    1 means the bound equals the true distance. Asserts soundness first —
    a bound more than 1e-9 above the distance is a bug, not a ratio.
    """
    if dist <= 0.0:
        raise ZeroDistanceError("tightness undefined for zero distance")
    if lb > dist + 1e-9:
        raise ValueError(f"lower bound {lb} exceeds true distance {dist}")
    return min(1.0, max(0.0, lb / dist))


@dataclass
class LengthTrace:
    """Per-length pruning counters, plus the certified motif when tracing one.

    ``reseed`` says why a length ran a full rescan: ``"uncertified"`` when
    certification failed, ``"cost"`` when the floors owed since the last
    seed outgrew one scan; None when no rescan ran.
    """

    length: int
    n_profiles: int
    n_valid: int
    n_nonvalid: int
    n_recomputed: int
    full_recompute: bool
    motif: tuple | None = None
    reseed: str | None = None


class RunTrace:
    """Accumulates per-length records during a driver run."""

    def __init__(self):
        self.records: list[LengthTrace] = []
        self._by_length: dict[int, LengthTrace] = {}

    def add_length(self, length, n_profiles, n_valid, n_nonvalid,
                   n_recomputed, full_recompute, motif=None, reseed=None):
        rec = LengthTrace(length, n_profiles, n_valid, n_nonvalid,
                          n_recomputed, full_recompute, motif, reseed)
        self.records.append(rec)
        self._by_length[length] = rec

    def bump_recomputed(self, length: int, n: int = 1):
        self._by_length[length].n_recomputed += n


@dataclass
class PruningReport:
    """Aggregated pruning accounting over one run.

    ``considered`` counts the profiles actually classified (valid +
    non-valid); ``recomputed`` counts the non-valid ones whose exact values
    came from rescanning the row, so recomputed <= non-valid on
    every length that did not re-seed. A re-seeded length counts its
    non-valid rows (the full rescan) plus any rows it had already
    recomputed one by one.
    """

    rows: list[LengthTrace] = field(default_factory=list)
    n_profiles: int = 0
    n_valid: int = 0
    n_nonvalid: int = 0
    n_recomputed: int = 0

    @property
    def considered(self) -> int:
        return self.n_valid + self.n_nonvalid

    @property
    def recomputed_fraction(self) -> float:
        return self.n_recomputed / self.n_profiles if self.n_profiles else 0.0


def pruning_report(trace: RunTrace) -> PruningReport:
    """Fold a run trace into totals."""
    report = PruningReport(rows=list(trace.records))
    for rec in trace.records:
        report.n_profiles += rec.n_profiles
        report.n_valid += rec.n_valid
        report.n_nonvalid += rec.n_nonvalid
        report.n_recomputed += rec.n_recomputed
    return report
