"""Run diagnostics: per-length pruning counts and their totals."""

from __future__ import annotations

from dataclasses import dataclass

@dataclass
class LengthTrace:
    """Per-length pruning counters, plus the certified motif when tracing one.

    ``reseed`` says why a length ran a full rescan: ``"cost"`` when the
    rows it would recompute, plus those recomputed or owed since the last
    scan, outgrow one scan; None when no rescan ran.
    """

    length: int
    n_profiles: int
    n_valid: int
    n_nonvalid: int
    n_recomputed: int
    motif: tuple | None = None
    reseed: str | None = None

    @property
    def full_recompute(self) -> bool:
        return self.reseed is not None


class RunTrace:
    """Accumulates per-length records during a driver run."""

    def __init__(self):
        self.records: list[LengthTrace] = []
        self._by_length: dict[int, LengthTrace] = {}

    def add_length(self, length, n_profiles, n_valid, n_nonvalid,
                   n_recomputed, motif=None, reseed=None):
        rec = LengthTrace(length, n_profiles, n_valid, n_nonvalid,
                          n_recomputed, motif, reseed)
        self.records.append(rec)
        self._by_length[length] = rec

    def bump_recomputed(self, length: int):
        self._by_length[length].n_recomputed += 1

    def totals(self) -> dict:
        """Sums over every length. ``recomputed`` counts the non-valid rows
        whose exact values came from a rescan (a re-seeded length counts
        its non-valid rows plus any it had already recomputed one by one);
        ``recomputed_fraction`` divides it by ``profiles``."""
        recs = self.records
        profiles = sum(r.n_profiles for r in recs)
        recomputed = sum(r.n_recomputed for r in recs)
        return {"profiles": profiles, "valid": sum(r.n_valid for r in recs),
                "nonvalid": sum(r.n_nonvalid for r in recs), "recomputed": recomputed,
                "recomputed_fraction": recomputed / profiles if profiles else 0.0}
