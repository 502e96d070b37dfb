"""Exact variable-length motif, motif-set, and discord discovery.

Library front door. The engine finds, over a window-length range
[lmin, lmax] of a univariate series:

* the closest non-overlapping window pair of every length (``valmod``),
  merged per offset into the best length-normalized match (``VALMP``);
* the Top-K pairs expanded into disjoint motif sets within a radius
  (``compute_var_length_motif_sets``);
* the Top-k m-th discords of every length, merged by normalized distance
  (``topkm_discord_discovery``).

All results are exact; a rank-preserving lower bound on window-extension
distances prunes the per-length work. ``__all__`` is the public API, with
the brute-force references of ``seriesmine.oracle``. Internal steps stay in
their modules: ``series`` (dot products, ``pair_distance``), ``profile``
(``PartialProfiles``, ``row_profile``), ``valmod`` (``compute_sub_mp``,
``update_valmp``), ``motifsets`` (``update_valmp_for_motif_sets``) and
``discords`` (``topkm_next_length`` and the two matrix updates).
"""

from .series import DataSeries, ingest
from .profile import MatrixProfile, ProfileResult, compute_matrix_profile
from .valmod import VALMP, top_variable_length_motif, valmod
from .motifsets import (MotifSet, PairRanking, RankedPair,
                        compute_var_length_motif_sets, validate_disjoint)
from .discords import (DiscordMatrix, DiscordScan, VariableLengthDiscordMatrix,
                       topkm_discord_discovery)
from .oracle import brute_force_discords, brute_force_motifs
from .metrics import RunTrace
from .io import read_series

__version__ = "0.1.0"

__all__ = [
    "valmod", "VALMP", "top_variable_length_motif",
    "compute_var_length_motif_sets", "PairRanking", "RankedPair", "MotifSet",
    "validate_disjoint", "topkm_discord_discovery", "DiscordScan", "DiscordMatrix",
    "VariableLengthDiscordMatrix", "compute_matrix_profile", "MatrixProfile",
    "ProfileResult", "DataSeries", "ingest", "read_series", "RunTrace",
    "brute_force_motifs", "brute_force_discords",
]
