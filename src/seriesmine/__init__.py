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
distances prunes the per-length work. Brute-force references live in
``seriesmine.oracle``.
"""

from .series import DataSeries, ingest, sliding_dot_product, advance_dot_products
from .profile import (MatrixProfile, PartialProfiles, ProfileResult,
                      compute_matrix_profile, row_profile)
from .valmod import (VALMP, SubMPResult, certify_step, compute_sub_mp,
                     top_variable_length_motif, update_valmp, valmod)
from .motifsets import (MotifSet, PairRanking, RankedPair,
                        compute_var_length_motif_sets,
                        update_valmp_for_motif_sets, validate_disjoint)
from .discords import (DiscordMatrix, DiscordScan, VariableLengthDiscordMatrix,
                       topkm_discord_discovery, topkm_next_length,
                       update_fixed_length_discords,
                       update_variable_length_discords)
from .oracle import brute_force_discords, brute_force_motifs
from .metrics import RunTrace
from .io import read_series

__version__ = "0.1.0"

__all__ = [
    "DataSeries", "ingest", "sliding_dot_product", "advance_dot_products",
    "MatrixProfile", "PartialProfiles", "ProfileResult",
    "compute_matrix_profile", "row_profile",
    "VALMP", "SubMPResult", "certify_step", "compute_sub_mp",
    "top_variable_length_motif", "update_valmp", "valmod",
    "MotifSet", "PairRanking", "RankedPair", "compute_var_length_motif_sets",
    "update_valmp_for_motif_sets", "validate_disjoint",
    "DiscordMatrix", "DiscordScan", "VariableLengthDiscordMatrix",
    "topkm_discord_discovery", "topkm_next_length",
    "update_fixed_length_discords", "update_variable_length_discords",
    "brute_force_discords", "brute_force_motifs",
    "RunTrace",
    "read_series",
]
