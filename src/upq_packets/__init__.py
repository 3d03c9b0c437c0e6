"""Arthur packets of U(p,q) and unitary lowest weight representations.

The package decides which packets of good A-parameters contain a given
irreducible unitary lowest weight representation, extracts the unique
lowest K-type a packet can contain, and verifies both closed-form answers
against the tableau pair (annihilator antitableau, signed asymptotic
support), which is a complete isomorphism invariant.
"""

from .errors import InternalInconsistencyError, IterationCapExceeded
from .halfint import HalfInt, HalfIntMultiset, partition_into_segments
from .weights import (GroupSignature, KWeight, UnitarityClass,
                      inf_char_of_lowest_weight, is_unitarizable,
                      kweight_from_pq, unitarity_class, weight_stats)
from .tableaux import (AntiTableau, ColumnStack, NormalizeOutcome,
                       SignedTableau, as_pair_equal, build_initial,
                       trapa_normalize)
from .cohind import (InductionDescriptor, ThetaData, absorb_adjacent,
                     holomorphic_lowest_ktype, lowest_weight_invariants,
                     normalize_blocks, range_class, realize_lowest_weight,
                     segments_of, tableau_pair)
from .packets import (AParameter, PacketMember, contains_lowest_weight,
                      d_zero, enumerate_D, epsilon, inf_char,
                      lowest_weight_of_packet, member, oracle_contains,
                      packet, packets_containing)
from .oracle import (SweepConfig, SweepReport, oracle_lowest_weights,
                     sweep_verify)

__all__ = [
    "AParameter", "AntiTableau", "ColumnStack", "GroupSignature", "HalfInt",
    "HalfIntMultiset", "InductionDescriptor", "InternalInconsistencyError",
    "IterationCapExceeded", "KWeight", "NormalizeOutcome", "PacketMember",
    "SignedTableau", "SweepConfig", "SweepReport", "ThetaData",
    "UnitarityClass", "absorb_adjacent", "as_pair_equal", "build_initial",
    "contains_lowest_weight", "d_zero", "enumerate_D", "epsilon",
    "holomorphic_lowest_ktype", "inf_char", "inf_char_of_lowest_weight",
    "is_unitarizable", "kweight_from_pq", "lowest_weight_invariants",
    "lowest_weight_of_packet", "member", "normalize_blocks",
    "oracle_contains", "oracle_lowest_weights", "packet",
    "packets_containing", "partition_into_segments", "range_class",
    "realize_lowest_weight", "segments_of", "sweep_verify",
    "tableau_pair", "trapa_normalize", "unitarity_class", "weight_stats",
]
