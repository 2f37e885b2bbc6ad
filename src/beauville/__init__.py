"""Unmixed Beauville structures in concrete finite groups.

Realizations: PSL2(p^e) over exact GF(p^e) arithmetic, alternating and
symmetric groups (generation by a bounded closure for n <= 7, else by a
Jordan certificate or Schreier-Sims), and Zn x Zn.  On top of the uniform
group contract sit the three-condition Beauville verifier, exhaustive and
guided structure searches, the class-algebra counting formula (brute and
character-sum), Burnside character tables, the Witten zeta function, the
Hurwitz residue criterion and seeded Monte Carlo probability estimates.
"""

from .counting import (CharacterTable, ClassPartition, character_table,
                       conjugacy_classes, frobenius_count_brute,
                       frobenius_count_character, witten_zeta)
from .fields import GF, FieldError, find_irreducible, gf, parse_field_descriptor
from .groups import (AbelianSquare, CapExceeded, Group, GroupError,
                     HandleMismatch, closure, parse_group)
from .perms import (BSGS, AlternatingGroup, SymmetricGroup,
                    construct_almost_homogeneous, select_six_shapes)
from .probability import (EstimateResult, EstimationConfig,
                          estimate_beauville_probability,
                          estimate_component_stats,
                          exact_probability_exhaustive, wilson_interval)
from .psl2 import PSL2, SubgroupClass
from .structures import (DEFAULT_SEED, GeneratingTriple, SearchInconclusive,
                         SearchOutcome, TriangleType, Unrealizable,
                         VerificationReport, classify_triangle,
                         find_generating_triple, is_hurwitz_psl2,
                         search_structure, sigma_prime_fingerprints,
                         verify_quadruple)

__version__ = "0.1.0"

__all__ = [
    "AbelianSquare", "AlternatingGroup", "BSGS", "CapExceeded",
    "CharacterTable", "ClassPartition", "DEFAULT_SEED", "EstimateResult",
    "EstimationConfig", "FieldError", "GF", "GeneratingTriple", "Group",
    "GroupError", "HandleMismatch", "PSL2", "SearchInconclusive",
    "SearchOutcome", "SubgroupClass", "SymmetricGroup", "TriangleType",
    "Unrealizable", "VerificationReport", "character_table",
    "classify_triangle", "closure", "conjugacy_classes",
    "construct_almost_homogeneous", "estimate_beauville_probability",
    "estimate_component_stats", "exact_probability_exhaustive",
    "find_generating_triple", "find_irreducible", "frobenius_count_brute",
    "frobenius_count_character", "gf", "is_hurwitz_psl2", "parse_field_descriptor",
    "parse_group", "search_structure", "select_six_shapes",
    "sigma_prime_fingerprints", "verify_quadruple", "wilson_interval",
    "witten_zeta",
]
