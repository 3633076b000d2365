"""Exact weight-enumerator analysis of singly even self-dual binary codes
with minimal shadow: Gleason-type expansions with exact rational
transforms, minimal-shadow constraint solving (unique and one-parameter
families), nonexistence scans by coefficient nonnegativity and
integrality, and an exhaustive GF(2) code engine for cross-checking
against real codes."""

from .exact import (AffineForm, LinearSystemError, VerificationFailure,
                    binomial, format_exact, parametric_linear_solve)
from .gf2 import (BinaryCode, NEIGHBOR_TABLE, ShadowPartition, circulant,
                  extract_beta, is_minimal_shadow, is_self_dual, min_weight,
                  neighbor, parity_class, reference_code_46, shadow,
                  verify_neighbor_table, weight_distribution)
from .gleason import (FamilyParams, ParametricEnumerator, TransformTables,
                      build_transform_tables, code_inverse_col0,
                      enumerators_from_gleason, shadow_basis_column,
                      shadow_inverse_entry)
from .solver import (FAMILY_CASES, Admissibility, ConstraintSet, FamilyCase,
                     NonexistencePolynomial, admissible, admissible_at,
                     beta_range, closed_form_a2m1, closed_form_bm,
                     closed_form_bm1, evaluate_f, f_poly, family_case,
                     largest_root_bracket, max_admissible,
                     minimal_shadow_constraints, minimal_shadow_r,
                     nonexistence_scan, rains_bound, solve)

__version__ = "0.1.0"
