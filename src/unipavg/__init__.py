"""Exact weighted averages of sections of torsors under unipotent groups.

The package computes, in exact arithmetic, the symmetrization operators on
tuples of unipotent-matrix-valued sections over the geometric simplex, the
weighted-average section they converge to, simplicial sections glued over
finite covers, and rational torsor points obtained by averaging Galois
orbits.
"""

from .errors import (InputError, InvariantViolation, MembershipError,
                     NonConstantError, RationalityError, RingMismatch)
from .exactring import (QQ, FieldAutomorphism, GaloisAction, PolyRing,
                        ScalarField, ScalarValue, SimplexMap, SimplexPoly,
                        apply_galois, eval_at_weights, extend_to_simplex,
                        make_simplex_coordinate, permute_coordinates, poly_arith,
                        substitute_simplex_map)
from .nilpotent import (LieHom, LieSpan, LieTable, NilMatrix, UniMatrix, apply_hom, bch,
                        derived_series_length, embed_simplex, exp_nilpotent,
                        full_unipotent_span, log_unipotent, lower_central_series,
                        nilpotency_class, quotient_span)
from .average import (CoordinateTuple, SectionTuple, WeightSeq, act_permutation,
                      act_simplex_map, lift_w, transition, wav, wav_at_weights, wsym)
from .simplicial import (FiniteCover, LocalSection, SimplicialSection,
                         TowerReport, ValidationReport, build_simplicial_section,
                         tower_compatibility, validate_simplicial_section)
from .descent import GaloisOrbit, rational_point

__version__ = "1.0.0"