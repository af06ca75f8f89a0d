"""Finite affine planes from ternary rings and quasi-fields.

The package builds finite fields and their Galois machinery, twists
field multiplication into quasi-fields, coordinatizes the resulting
planes, and certifies which planes are field planes by a complete
search.
"""

from .andre import (AndreSpec, build_left, build_right, enumerate_phi,
                    make_spec, predicts_associative,
                    predicts_right_distributive, right_divide,
                    spec_from_exponents)
from .collineation import (ClassificationResult, Collineation,
                           TranslationCertificate, as_collineation, classify,
                           classify_ternary, diag_automorphism, frame_mover,
                           is_collineation, is_translation, no_fixed_points,
                           translation_candidate, translation_from_shift)
from .errors import (FormatError, InputError, InternalCheckError,
                     SearchBoundExceeded)
from .gf import (FiniteField, GaloisGroup, fixed_field, galois_subgroup,
                 make_field, norm, norm_image, verify_field_tables)
from .plane import (AffinePlane, CoordinateFrame, Coordinatization,
                    canonical_frame, check_plane_axioms, coordinatize,
                    intersection, isotopism_from_frames, line_through,
                    parallel_classes, parallel_through, plane_from_ternary)
from .quasifield import (LEFT_AXIOMS, LINEAR_RING_AXIOMS, RIGHT_AXIOMS,
                         QuasiField, associativity_witness, check_vector_space,
                         check_vw, from_field, from_ternary, opposite,
                         to_ternary)
from .ternary import (AxiomReport, Isotopism, TernaryRing,
                      check_ternary_axioms, complete_isotopism,
                      find_isomorphism, find_isotopism, is_isomorphism,
                      is_isotopism, validate)

__all__ = [name for name in dir() if not name.startswith("_")]
