"""Parity-aware Alexander-type invariant of virtual knot diagrams.

The package computes an exact four-variable Laurent polynomial invariant
from a diagram code (classical signed over/under passes plus virtual
passes with frame bits), together with crossing-number lower bounds,
skein and symmetry checks, and a move-based verification suite.
"""

from .laurent import LaurentPoly, InexactDivision
from .diagram import (
    Crossing, DiagramCode, DiagramError, MoveError, Pass,
    apply_move, classical_gauss_code, crossings, flip, parity, parse_diagram,
    parse_vkd, relabel, reverse, shift_basepoint, switch, switch_crossing,
    switched_flip, validate,
)
from .realize import GaussError, RealizationError, parse_gauss
from .alexander import (
    AlexanderMatrix, InvariantResult,
    build_full_matrix_M, build_matrix_A, check_even_skein,
    check_symmetries, crossing_bounds, crossing_relators, determinant,
    determinant_cofactor, gcd_of_minors, group_presentation,
    parity_alexander, skein_matrices,
)

__version__ = "0.1.0"
