"""Exact-arithmetic toolkit for point configurations in the projective
plane: fat point schemes, their Hilbert functions by exact rank, the
reduction-vector sandwich bounds, and verification of the line-count
identities satisfied by k-configurations."""

from .geom import (
    CoincidentLines,
    CoincidentPoints,
    ProjLine,
    ProjPoint,
    ZeroTriple,
    canonical_triple,
    incident,
    line_through,
    meet,
)
from .scheme import FatPointScheme, ReductionVector, reduction_vector
from .hilbert import HilbertTable, hilbert_table, hilbert_value, regularity_index
from .cht import BoundReport, F_upper, bound_check, peeling_sequence
from .kconfig import (
    KConfiguration,
    KType,
    count_lines,
    fatten,
    generate_generic,
    generate_with_line_count,
    validate,
)
from .verify import hilbert_family, m0, verify_main

__version__ = "0.1.0"
