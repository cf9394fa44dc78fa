"""Exact 4-bar partition combinatorics and mixed Schur S/Q expansions."""

from .partitions import Partition, StrictPartition, add_set, bar_core, color
from .barquot import (
    BarAbacus,
    MayaDiagram,
    QuotientTriple,
    abacus,
    delta_sign,
    inverse_quotient,
    maya,
    quotient,
)
from .polyring import Polynomial, as_polynomial, determinant, pfaffian, shift2
from .schur import RectShape, complete_h, q_fun, q_pair, rect_schur, schur_q, schur_s
from .mixed import ExpansionTerm, VerificationReport, lhs, rect_shape, rhs, verify
from .fock import (
    FockVector,
    Sqrt2Scalar,
    a_count,
    f_chev,
    f_inf,
    lemma_co_check,
    lemma_co_sides,
)

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "StrictPartition",
    "add_set",
    "bar_core",
    "color",
    "BarAbacus",
    "MayaDiagram",
    "QuotientTriple",
    "abacus",
    "delta_sign",
    "inverse_quotient",
    "maya",
    "quotient",
    "Polynomial",
    "as_polynomial",
    "determinant",
    "pfaffian",
    "shift2",
    "RectShape",
    "complete_h",
    "q_fun",
    "q_pair",
    "rect_schur",
    "schur_q",
    "schur_s",
    "ExpansionTerm",
    "VerificationReport",
    "lhs",
    "rect_shape",
    "rhs",
    "verify",
    "FockVector",
    "Sqrt2Scalar",
    "a_count",
    "f_chev",
    "f_inf",
    "lemma_co_check",
    "lemma_co_sides",
]
