"""catspan: isotropic subspace families over GF(2), noncrossing arc sets,
and exact Catalan/Narayana verification."""

from .gf2 import (
    Subspace,
    is_isotropic,
    span_masks,
)
from .families import (
    FamilyTable,
    Line,
    build_families,
    classify_by_lines,
    level_down,
    level_up,
    lines_in,
)
from .noncrossing import (
    Arc,
    ArcSequence,
    OddCollection,
    arcs_of,
    build_collection,
    decompose,
    enumerate_noncrossing,
    extend_seq,
    from_lagrangian,
    is_noncrossing,
    shift_arc,
    span_arcs,
    to_lagrangian,
)
from .counting import catalan, gaussian_binomial, narayana, verify_counts
from .oracle import OracleBudget, all_isotropic, all_subspaces, noncrossing_direct
from .conjecture import MatchResult, SuppliedFamily, fingerprint, gl_match, load_family

__version__ = "0.1.0"

__all__ = [
    "Subspace",
    "span_masks",
    "is_isotropic",
    "Line",
    "FamilyTable",
    "build_families",
    "lines_in",
    "classify_by_lines",
    "level_down",
    "level_up",
    "Arc",
    "ArcSequence",
    "OddCollection",
    "is_noncrossing",
    "enumerate_noncrossing",
    "shift_arc",
    "extend_seq",
    "decompose",
    "build_collection",
    "span_arcs",
    "arcs_of",
    "to_lagrangian",
    "from_lagrangian",
    "catalan",
    "narayana",
    "gaussian_binomial",
    "verify_counts",
    "OracleBudget",
    "all_subspaces",
    "all_isotropic",
    "noncrossing_direct",
    "SuppliedFamily",
    "MatchResult",
    "load_family",
    "gl_match",
    "fingerprint",
]
