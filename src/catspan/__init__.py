"""catspan: isotropic subspace families over GF(2), noncrossing arc sets,
and exact Catalan/Narayana verification.

Importing the package loads none of its modules: each name in ``__all__``, and
each submodule such as ``catspan.gf2``, loads its module on first use (PEP 562)."""

from importlib import import_module

__version__ = "0.1.0"

# every submodule, with the names the package re-exports from it
_EXPORTS = {
    "gf2": "Subspace span_masks is_isotropic",
    "families": "Line FamilyTable build_families classify_by_lines level_down level_up",
    "noncrossing": "Arc ArcSequence OddCollection is_noncrossing enumerate_noncrossing shift_arc"
    " extend_seq decompose build_collection span_arcs arcs_of to_lagrangian from_lagrangian",
    "counting": "catalan narayana gaussian_binomial verify_counts",
    "oracle": "OracleBudget all_subspaces all_isotropic noncrossing_direct",
    "conjecture": "SuppliedFamily MatchResult load_family gl_match fingerprint",
    "slots": "", "verify": "", "cli": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the submodule NAME, or the module that defines NAME, on first use."""
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value
