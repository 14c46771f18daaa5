"""Mod-2 cohomology of real Bott manifolds and related integer machinery.

The package splits into a polynomial layer (:mod:`bottforge.gf2ring`),
characteristic classes (:mod:`bottforge.charclass`), a candidate search
(:mod:`bottforge.search`), finitely generated abelian groups with Smith
normal form (:mod:`bottforge.abelian`), odometer towers over expanding
integer matrices (:mod:`bottforge.odometer`), and a command line front end
(:mod:`bottforge.cli`).

``import bottforge`` loads none of them: each public name below imports its
home module on first access (PEP 562).  A fresh process compiles every
module it imports unless a bytecode cache is at hand, so a one-shot command
pays only for the layers it runs.
"""

__version__ = "0.1.0"

# every public name, listed once under the module that defines it
_EXPORTS = {
    "abelian": (
        "BudgetExceeded", "FgAbGroup", "HypothesisViolation", "IntMatrix",
        "SmithDecomposition", "StationarySystem", "check_beta_torsion_iso",
        "direct_limit_torsion", "limit_torsion_bound", "smith_normal_form",
        "torsion_subgroup",
    ),
    "charclass": (
        "SwReport", "counterexample_criterion", "reproduce_reference",
        "stiefel_whitney", "total_steenrod_square", "total_stiefel_whitney",
    ),
    "gf2ring": (
        "BottMatrix", "Gf2Poly", "InvalidMatrixError", "RingContext",
        "basis_masks", "format_monomial", "make_context", "multiply",
        "pairing_matrix", "parse_monomial", "reduce_exponents",
        "relation_strings", "square",
    ),
    "odometer": (
        "LevelPoint", "OdometerTower", "SingularMatrixError", "act",
        "escape_level", "expanding_check", "is_transitive", "level_order",
        "project",
    ),
    "search": (
        "SearchHit", "SearchSpec", "SearchStats", "SpecTooLargeError",
        "enumerate_space", "hit_record", "minimal_dimension_survey",
        "run_partitioned",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    # a submodule name misses here, so ``from bottforge import search``
    # falls through to the submodule import
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
