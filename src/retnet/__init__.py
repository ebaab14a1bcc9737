"""Exact combinatorics for binary phylogenetic networks.

Value types and validation live in :mod:`retnet.model`; canonical codes
and isomorphism in :mod:`retnet.canonical`; exhaustive enumeration in
:mod:`retnet.generate`; the network-to-tree codec in :mod:`retnet.codec`;
display semantics in :mod:`retnet.display`; counting bounds in
:mod:`retnet.bounds`; brute-force solvers in :mod:`retnet.solver`.

`import retnet` runs :mod:`retnet.errors` alone.  Every other submodule
is registered in ``sys.modules`` as a lazy module, compiled and run on
its first attribute access, and each name of ``__all__`` is read from
its defining module on first use (PEP 562).  So a command runs only the
modules it reaches: ``bounds`` runs ``errors`` and ``bounds``.
"""

import importlib.util
import sys

from . import errors

__version__ = "0.1.0"

# defining module -> the names of __all__ it defines
_EXPORTS = {
    "errors": ("ROOTED", "UNROOTED",
               "RetnetError", "BudgetExceeded", "NotInImage", "InvalidLabelling",
               "SwitchingMismatch", "ModeMismatch", "LeafsetMismatch", "NotATree",
               "DomainError", "TTooLarge", "ParseError"),
    "model": ("Graph", "Switching", "ReticulationLabelling", "TreeSet", "ValidationReport",
              "tree_set", "validate"),
    "canonical": ("CanonicalCode", "canonical_code", "automorphism_count"),
    "generate": ("enumerate_trees", "enumerate_networks", "enumerate_switchings",
                 "reticulation_labellings", "all_reticulation_labellings"),
    "codec": ("encode_tau", "decode_tau"),
    "display": ("displayed_tree", "displayed_trees", "displays", "trivial_network"),
    "bounds": ("BoundReport", "RealInterval", "NetworkCountBound",
               "double_factorial", "tree_count", "tree_set_count",
               "tree_set_count_bounds", "network_count_bound", "pair_count_bound",
               "counting_lower_bound", "formula_lower_bound", "verify_math_lemmas"),
    "solver": ("min_reticulations", "worst_case_r", "verify_counts"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def _lazy(name: str):
    """Register retnet.<name> in sys.modules as a module that runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# bound as package attributes, as an import would, so `from . import x` finds them unrun
bounds, canonical, codec, display, generate, model, serialize, solver = map(
    _lazy, ("bounds", "canonical", "codec", "display", "generate", "model", "serialize",
            "solver"))


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
