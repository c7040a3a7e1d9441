"""locdom: exact location-domination computations on small graphs.

The package computes, exactly and with optimal-code certificates, the
four classical parameters of a connected graph G:

* ``gamma``  - domination number (minimum dominating set);
* ``beta``   - metric dimension (minimum locating/resolving set);
* ``eta``    - minimum size of a set that is dominating and locating;
* ``lambda`` - minimum size of a locating-dominating set (nonempty,
  pairwise-distinct neighbourhood traces outside the set).

On top of the solvers it provides generators for the named graph
families these parameters are classically evaluated on, exhaustive
enumeration of small connected graphs up to isomorphism, censuses under
parameter filters, and mechanical checkers for the known bounds,
extremal characterizations and realization constructions.  Everything is
pure Python on integer bitsets.  One exact solver computes every
parameter; the test suite checks it against a brute-force oracle of its
own, ``tests/_brute.py``, which the package never runs.
"""

import importlib

__version__ = "0.1.0"

# the modules whose __all__ lists make up the package's public names, in
# the order of __all__
_MODULES = ("graph", "canonical", "predicates", "solvers", "graph6", "enumeration", "families",
            "theorems")


def _bind_public_names() -> None:
    """Import the eight modules and bind their public names here, as
    ``from .x import *`` would; each module's __all__ is the one list of
    its public names."""
    modules = [importlib.import_module(f"{__name__}.{name}") for name in _MODULES]
    namespace = globals()
    for module in modules:
        namespace.update((name, getattr(module, name)) for name in module.__all__)
    namespace["__all__"] = ["__version__"] + [name for module in modules for name in module.__all__]


# Names are resolved on first use (PEP 562), so that importing one module,
# such as locdom.cli, loads no other: a submodule name imports only that
# submodule, any other name the eight modules.
def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if "__all__" not in globals():
        _bind_public_names()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _bind_public_names()
    return sorted(globals())
