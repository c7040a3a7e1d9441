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
pure Python on integer bitsets; brute-force subset search is the oracle
of record throughout.
"""

from . import canonical, enumeration, families, graph, graph6, predicates, solvers, theorems
from .canonical import *
from .enumeration import *
from .families import *
from .graph import *
from .graph6 import *
from .predicates import *
from .solvers import *
from .theorems import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__"] + [
    name
    for module in (graph, canonical, predicates, solvers, graph6, enumeration, families, theorems)
    for name in module.__all__
]
