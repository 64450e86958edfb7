"""Constructive flexible list coloring.

Solvers that satisfy a certified fraction of color requests on bounded
degree graphs, k-trees, bounded treedepth graphs, and 3-connected
non-regular graphs, plus exact oracles, fixtures, and a CLI.
"""

from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    FlexicolorError,
    FormatError,
    InternalInvariantError,
    PreconditionError,
)
from .graph import (
    Graph,
    KTreeOrder,
    TreedepthForest,
    block_cut_tree,
    proper_coloring,
    validate_ktree_order,
)
from .listcolor import (
    Request,
    check_coloring,
    degree_choosable_coloring,
    precolor_and_extend,
    reduce_to_unique,
    satisfied_amount,
    validate_lists,
)
from .maxdeg import solve_unweighted, solve_weighted
from .oracle import optimal_satisfaction
from .treewidth import (
    best_of_family,
    build_SA,
    family_size,
    lambda_family,
    tree_pair_family,
    two_tree_family,
)
from .treedepth import derandomized_coloring
from .degeneracy import (
    DegeneracyOrdering,
    Hypergraph,
    epsilon_value,
    flexible_degeneracy_order,
)
from .instances import InstanceFile, parse, serialize

__version__ = "0.1.0"
