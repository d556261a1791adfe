"""Treewidth certificates on the diagonal 3D grid."""

from .bramble_builder import (
    find_blocked_or_bramble,
    required_grid_size,
    schedule,
)
from .calculus import (
    STAR,
    LFunction,
    Walk,
    d,
    indicator,
    integrate,
    path_weights,
)
from .decomposition import (
    TreeDecomposition,
    balanced_separation,
    bramble_order,
    exact_treewidth,
    validate_bramble,
    validate_decomposition,
)
from .grid import (
    GridGraph,
    Staircase,
    anchor,
    b_square,
    build_qn,
    enlarge,
    join_staircases,
    subgrid,
)
from .separators import (
    DictPartition,
    HashPartition,
    is_blocked,
    is_separator,
    min_side_separator,
    minimalize,
)
from .slab import audit_separator, enlargement_as_slab, qn_as_slab

__version__ = "0.1.0"
