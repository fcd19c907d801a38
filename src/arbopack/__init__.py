"""Packings of arborescences and hyperarborescences.

Mixed hypergraphs, the matroid rank oracles the packing conditions need,
evaluators for the published characterizations, orientation construction,
the packing polyhedron, brute-force packing search, and the constructive
pipelines that tie them together.
"""

from .conditions import ConditionId, Instance, evaluate, witness_violates
from .gpoly import (
    TPolyhedron,
    build_t,
    check_axioms,
    feasible,
    find_integer_point,
    integer_points,
    t_contains,
    violating_subpartition,
)
from .instances import (
    SCHEMA_VERSION,
    SchemaError,
    instance_to_doc,
    matroid_to_doc,
    packing_to_doc,
    parse_extended_elements,
    parse_instance,
    parse_matroid,
    parse_packing,
    parse_root_copies,
    parse_set_function,
    set_function_to_doc,
)
from .matroids import (
    ExplicitMatroid,
    ExtendedHypergraphicMatroid,
    FreeMatroid,
    HypergraphicMatroid,
    KSumMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    check_rank_axioms,
    extended_ground,
)
from .orientation import (
    Orientation,
    check_cover,
    check_mixed_cover,
    compute_h2,
    frank_orient,
    mixed_orient,
    orientation_space,
    reduce_frank_to_new,
)
from .packing import (
    Member,
    Packing,
    PackingSpec,
    Pick,
    corollary1_pack,
    find_packing,
    main_pack,
    mrb_mixed_pack,
    verify,
)
from .setfuncs import (
    SetFunctionOracle,
    check_cross_inequality,
    check_intersecting_supermodular,
    check_submodular,
    check_supermodular,
)
from .structures import (
    DEFAULT_CAP,
    Bounds,
    Budget,
    CapExceededError,
    Dyperedge,
    MixedHypergraph,
    PropertyViolationError,
    RootMultiset,
    Verdict,
    Witness,
    entering_count,
    in_degree,
    induced_subgraph,
    orient,
    orient_all,
    reach_from,
    reach_to,
    scc_condense,
    set_partitions,
    subpartitions,
    subsets,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
