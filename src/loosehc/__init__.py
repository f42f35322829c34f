"""Loose Hamilton cycles in k-uniform hypergraphs: rainbow existence
search, cycle splittings and switchings, path tilings, randomized
splitting/partition samplers, and exhaustive desk-scale oracles."""

__version__ = "0.1.0"

from .colouring import Colouring, check_global_bound, is_rainbow, shares_colour
from .cycles import (
    LooseCycle,
    LoosePath,
    TightCycle,
    Violation,
    increasing_path,
    validate_loose_cycle,
    validate_tight_cycle,
)
from .hypergraph import (
    Hypergraph,
    InvalidInput,
    Parameters,
    PipelineConfig,
    UnmeetableGate,
    degree,
    induced,
    min_j_degree,
    relative_degree,
)
from .oracles import (
    EnumerationBudget,
    count_loose_hamilton_cycles,
    enumerate_loose_hamilton_cycles,
    exists_rainbow_loose_hc,
    exists_rainbow_tight_hc,
    find_hamilton_dicycle,
    find_loose_hamilton_path,
    uniform_random_hamilton_cycle,
)
from .splitting import (
    Rerouting,
    Splitting,
    Switching,
    TransversePartition,
    is_feasible,
    is_suitable,
    is_switching,
    is_transverse,
    is_viable,
    validate_rerouting,
    validate_splitting,
)

__all__ = [name for name in dir() if not name.startswith("_")]
