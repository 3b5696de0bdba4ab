"""Power-domination toolkit: propagation fixpoints, set classification,
exact solvers for (failed) power domination and zero forcing, family
generators with closed-form oracles, and the independent-set reduction
gadget."""

from .errors import (
    BudgetExceeded,
    DisconnectedInput,
    DomainError,
    LoopError,
    NoFormula,
    NotIndependent,
    ParseError,
    TooSmall,
)
from .families import (
    FamilySpec,
    extremal_gamma_bar,
    generate,
    is_zero_family,
    oracle_gamma_bar,
    parse_family,
)
from .graphs import (
    Graph,
    VertexSet,
    cartesian_product,
    closed_neighborhood,
    complement,
    components,
    cut_vertices,
    from_edge_list,
    induced_subgraph,
    is_connected,
    join,
    to_edge_list_text,
    vertex_connectivity,
)
from .propagation import (
    Classification,
    PropagationTrace,
    classify,
    is_pds,
    monitored_fixpoint,
    zero_forcing_fixpoint,
)
from .reduction import (
    ExtractedSet,
    ReductionOutput,
    build_reduction,
    extract_independent_set,
    is_independent_set,
    lift_independent_set,
)
from .solvers import (
    DEFAULT_BUDGET,
    SolverResult,
    domination_number,
    failed_zero_forcing_number,
    gamma_bar_p,
    gamma_p,
    max_independent_set,
    zero_forcing_number,
)

__version__ = "0.1.0"
