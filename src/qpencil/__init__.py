"""Co-diagonalization of commuting degenerate observables via matrix pencils,
exact measurement-context extraction, and contextuality hypergraph analysis."""

from .exact import (
    ExactMatrix,
    Ray,
    commutator_is_zero,
    inner_product,
    is_product_state,
)
from .logic import (
    ContextHypergraph,
    SubsetSweepResult,
    classify_contexts,
    enumerate_contexts,
    noncolorable_subsets,
    orthogonality_graph,
    to_dot,
    two_valued_states,
)
from .parity import (
    ContradictionReport,
    ParityError,
    ParityScenario,
    analyze,
    eigenstate_table,
)
from .pauli import PauliString, commutes, multiply, parse_pauli, realization, serial_product
from .pencil import (
    Context,
    DegeneratePencilError,
    Pencil,
    PencilError,
    SnapError,
    VerificationError,
    build,
    evaluate,
    joint_context,
)

__version__ = "0.1.0"

__all__ = [
    "ExactMatrix",
    "Ray",
    "commutator_is_zero",
    "inner_product",
    "is_product_state",
    "ContextHypergraph",
    "SubsetSweepResult",
    "classify_contexts",
    "enumerate_contexts",
    "noncolorable_subsets",
    "orthogonality_graph",
    "to_dot",
    "two_valued_states",
    "ContradictionReport",
    "ParityError",
    "ParityScenario",
    "analyze",
    "eigenstate_table",
    "PauliString",
    "commutes",
    "multiply",
    "parse_pauli",
    "realization",
    "serial_product",
    "Context",
    "DegeneratePencilError",
    "Pencil",
    "PencilError",
    "SnapError",
    "VerificationError",
    "build",
    "evaluate",
    "joint_context",
]
