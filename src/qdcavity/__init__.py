"""Two two-level atoms coupled to a q-deformed multiphoton cavity mode.

Closed-form Bloch-vector dynamics cross-validated against an exact
truncated-space propagator, an entanglement-dyadic measure, and
teleportation fidelity over the generated two-atom channel.
"""

__version__ = "0.1.0"

from .algebra import (
    FieldSpec,
    TruncationError,
    check_deformation,
    choose_cutoff,
    coherent_field,
    coherent_weights,
    ladder_elements,
    q_number,
)
from .closedform import (
    AmplitudeTable,
    amplitude_table,
    bloch_from_table,
    evolved_bloch,
)
from .exact import (
    AtomicInitialState,
    CompositeState,
    ConfigurationError,
    DensityMatrix,
    HamiltonianSpec,
    PhysicalityError,
    Propagator,
    initial_composite_state,
    reduced_atomic_state,
)
from .states import (
    TwoQubitBlochState,
    bloch_vector,
    compose,
    decompose,
    entanglement_degree,
    negativity,
    purity,
)
from .teleport import (
    UnknownQubit,
    average_fidelity,
    branch_map,
    circuit_teleport,
    closed_form_bob,
    fidelity_overlap,
    fidelity_paper,
)

__all__ = [
    "__version__",
    "AmplitudeTable",
    "AtomicInitialState",
    "CompositeState",
    "ConfigurationError",
    "DensityMatrix",
    "FieldSpec",
    "HamiltonianSpec",
    "PhysicalityError",
    "Propagator",
    "TruncationError",
    "TwoQubitBlochState",
    "UnknownQubit",
    "amplitude_table",
    "average_fidelity",
    "bloch_from_table",
    "bloch_vector",
    "branch_map",
    "check_deformation",
    "choose_cutoff",
    "circuit_teleport",
    "closed_form_bob",
    "coherent_field",
    "coherent_weights",
    "compose",
    "decompose",
    "entanglement_degree",
    "evolved_bloch",
    "fidelity_overlap",
    "fidelity_paper",
    "initial_composite_state",
    "ladder_elements",
    "negativity",
    "purity",
    "q_number",
    "reduced_atomic_state",
]
