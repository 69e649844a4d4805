"""Two two-level atoms coupled to a q-deformed multiphoton cavity mode.

Closed-form Bloch-vector dynamics cross-validated against an exact
truncated-space propagator, an entanglement-dyadic measure, and
teleportation fidelity over the generated two-atom channel.
"""

__version__ = "0.1.0"

from .algebra import (
    DeformationParameter,
    FieldSpec,
    TruncationError,
    choose_cutoff,
    coherent_field,
    coherent_weights,
    ladder_elements,
    q_number,
)
from .closedform import (
    AmplitudeQuadruple,
    AmplitudeTable,
    UnsupportedConfigurationError,
    amplitude_table,
    bloch_from_table,
    evolved_bloch,
    initial_bloch,
)
from .exact import (
    AtomicInitialState,
    CompositeState,
    ConfigurationError,
    DensityMatrix,
    HamiltonianSpec,
    PhysicalityError,
    Propagator,
    build_hamiltonian,
    initial_composite_state,
    propagate,
    reduced_atomic_state,
)
from .states import (
    TwoQubitBlochState,
    WernerParameters,
    bloch_vector,
    compose,
    decompose,
    entanglement_degree,
    negativity,
    purity,
    werner_parameters,
)
from .teleport import (
    TeleportOutcome,
    UnknownQubit,
    average_fidelity,
    circuit_teleport,
    closed_form_bob,
    compare_bob_conventions,
    fidelity_overlap,
    fidelity_paper,
)

__all__ = [
    "__version__",
    "AmplitudeQuadruple",
    "AmplitudeTable",
    "AtomicInitialState",
    "CompositeState",
    "ConfigurationError",
    "DeformationParameter",
    "DensityMatrix",
    "FieldSpec",
    "HamiltonianSpec",
    "PhysicalityError",
    "Propagator",
    "TeleportOutcome",
    "TruncationError",
    "TwoQubitBlochState",
    "UnknownQubit",
    "UnsupportedConfigurationError",
    "WernerParameters",
    "amplitude_table",
    "average_fidelity",
    "bloch_from_table",
    "bloch_vector",
    "build_hamiltonian",
    "choose_cutoff",
    "circuit_teleport",
    "closed_form_bob",
    "coherent_field",
    "coherent_weights",
    "compare_bob_conventions",
    "compose",
    "decompose",
    "entanglement_degree",
    "evolved_bloch",
    "fidelity_overlap",
    "fidelity_paper",
    "initial_bloch",
    "initial_composite_state",
    "ladder_elements",
    "negativity",
    "propagate",
    "purity",
    "q_number",
    "reduced_atomic_state",
    "werner_parameters",
]
