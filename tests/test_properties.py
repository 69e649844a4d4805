"""Property-based agreement of the closed form with the exact propagator
over generated atoms, deformations, multiplicities, field strengths and
times, beyond the fixed grid of the acceptance suite."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qdcavity import (AtomicInitialState, HamiltonianSpec, Propagator,
                      choose_cutoff, coherent_weights, decompose,
                      evolved_bloch, initial_composite_state,
                      reduced_atomic_state)
from qdcavity.states import max_deviation

component = st.floats(-1.0, 1.0, allow_nan=False)
amplitudes = st.lists(component, min_size=8, max_size=8).filter(
    lambda v: np.linalg.norm(v) > 1e-3)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(parts=amplitudes, q=st.floats(0.0, 1.0), m=st.integers(1, 3),
       nbar=st.floats(0.0, 50.0), t=st.floats(0.0, 20.0))
def test_closed_form_matches_exact_propagator(parts, q, m, nbar, t):
    atoms = AtomicInitialState.normalized(
        *(complex(re, im) for re, im in zip(parts[::2], parts[1::2])))
    field = coherent_weights(nbar, choose_cutoff(nbar, m))
    spec = HamiltonianSpec.resonant(1.0, m=m, q=q)
    reduced = reduced_atomic_state(Propagator(spec, field.cutoff).evolve(
        initial_composite_state(atoms, field), t))
    assert max_deviation(evolved_bloch(t, atoms, field, spec),
                         decompose(reduced)) < 1e-6
