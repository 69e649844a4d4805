"""Property-based tests over generated atoms, couplings, deformations,
multiplicities, field strengths and times, beyond the fixed grid of the
acceptance suite: the closed form against the exact propagator, and the
exact propagator against the dense oracle and its conservation laws on
arbitrary composite states.  The engines work in units of 1/lambda, so a
drawn lam enters them as the time lam * t and the oracle as H(lam)."""

import math

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qdcavity import (CompositeState, HamiltonianSpec, Propagator,
                      choose_cutoff, coherent_field, coherent_weights,
                      decompose, evolved_bloch, initial_composite_state,
                      reduced_atomic_state)
from qdcavity.states import max_deviation
from conftest import (apply_hamiltonian, build_hamiltonian, normalized_atoms,
                      reference_amplitudes)

component = st.floats(-1.0, 1.0, allow_nan=False)
amplitudes = st.lists(component, min_size=8, max_size=8).filter(
    lambda v: np.linalg.norm(v) > 1e-3)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(parts=amplitudes, lam=st.floats(0.1, 3.0), q=st.floats(0.0, 1.0),
       m=st.integers(1, 3), nbar=st.floats(0.0, 50.0),
       t=st.floats(0.0, 20.0))
def test_closed_form_matches_exact_propagator(parts, lam, q, m, nbar, t):
    atoms = normalized_atoms(
        *(complex(re, im) for re, im in zip(parts[::2], parts[1::2])))
    field = coherent_weights(nbar, choose_cutoff(nbar, m))
    spec = HamiltonianSpec(m=m, q=q)
    reduced = reduced_atomic_state(Propagator(spec, field.cutoff).evolve(
        initial_composite_state(atoms, field), lam * t))
    assert max_deviation(evolved_bloch(lam * t, atoms, field, spec),
                         decompose(reduced)) < 1e-6


@settings(max_examples=80, derandomize=True, deadline=None)
@given(lam=st.floats(0.1, 3.0), q=st.floats(0.0, 1.0), m=st.integers(1, 3),
       t=st.floats(0.0, 20.0), data=st.data())
def test_exact_propagator_conserves_norm_and_energy(lam, q, m, t, data):
    cutoff = data.draw(st.integers(2 * m, 40), label="cutoff")
    parts = data.draw(arrays(np.float64, (2, 4, cutoff + 1),
                             elements=component), label="parts")
    assume(np.linalg.norm(parts) > 1e-3)
    amps = parts[0] + 1j * parts[1]
    state = CompositeState(cutoff, amps / np.linalg.norm(amps))
    spec = HamiltonianSpec(m, q)
    h = build_hamiltonian(spec, cutoff, lam)
    psi0 = state.amplitudes.reshape(-1)
    e0 = (psi0.conj() @ h @ psi0).real
    psi = Propagator(spec, cutoff).evolve(state, lam * t).amplitudes
    psi = psi.reshape(-1)
    # expm(-i H(lam) t) psi0 from the dense oracle's eigendecomposition.
    eigvals, eigvecs = np.linalg.eigh(h)
    dense = eigvecs @ (np.exp(-1j * eigvals * t) * (eigvecs.conj().T @ psi0))
    assert np.max(np.abs(psi - dense)) < 1e-10
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10
    assert abs((psi.conj() @ h @ psi).real - e0) < 1e-9 * max(1.0, abs(e0))


@settings(max_examples=6, derandomize=True, deadline=None)
@given(lam=st.floats(0.1, 3.0), q=st.floats(0.0, 1.0), m=st.integers(1, 3),
       nbar=st.floats(400.0, 4000.0), t=st.floats(0.0, 20.0),
       seed=st.integers(0, 2**32 - 1))
@example(lam=1.0, q=0.9, m=1, nbar=4000.0, t=20.0, seed=0)
def test_large_cutoff_propagator_conserves_norm_and_energy(lam, q, m, nbar,
                                                           t, seed):
    # Cutoffs of 600 to 4,700 with every manifold populated; H psi is
    # applied in operator form, so no matrix here is 4(K+1)-square.
    cutoff = choose_cutoff(nbar, m)
    rng = np.random.default_rng(seed)
    amps = (rng.normal(size=(4, cutoff + 1))
            + 1j * rng.normal(size=(4, cutoff + 1)))
    state = CompositeState(cutoff, amps / np.linalg.norm(amps))
    spec = HamiltonianSpec(m, q)
    e0 = np.vdot(state.amplitudes,
                 apply_hamiltonian(spec, state.amplitudes, lam)).real
    psi = Propagator(spec, cutoff).evolve(state, lam * t).amplitudes
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10
    e = np.vdot(psi, apply_hamiltonian(spec, psi, lam)).real
    assert abs(e - e0) < 1e-9 * max(1.0, abs(e0))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(nbar=st.floats(2200.0, 4000.0), m=st.integers(1, 3))
@example(nbar=3847.0, m=1)
@example(nbar=50000.0, m=1)
def test_large_nbar_field_is_built(nbar, m):
    # Log-space rounding moves the kept mass by up to a few
    # eps * lgamma(cutoff + 2); only the dropped tail counts as truncation.
    field = coherent_field(nbar, m)
    dropped = reference_amplitudes(nbar, 2 * field.cutoff)[field.cutoff + 1:]
    assert float(np.sum(dropped**2)) <= field.tail_eps
    rounding = 4 * np.finfo(float).eps * math.lgamma(field.cutoff + 2)
    assert abs(float(np.sum(field.weights**2)) - 1.0) <= rounding
