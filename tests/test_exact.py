import math

import numpy as np
import pytest

from qdcavity import (
    AtomicInitialState,
    CompositeState,
    ConfigurationError,
    HamiltonianSpec,
    Propagator,
    build_hamiltonian,
    coherent_weights,
    choose_cutoff,
    initial_composite_state,
    propagate,
    reduced_atomic_state,
)
from qdcavity.algebra import q_number
from qdcavity.exact import _manifold_blocks, deformed_lowering_power


def excited_pair():
    return AtomicInitialState(1.0, 0.0, 0.0, 0.0)


def manifold_members(cutoff, m):
    """Flat indices of {|ee,n>, |eg,n+m>, |ge,n+m>, |gg,n+2m>} inside
    the cutoff, one list per nonempty manifold n."""
    offsets = (0, m, m, 2 * m)
    blocks = ([k * (cutoff + 1) + n + offsets[k] for k in range(4)
               if 0 <= n + offsets[k] <= cutoff]
              for n in range(-2 * m, cutoff + 1))
    return [members for members in blocks if members]


class TestHamiltonianSpec:
    def test_resonant_constructor(self):
        spec = HamiltonianSpec.resonant(1.0, m=2, q=0.5)
        assert spec.symmetric_resonant
        assert spec.m == 2 and spec.q.q == 0.5

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ConfigurationError):
            HamiltonianSpec(lambda1=0.0, lambda2=1.0, m=1, q=1.0)

    def test_atom_freq_consistency(self):
        spec = HamiltonianSpec(1.0, 1.0, 1, 1.0, detuning=0.5, field_freq=2.0)
        assert spec.atom_freq == pytest.approx(1.5)


class TestDeformedLadder:
    def test_matrix_elements_undeformed(self):
        a = deformed_lowering_power(4, 1, 1.0)
        for n in range(1, 5):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n), rel=1e-14)

    def test_matrix_elements_deformed(self):
        a = deformed_lowering_power(4, 1, 0.5)
        assert a[0, 1] == pytest.approx(1.0, rel=1e-14)
        assert a[1, 2] == pytest.approx(math.sqrt(1.5), rel=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_per_photon_loop(self, m):
        for q in (0.0, 0.5, 0.9, 1.0 - 1e-12, 1.0):
            for cutoff in (0, m - 1, 2 * m, 17, 62):
                reference = np.zeros((cutoff + 1, cutoff + 1))
                for n in range(m, cutoff + 1):
                    reference[n - m, n] = math.sqrt(math.prod(
                        q_number(j, q) for j in range(n - m + 1, n + 1)))
                assert np.array_equal(deformed_lowering_power(cutoff, m, q),
                                      reference), (q, cutoff)


class TestBuildHamiltonian:
    def test_rejects_small_cutoff(self):
        with pytest.raises(ConfigurationError):
            build_hamiltonian(HamiltonianSpec.resonant(1.0, m=2, q=1.0), 3)

    def test_hermitian(self):
        spec = HamiltonianSpec.resonant(0.7, m=2, q=0.5)
        h = build_hamiltonian(spec, 12)
        assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_first_manifold_chain(self):
        # For m=1, q=1, lambda=1 the lowest manifold couples as the chain
        # ee0 -(1)- eg1/ge1 -(sqrt(2))- gg2.
        spec = HamiltonianSpec.resonant(1.0, m=1, q=1.0)
        h = build_hamiltonian(spec, 2)
        dim = 3
        idx = {"ee0": 0 * dim + 0, "eg1": 1 * dim + 1,
               "ge1": 2 * dim + 1, "gg2": 3 * dim + 2}
        assert h[idx["ee0"], idx["eg1"]] == pytest.approx(1.0)
        assert h[idx["ee0"], idx["ge1"]] == pytest.approx(1.0)
        assert h[idx["eg1"], idx["gg2"]] == pytest.approx(math.sqrt(2.0))
        assert h[idx["ge1"], idx["gg2"]] == pytest.approx(math.sqrt(2.0))
        assert h[idx["ee0"], idx["gg2"]] == 0.0

    def test_manifold_closure(self):
        # The stacks partition the basis into the manifolds, members in
        # ee, eg, ge, gg order, and no coupling leaks between blocks.
        for m in (1, 2, 3):
            spec = HamiltonianSpec(1.3, 0.7, m, 0.9, detuning=0.8,
                                   field_freq=5.0)
            cutoff = 4 * m + 3
            h = build_hamiltonian(spec, cutoff)
            stacks = _manifold_blocks(cutoff, m)
            assert [stack.shape[1] for stack in stacks] == [1, 3, 4]
            blocks = sorted(row.tolist() for stack in stacks for row in stack)
            assert blocks == sorted(manifold_members(cutoff, m))
            membership = np.full(4 * (cutoff + 1), -1)
            for b, members in enumerate(blocks):
                assert np.all(np.diff(np.array(members) // (cutoff + 1)) > 0)
                assert np.all(membership[members] == -1)  # no overlaps
                membership[members] = b
            assert np.all(membership >= 0)  # full coverage
            off_block = np.abs(h) * (membership[:, None] != membership[None, :])
            assert np.max(off_block) == 0.0


class TestInitialState:
    def test_vacuum_product(self):
        field = coherent_weights(0.0, 2)
        state = initial_composite_state(excited_pair(), field)
        assert state.amplitudes[0, 0] == pytest.approx(1.0)
        assert np.sum(np.abs(state.amplitudes)) == pytest.approx(1.0)

    def test_ground_pair_carries_field(self):
        field = coherent_weights(10.0, choose_cutoff(10.0, 1))
        state = initial_composite_state(AtomicInitialState(0, 0, 0, 1.0), field)
        np.testing.assert_allclose(state.amplitudes[3].real, field.weights,
                                   atol=1e-12)
        assert np.max(np.abs(state.amplitudes[:3])) == 0.0

    def test_unit_norm(self):
        field = coherent_weights(10.0, choose_cutoff(10.0, 1))
        state = initial_composite_state(excited_pair(), field)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_unnormalised_atoms(self):
        with pytest.raises(ValueError):
            AtomicInitialState(1.0, 1.0, 0.0, 0.0)

    def test_normalized_constructor(self):
        atoms = AtomicInitialState.normalized(1.0, 1.0, 0.0, 0.0)
        assert abs(atoms.a1) == pytest.approx(1 / math.sqrt(2))


class TestPropagate:
    def test_identity_at_t_zero(self):
        field = coherent_weights(3.0, choose_cutoff(3.0, 1))
        spec = HamiltonianSpec.resonant(1.0, m=1, q=0.5)
        state = initial_composite_state(excited_pair(), field)
        evolved = propagate(state, spec, 0.0)
        np.testing.assert_allclose(evolved.amplitudes, state.amplitudes,
                                   atol=1e-14)

    def test_norm_preserved(self):
        field = coherent_weights(10.0, choose_cutoff(10.0, 1))
        spec = HamiltonianSpec.resonant(1.0, m=1, q=0.9)
        state = initial_composite_state(excited_pair(), field)
        prop = Propagator(spec, field.cutoff)
        for t in (1.0, 5.0, 10.0):
            evolved = prop.evolve(state, t)
            assert np.linalg.norm(evolved.amplitudes) == pytest.approx(
                1.0, abs=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("spec_kwargs", [
        {},
        {"detuning": 0.8, "field_freq": 5.0},
        {"lambda1": 1.3, "lambda2": 0.7},
    ], ids=["resonant", "detuned", "unequal"])
    def test_matches_per_block_loop(self, m, spec_kwargs, rng):
        # Reference: cut, diagonalise and evolve each manifold on its own.
        spec = HamiltonianSpec(**{"lambda1": 1.0, "lambda2": 1.0, "m": m,
                                  "q": 0.8, **spec_kwargs})
        cutoff = 5 * m + 4
        h = build_hamiltonian(spec, cutoff)
        blocks = [(members, *np.linalg.eigh(h[np.ix_(members, members)]))
                  for members in manifold_members(cutoff, m)]
        amps = (rng.normal(size=(4, cutoff + 1))
                + 1j * rng.normal(size=(4, cutoff + 1)))
        state = CompositeState(cutoff, amps / np.linalg.norm(amps))
        prop = Propagator(spec, cutoff)
        for t in (0.0, 0.3, 2.7, 11.0):
            expected = state.amplitudes.reshape(-1).copy()
            for members, eigvals, eigvecs in blocks:
                phases = np.exp(-1j * eigvals * t)
                expected[members] = eigvecs @ (
                    phases * (eigvecs.conj().T @ expected[members]))
            assert np.array_equal(prop.evolve(state, t).amplitudes.reshape(-1),
                                  expected)

    def test_rejects_negative_time(self):
        field = coherent_weights(0.0, 2)
        spec = HamiltonianSpec.resonant(1.0)
        state = initial_composite_state(excited_pair(), field)
        with pytest.raises(ValueError):
            propagate(state, spec, -1.0)

    def test_vacuum_rabi_law(self):
        # Single-manifold analytic solution: the ee0 amplitude follows
        # 1 - (2/3) sin^2(sqrt(3/2) t).
        field = coherent_weights(0.0, 2)
        spec = HamiltonianSpec.resonant(1.0, m=1, q=1.0)
        state = initial_composite_state(excited_pair(), field)
        prop = Propagator(spec, 2)
        for t in np.linspace(0.0, 12.0, 97):
            amp = prop.evolve(state, t).amplitudes[0, 0]
            law = 1.0 - (2.0 / 3.0) * math.sin(math.sqrt(1.5) * t) ** 2
            assert abs(amp - law) < 1e-12

    def test_matches_dense_exponential(self, rng):
        # Independent oracle: full-space eigendecomposition.
        field = coherent_weights(2.0, 24)
        spec = HamiltonianSpec.resonant(0.9, m=1, q=0.7)
        atoms = AtomicInitialState.normalized(0.3, 0.5 - 0.2j, -0.4, 0.6j)
        state = initial_composite_state(atoms, field)
        h = build_hamiltonian(spec, 24)
        eigvals, eigvecs = np.linalg.eigh(h)
        prop = Propagator(spec, 24)
        for t in (0.7, 2.3, 6.1):
            dense = eigvecs @ (np.exp(-1j * eigvals * t)
                               * (eigvecs.conj().T
                                  @ state.amplitudes.reshape(-1)))
            block = prop.evolve(state, t).amplitudes.reshape(-1)
            np.testing.assert_allclose(block, dense, atol=1e-10)

    def test_energy_conserved(self):
        field = coherent_weights(10.0, choose_cutoff(10.0, 1))
        spec = HamiltonianSpec.resonant(1.0, m=1, q=0.9)
        atoms = AtomicInitialState.normalized(0.6, 0.0, 0.8, 0.0)
        state = initial_composite_state(atoms, field)
        h = build_hamiltonian(spec, field.cutoff)
        prop = Propagator(spec, field.cutoff)
        psi0 = state.amplitudes.reshape(-1)
        e0 = (psi0.conj() @ h @ psi0).real
        assert abs(e0) > 0.1
        for t in (1.0, 4.0, 9.0):
            psi = prop.evolve(state, t).amplitudes.reshape(-1)
            e = (psi.conj() @ h @ psi).real
            assert abs(e - e0) < 1e-9 * max(1.0, abs(e0))

    def test_cutoff_insensitivity(self):
        spec = HamiltonianSpec.resonant(1.0, m=1, q=0.9)
        base = choose_cutoff(10.0, 1)
        rhos = {}
        for cutoff in (base, base + 10):
            field = coherent_weights(10.0, cutoff)
            state = initial_composite_state(excited_pair(), field)
            prop = Propagator(spec, cutoff)
            rhos[cutoff] = [
                reduced_atomic_state(prop.evolve(state, t)).matrix
                for t in (2.5, 10.0)
            ]
        for a, b in zip(rhos[base], rhos[base + 10]):
            assert np.max(np.abs(a - b)) < 1e-8

    def test_detuned_configuration_runs(self):
        # Off resonance is configuration-only: check unitarity and that
        # the free terms actually change the motion.
        field = coherent_weights(1.0, 18)
        atoms = AtomicInitialState.normalized(1.0, 0.0, 1.0, 0.0)
        state = initial_composite_state(atoms, field)
        detuned = HamiltonianSpec(1.0, 1.0, 1, 0.9, detuning=0.8,
                                  field_freq=5.0)
        resonant = HamiltonianSpec.resonant(1.0, m=1, q=0.9)
        evolved = propagate(state, detuned, 3.0)
        assert np.linalg.norm(evolved.amplitudes) == pytest.approx(1.0, abs=1e-10)
        reference = propagate(state, resonant, 3.0)
        assert np.max(np.abs(evolved.amplitudes - reference.amplitudes)) > 1e-3


class TestReducedState:
    def test_product_state(self):
        field = coherent_weights(10.0, choose_cutoff(10.0, 1))
        state = initial_composite_state(excited_pair(), field)
        rho = reduced_atomic_state(state)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_trace_and_purity(self):
        field = coherent_weights(10.0, choose_cutoff(10.0, 1))
        spec = HamiltonianSpec.resonant(1.0, m=1, q=0.5)
        state = initial_composite_state(excited_pair(), field)
        for t in (0.5, 3.0, 8.0):
            rho = reduced_atomic_state(propagate(state, spec, t)).matrix
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.trace(rho @ rho).real <= 1.0 + 1e-10

    def test_rejects_bad_composite(self):
        with pytest.raises(ValueError):
            CompositeState(2, np.ones((4, 3), dtype=complex))
