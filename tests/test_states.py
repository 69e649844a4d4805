import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdcavity import (
    DensityMatrix,
    PhysicalityError,
    Propagator,
    TwoQubitBlochState,
    bloch_vector,
    compose,
    decompose,
    entanglement_degree,
    initial_composite_state,
    negativity,
    purity,
    reduced_atomic_state,
)
from qdcavity.sweep import SweepConfig, sweep
from conftest import (bell_phi_plus, random_density, random_product_density,
                      reference_decompose)


def bloch(s, t, cross):
    return TwoQubitBlochState(s=np.asarray(s, dtype=float),
                              t=np.asarray(t, dtype=float),
                              cross=np.asarray(cross, dtype=float))


MAXIMALLY_MIXED = bloch([0, 0, 0], [0, 0, 0], np.zeros((3, 3)))


class TestDecompose:
    def test_maximally_mixed(self):
        state = decompose(np.eye(4, dtype=complex) / 4.0)
        assert np.max(np.abs(state.s)) == 0.0
        assert np.max(np.abs(state.t)) == 0.0
        assert np.max(np.abs(state.cross)) == 0.0

    def test_doubly_excited(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        state = decompose(rho)
        np.testing.assert_allclose(state.s, [0, 0, 1], atol=1e-14)
        np.testing.assert_allclose(state.t, [0, 0, 1], atol=1e-14)
        np.testing.assert_allclose(state.cross, np.diag([0, 0, 1]), atol=1e-14)

    def test_round_trip(self, rng):
        for _ in range(20):
            rho = random_density(rng, 4)
            again = compose(decompose(rho)).matrix
            assert np.max(np.abs(again - rho)) < 1e-12

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 0.2
        with pytest.raises(PhysicalityError):
            decompose(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(PhysicalityError):
            decompose(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(PhysicalityError, match="negative eigenvalue"):
            decompose(np.diag([0.6, 0.6, -0.1, -0.1]))


class TestCompose:
    def test_zero_state_is_maximally_mixed(self):
        rho = compose(MAXIMALLY_MIXED)
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4.0, atol=1e-15)

    def test_bell_dyadic(self):
        state = bloch([0, 0, 0], [0, 0, 0], np.diag([1.0, -1.0, 1.0]))
        rho = compose(state)
        np.testing.assert_allclose(rho.matrix, bell_phi_plus().matrix,
                                   atol=1e-14)
        assert rho.warnings == ()

    def test_unphysical_input_warns(self):
        state = bloch([0, 0, 0], [0, 0, 0], np.diag([1.0, 1.0, 1.0]))
        rho = compose(state)
        assert rho.warnings and "negative eigenvalue" in rho.warnings[0]


class TestPurity:
    def test_reference_values(self):
        assert purity(MAXIMALLY_MIXED) == 0.25
        pure_product = bloch([0, 0, 1], [0, 0, 1], np.diag([0, 0, 1]))
        assert purity(pure_product) == pytest.approx(1.0, abs=1e-15)
        bell = bloch([0, 0, 0], [0, 0, 0], np.diag([1, -1, 1]))
        assert purity(bell) == pytest.approx(1.0, abs=1e-15)

    def test_bounds_on_random_states(self, rng):
        for _ in range(1000):
            p = purity(decompose(random_density(rng, 4)))
            assert 0.25 - 1e-9 <= p <= 1.0 + 1e-9

    def test_matches_trace_of_square(self, rng):
        for _ in range(20):
            rho = random_density(rng, 4)
            assert purity(decompose(rho)) == pytest.approx(
                np.trace(rho @ rho).real, abs=1e-12)


class TestEntanglementDegree:
    def test_product_states_vanish(self, rng):
        for _ in range(100):
            rho = random_product_density(rng)
            assert entanglement_degree(decompose(rho)) < 1e-9

    def test_bell_value(self):
        assert entanglement_degree(decompose(bell_phi_plus())) == pytest.approx(
            3.0, abs=1e-12)

    def test_initial_product_channel(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert entanglement_degree(decompose(rho)) < 1e-15

    def test_range_on_random_states(self, rng):
        for _ in range(1000):
            value = entanglement_degree(decompose(random_density(rng, 4)))
            assert -1e-12 <= value <= 3.0 + 1e-9

    def test_local_rotation_invariance(self, rng):
        # s -> R s, t -> Q t, C -> R C Q^T leaves the measure unchanged.
        def random_rotation():
            mat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(mat) < 0:
                mat[:, 0] = -mat[:, 0]
            return mat

        for _ in range(10):
            state = decompose(random_density(rng, 4))
            r, q = random_rotation(), random_rotation()
            rotated = TwoQubitBlochState(
                s=r @ state.s, t=q @ state.t, cross=r @ state.cross @ q.T)
            assert entanglement_degree(rotated) == pytest.approx(
                entanglement_degree(state), abs=1e-10)


def assert_same_bits(state, reference):
    for name in ("s", "t", "cross"):
        assert np.array_equal(getattr(state, name), getattr(reference, name))


def generated_density(rng, rank: int) -> np.ndarray:
    """A 4x4 density matrix of the given rank, from a Gaussian factor."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def with_exact_oracle(config):
    """sweep(config)'s (bloch, reference) per block, each with the exact
    engine's Bloch stack at the block's times as the oracle computes it:
    reference_decompose of reduced_atomic_state, evolved in one call over
    the whole time grid rather than in the sweep's chunks."""
    field = config.field()
    initial = initial_composite_state(config.atomic_state(), field)
    grid, start = config.time_grid, 0
    for q, times, bloch, reference in sweep(config):
        if start == 0:
            whole = reference_decompose(reduced_atomic_state(Propagator(
                config.hamiltonian(q), field.cutoff).evolve(initial, grid)))
        rows = slice(start, start + len(times))
        assert np.array_equal(times, grid[rows])
        yield bloch, reference, TwoQubitBlochState(
            whole.s[rows], whole.t[rows], whole.cross[rows])
        start = (start + len(times)) % len(grid)


class TestDecomposeBits:
    """decompose gathers one entry per column of each Pauli product and
    must keep the bits of the matrix-product form it replaced."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4),
           stack=st.sampled_from([(), (1,), (7,), (3, 5)]))
    def test_random_densities(self, seed, rank, stack):
        rng = np.random.default_rng(seed)
        rho = np.array([generated_density(rng, rank)
                        for _ in range(int(np.prod(stack)))]).reshape(
            stack + (4, 4))
        assert_same_bits(decompose(rho), reference_decompose(rho))

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(
               lambda v: np.linalg.norm(v) > 1e-3),
           q=st.floats(0.0, 1.0), m=st.integers(1, 3),
           nbar=st.floats(0.0, 20.0))
    def test_states_of_both_engines(self, parts, q, m, nbar):
        atoms = np.array(parts[::2]) + 1j * np.array(parts[1::2])
        atoms = tuple(atoms / np.linalg.norm(atoms))
        config = SweepConfig(engine="both", q_values=(q,), m=m, nbar=nbar,
                             steps=21, atoms=atoms)
        for bloch, reference, oracle in with_exact_oracle(config):
            assert_same_bits(reference, oracle)
            closed = compose(bloch)
            assert_same_bits(decompose(closed), reference_decompose(closed))

    def test_nbar_400_exact_sweep(self):
        config = SweepConfig(engine="exact", q_values=(0.5, 0.9), nbar=400.0,
                             steps=101, atoms=(0.6 + 0.2j, 0.1 - 0.3j,
                                               -0.3 + 0.5j, 0.4j))
        assert config.field().cutoff == 627
        for bloch, reference, oracle in with_exact_oracle(config):
            assert reference is None
            assert_same_bits(bloch, oracle)


def test_sweep_yields_the_runs_bloch_stack_and_the_exact_reference():
    # Two blocks per q (256 + 45 times).  Only "both" yields a reference,
    # its bloch is the closed form's, and the suspended sweep holds no
    # density matrix: the exact engine's states are decomposed inside it.
    def run(engine):
        return sweep(SweepConfig(engine=engine, q_values=(0.5, 0.9), m=2,
                                 steps=301))

    closed = list(run("closed"))
    assert [len(times) for _, times, _, _ in closed] == [256, 45] * 2
    assert all(reference is None for *_, reference in closed)
    for engine in ("exact", "both"):
        blocks = run(engine)
        for (_, times, bloch, reference), (_, _, closed_bloch, _) in zip(
                blocks, closed, strict=True):
            held = blocks.gi_frame.f_locals
            assert "reduced" not in held
            assert not any(isinstance(value, DensityMatrix)
                           for value in held.values())
            if engine == "exact":
                assert reference is None
            else:
                assert_same_bits(bloch, closed_bloch)
                assert reference.s.shape == (len(times), 3)


def test_compose_keeps_each_smallest_eigenvalue(rng):
    # compose's matrix is exactly Hermitian, so the spectrum from_matrix
    # takes of its symmetrised input is the matrix's own, bit for bit.
    stack = np.array([generated_density(rng, rank) for rank in (1, 2, 3, 4)
                      for _ in range(3)]).reshape(4, 3, 4, 4)
    rho = compose(decompose(stack))
    assert rho.min_eigenvalue.shape == (4, 3)
    assert np.array_equal(rho.min_eigenvalue,
                          np.linalg.eigvalsh(rho.matrix)[..., 0])


class TestNegativity:
    def test_bell(self):
        assert negativity(bell_phi_plus()) == pytest.approx(0.5, abs=1e-12)

    def test_product(self, rng):
        for _ in range(20):
            assert negativity(random_product_density(rng)) < 1e-12

    def test_maximally_mixed(self):
        assert negativity(np.eye(4, dtype=complex) / 4.0) == 0.0


class TestBlochVector:
    def test_pure_states(self):
        up = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(bloch_vector(up), [0, 0, 1], atol=1e-14)
        plus = np.full((2, 2), 0.5, dtype=complex)
        np.testing.assert_allclose(bloch_vector(plus), [1, 0, 0], atol=1e-14)

    def test_purity_from_length(self, rng):
        rho = random_density(rng, 2)
        v = bloch_vector(rho)
        assert np.trace(rho @ rho).real == pytest.approx(
            (1.0 + v @ v) / 2.0, abs=1e-12)
