import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdcavity import (
    AtomicInitialState,
    ConfigurationError,
    HamiltonianSpec,
    Propagator,
    amplitude_table,
    choose_cutoff,
    coherent_weights,
    compose,
    decompose,
    evolved_bloch,
    initial_composite_state,
    reduced_atomic_state,
)
from qdcavity.closedform import (AmplitudeTable, Reduction, _cached_couplings,
                                 bloch_from_table, kernel_factors)
from qdcavity.sweep import SweepConfig, sweep
from conftest import (normalized_atoms, random_ket, reference_amplitude_arrays,
                      reference_reductions)
from test_properties import amplitudes


def excited_pair():
    return AtomicInitialState(1.0, 0.0, 0.0, 0.0)


def standard_config(q=0.9, m=1, nbar=10.0):
    cutoff = choose_cutoff(nbar, m)
    field = coherent_weights(nbar, cutoff)
    spec = HamiltonianSpec(m=m, q=q)
    return field, spec


def random_atoms(rng):
    return AtomicInitialState(*random_ket(rng, 4))


def pure_bloch(atoms):
    """Pauli decomposition of the pure two-atom input |a><a|."""
    ket = atoms.vector
    return decompose(np.outer(ket, ket.conj()))


class TestInitialBloch:
    def test_doubly_excited(self):
        state = pure_bloch(excited_pair())
        np.testing.assert_allclose(state.s, [0, 0, 1], atol=1e-14)
        np.testing.assert_allclose(state.t, [0, 0, 1], atol=1e-14)
        np.testing.assert_allclose(state.cross, np.diag([0, 0, 1]), atol=1e-14)

    def test_single_excitation(self):
        state = pure_bloch(AtomicInitialState(0, 1.0, 0, 0))
        assert state.s[2] == 1.0
        assert state.t[2] == -1.0
        assert state.cross[2, 2] == -1.0

    def test_bell_combination(self):
        amp = 1.0 / math.sqrt(2.0)
        state = pure_bloch(AtomicInitialState(amp, 0, 0, amp))
        np.testing.assert_allclose(state.s, [0, 0, 0], atol=1e-14)
        np.testing.assert_allclose(state.t, [0, 0, 0], atol=1e-14)
        np.testing.assert_allclose(state.cross, np.diag([1, -1, 1]), atol=1e-14)


class TestAmplitudeQuadruple:
    def test_initial_values(self):
        # Column n + 2m of the table holds manifold n.
        atoms = normalized_atoms(0.8, 0.4, 0.3, 0.2)
        for m in (1, 2, 3):
            field, spec = standard_config(m=m)
            c = amplitude_table(0.0, atoms, field, spec).c
            for n in (0, 3, 10):
                c1, c2, c3, c4 = c[:, n + 2 * m]
                assert c1 == pytest.approx(atoms.a1 * field.weights[n])
                assert c2 == pytest.approx(atoms.a2 * field.weights[n + m])
                assert c3 == pytest.approx(atoms.a3 * field.weights[n + m])
                assert c4 == pytest.approx(atoms.a4 * field.weights[n + 2 * m])

    def test_vacuum_rabi_law(self):
        field = coherent_weights(0.0, 2)
        spec = HamiltonianSpec(m=1, q=1.0)
        for t in np.linspace(0.0, 12.0, 97):
            column = amplitude_table(t, excited_pair(), field, spec).c[:, 2]
            law = 1.0 - (2.0 / 3.0) * math.sin(math.sqrt(1.5) * t) ** 2
            assert abs(column[0] - law) < 1e-12
            assert np.sum(np.abs(column) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_cutoff_below_one_manifold(self):
        # The same error Propagator raises for the same condition.
        with pytest.raises(ConfigurationError, match="2m"):
            amplitude_table(0.0, excited_pair(), coherent_weights(0.0, 1),
                            HamiltonianSpec(m=1))


class TestNormalization:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("q", [0.0, 0.5, 0.9, 1.0])
    def test_total_weight_is_one(self, rng, q, m):
        # This identity is what fixes the sin(2 mu t)/(2 mu) denominator:
        # the printed extra 1/t factor would destroy it for t > 0.
        field, spec = standard_config(q=q, m=m)
        for atoms in (excited_pair(), random_atoms(rng)):
            for t in np.linspace(0.0, 10.0, 21):
                table = amplitude_table(t, atoms, field, spec)
                assert table.total_weight == pytest.approx(1.0, abs=1e-9)

    def test_total_weight_reads_the_populations_alone(self, rng, monkeypatch):
        # The populations of the full reduction, tail grams included, bit
        # for bit, with no correlation formed: reduce_into never runs.
        field, spec = standard_config(q=0.5, m=1, nbar=400.0)
        atoms, times = random_atoms(rng), np.linspace(0.0, 20.0, 6)
        expected = np.sum(amplitude_table(times, atoms, field, spec).populations, 0)
        table = amplitude_table(times, atoms, field, spec)
        assert table.tail is not None

        def reduce_into(*args):
            raise AssertionError("total_weight ran the whole reduction")

        monkeypatch.setattr(AmplitudeTable, "reduce_into", reduce_into)
        assert same_bits(table.total_weight, expected)
        assert "_reduction" not in vars(table)

    def test_tail_manifolds_carry_the_low_fock_states(self, rng):
        # With general amplitudes the eg/ge/gg populations on Fock states
        # below m live in the negative-index manifolds; dropping them
        # would lose about W_0^2 of weight at nbar = 10.
        field, spec = standard_config()
        atoms = normalized_atoms(0.0, 1.0, 1.0, 1.0)
        table = amplitude_table(2.0, atoms, field, spec)
        tail_weight = np.sum(np.abs(table.c[:, :2 * spec.m]) ** 2)
        assert tail_weight > 1e-6


class TestEvolvedBloch:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(parts=amplitudes, q=st.floats(0.0, 1.0), m=st.integers(1, 3),
           nbar=st.floats(0.0, 50.0))
    def test_matches_initial_at_t_zero(self, parts, q, m, nbar):
        atoms = normalized_atoms(
            *(complex(re, im) for re, im in zip(parts[::2], parts[1::2])))
        field, spec = standard_config(q=q, m=m, nbar=nbar)
        evolved = evolved_bloch(0.0, atoms, field, spec)
        start = pure_bloch(atoms)
        np.testing.assert_allclose(evolved.s, start.s, atol=1e-10)
        np.testing.assert_allclose(evolved.t, start.t, atol=1e-10)
        np.testing.assert_allclose(evolved.cross, start.cross, atol=1e-10)

    def test_exchange_symmetry(self):
        # Identical couplings and a2 = a3 keep the two atoms equivalent.
        field, spec = standard_config(q=0.5)
        atoms = normalized_atoms(0.6, 0.4, 0.4, 0.2)
        for t in np.linspace(0.0, 8.0, 17):
            state = evolved_bloch(t, atoms, field, spec)
            np.testing.assert_allclose(state.s, state.t, atol=1e-12)

    def test_agrees_with_exact_engine_random_state(self, rng):
        # Spot check with a general initial state (the doubly-excited
        # sweep is covered by the acceptance grid).
        field, spec = standard_config(q=0.9)
        atoms = random_atoms(rng)
        initial = initial_composite_state(atoms, field)
        prop = Propagator(spec, field.cutoff)
        for t in (0.5, 2.0, 7.5):
            analytic = evolved_bloch(t, atoms, field, spec)
            reference = decompose(reduced_atomic_state(prop.evolve(initial, t)))
            np.testing.assert_allclose(analytic.s, reference.s, atol=1e-8)
            np.testing.assert_allclose(analytic.t, reference.t, atol=1e-8)
            np.testing.assert_allclose(analytic.cross, reference.cross,
                                       atol=1e-8)

    def test_reconstructed_density_is_physical(self):
        field, spec = standard_config(q=0.5, m=2)
        for t in np.linspace(0.0, 10.0, 11):
            rho = compose(evolved_bloch(t, excited_pair(), field, spec))
            assert rho.warnings == ()
            eigvals = np.linalg.eigvalsh(rho.matrix)
            assert eigvals[0] > -1e-9

    def test_bloch_norms_bounded(self):
        field, spec = standard_config(q=0.9, m=2)
        for t in np.linspace(0.0, 10.0, 21):
            state = evolved_bloch(t, excited_pair(), field, spec)
            assert np.linalg.norm(state.s) <= 1.0 + 1e-9
            assert np.linalg.norm(state.t) <= 1.0 + 1e-9


def same_bits(got, expected) -> bool:
    """Equal shape, dtype and bytes: stricter than np.array_equal, which
    takes -0.0 for 0.0."""
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and got.dtype == expected.dtype \
        and got.tobytes() == expected.tobytes()


def reference_bloch(c, m):
    """bloch_from_table on the reference populations and correlations."""
    populations, correlations = reference_reductions(c, m)
    return bloch_from_table(Reduction(np.array(populations),
                                      np.array(correlations)))


def explicit_last(field, spec) -> int:
    """X = min(cutoff, head + 2m), with head found by walking back from
    the cutoff while the rates keep the last rate's bits."""
    mu = _cached_couplings(field.cutoff, spec.m, spec.q)[2]
    head = mu.size - 1
    while head and mu[head - 1] == mu[-1]:
        head -= 1
    return min(field.cutoff, head + 2 * spec.m)


def assert_bloch_close(got, expected, atol=1e-13):
    for name in ("s", "t", "cross"):
        np.testing.assert_allclose(getattr(got, name), getattr(expected, name),
                                   rtol=0, atol=atol)


deformations = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
times = st.one_of(
    st.just(0.0), st.floats(0.0, 20.0),
    st.lists(st.floats(0.0, 20.0), min_size=1, max_size=300).map(np.array))
MIXED = [0.6, 0.2, 0.1, -0.3, -0.3, 0.5, 0.0, 0.4]
EE = [1.0] + [0.0] * 7
EDGES = [0.6, 0.2, 0.0, 0.0, 0.0, 0.0, -0.3, 0.5]


class TestBitIdentity:
    """The workspace kernel against the fresh-array reference copied into
    conftest: its explicit columns [0, X] bit for bit when a2 = a3 = 0
    (every preset), else to 1e-15, since K folds a2 and a3 into the
    weights before the reals multiply them; the reductions, whose tail past
    X is summed in closed form, to 1e-13."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(parts=amplitudes, q=deformations, m=st.integers(1, 3),
           nbar=st.floats(0.0, 50.0), t=times)
    @example(parts=EE, q=0.0, m=3, nbar=10.0, t=0.0)
    # |ee> and a1|ee> + a4|gg>, whose tables keep the reference's bits.
    @example(parts=EE, q=0.0, m=3, nbar=10.0, t=np.linspace(0.0, 20.0, 7))
    @example(parts=EDGES, q=0.0, m=3, nbar=10.0, t=np.linspace(0.0, 20.0, 7))
    @example(parts=EE, q=0.945, m=1, nbar=400.0, t=np.linspace(0.0, 20.0, 7))
    @example(parts=EDGES, q=0.945, m=1, nbar=400.0,
             t=np.linspace(0.0, 20.0, 7))
    # -|ee> at nbar 0 and t = 0: row 0 holds -0 where w_n = 0, kept only
    # if the kernel subtracts its second and third terms.
    @example(parts=[-1.0] + [0.0] * 7, q=0.0, m=1, nbar=0.0, t=0.0)
    # Saturated tails of 621, 609 and 4 columns at cutoff 627 or 631.
    @example(parts=MIXED, q=0.0, m=3, nbar=400.0, t=np.linspace(0.0, 20.0, 7))
    @example(parts=MIXED, q=0.1, m=1, nbar=400.0, t=np.linspace(0.0, 20.0, 7))
    @example(parts=MIXED, q=0.945, m=1, nbar=400.0,
             t=np.linspace(0.0, 20.0, 7))
    # Across the boundary at small cutoffs: head + 2m equal to the cutoff
    # (no tail), one column short of it (a one-column tail), q = 1 (head
    # is the cutoff), q = 0 with m = 3, and nbar 0 and 2.
    @example(parts=MIXED, q=0.508, m=1, nbar=10.0, t=np.linspace(0.0, 20.0, 7))
    @example(parts=MIXED, q=0.512, m=1, nbar=10.0, t=np.linspace(0.0, 20.0, 7))
    @example(parts=MIXED, q=0.49, m=3, nbar=10.0, t=np.linspace(0.0, 20.0, 7))
    @example(parts=MIXED, q=0.475, m=3, nbar=10.0, t=1.5)
    @example(parts=MIXED, q=1.0, m=2, nbar=10.0, t=np.linspace(0.0, 20.0, 7))
    @example(parts=MIXED, q=0.0, m=3, nbar=10.0, t=np.linspace(0.0, 20.0, 7))
    @example(parts=MIXED, q=0.0, m=3, nbar=0.0, t=2.5)
    @example(parts=MIXED, q=0.2, m=2, nbar=2.0, t=np.linspace(0.0, 20.0, 7))
    def test_table_and_reductions(self, parts, q, m, nbar, t):
        atoms = normalized_atoms(
            *(complex(re, im) for re, im in zip(parts[::2], parts[1::2])))
        field, spec = standard_config(q=q, m=m, nbar=nbar)
        table = amplitude_table(t, atoms, field, spec)
        reference = reference_amplitude_arrays(t, atoms, field, spec)
        explicit = reference[..., :explicit_last(field, spec) + 1]
        if atoms.a2 == atoms.a3 == 0:
            assert same_bits(table.c, explicit)
        else:
            np.testing.assert_allclose(table.c, explicit, rtol=0, atol=1e-15)
        populations, correlations = reference_reductions(reference, m)
        np.testing.assert_allclose(table.populations, populations,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(table.correlations, correlations,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(table.total_weight, np.sum(populations, 0),
                                   rtol=0, atol=1e-13)
        assert_bloch_close(bloch_from_table(table), reference_bloch(reference, m))

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(parts=amplitudes, q=deformations, m=st.integers(1, 3),
           nbar=st.floats(0.0, 50.0), steps=st.integers(2, 700))
    @example(parts=MIXED, q=0.9, m=1, nbar=400.0, steps=301)
    @example(parts=MIXED, q=0.0, m=3, nbar=10.0, steps=301)
    @example(parts=MIXED, q=0.1, m=1, nbar=400.0, steps=301)
    @example(parts=MIXED, q=0.945, m=1, nbar=400.0, steps=301)
    @example(parts=MIXED, q=0.512, m=1, nbar=10.0, steps=301)
    @example(parts=MIXED, q=1.0, m=1, nbar=10.0, steps=301)
    def test_sweep_blocks(self, parts, q, m, nbar, steps):
        # Blocks of 256 times end inside a kernel chunk of CHUNK_CELLS //
        # (X + 1) times, and the last block is shorter.
        config = SweepConfig(q_values=(q,), m=m, nbar=nbar, steps=steps,
                             atoms=tuple(normalized_atoms(*(
                                 complex(re, im) for re, im in
                                 zip(parts[::2], parts[1::2]))).amplitudes))
        atoms, field = config.atomic_state(), config.field()
        for _, block, bloch, _ in sweep(config):
            reference = reference_amplitude_arrays(
                block, atoms, field, config.hamiltonian(q))
            assert_bloch_close(bloch, reference_bloch(reference, m))


class TestSaturatedTail:
    """kernel_factors' head: the first column of the trailing run of one
    Rabi rate, from which the kernel copies its reals."""

    @staticmethod
    def head_and_rates(q, m, nbar):
        field, spec = standard_config(q=q, m=m, nbar=nbar)
        factors = kernel_factors(excited_pair(), field, spec)
        return factors.head, _cached_couplings(field.cutoff, m, q)[2]

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(q=deformations, m=st.integers(1, 3),
           nbar=st.sampled_from([0.0, 10.0, 400.0]))
    def test_head_starts_the_trailing_run(self, q, m, nbar):
        head, mu = self.head_and_rates(q, m, nbar)
        assert (mu[head:].view(np.int64) == mu[head:head + 1].view(np.int64)).all()
        assert head == 0 or mu[head - 1] != mu[head]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_head_at_the_limits(self, m):
        # q = 0 saturates the ladder at m photons: from n = 0 (column 2m)
        # on, both couplings are 1 and every rate is sqrt((1 + 1)/2) = 1;
        # at q = 1 no two manifolds share a rate and the tail is empty.
        head, mu = self.head_and_rates(0.0, m, 400.0)
        assert head == 2 * m and mu[head] == 1.0
        head, mu = self.head_and_rates(1.0, m, 400.0)
        assert head == mu.size - 1
