import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdcavity import (
    AtomicInitialState,
    DensityMatrix,
    HamiltonianSpec,
    UnknownQubit,
    amplitude_table,
    average_fidelity,
    bloch_from_table,
    bloch_vector,
    branch_map,
    choose_cutoff,
    circuit_teleport,
    closed_form_bob,
    coherent_weights,
    compose,
    decompose,
    fidelity_overlap,
    fidelity_paper,
)
from qdcavity import cli
from qdcavity.sweep import sweep
from qdcavity.teleport import OUTCOME_LABELS
from conftest import bell_phi_plus, random_density, random_ket

RSQRT2 = 1.0 / np.sqrt(2.0)


def random_unknown(rng):
    ket = random_ket(rng, 2)
    return UnknownQubit(alpha=ket[0], beta=ket[1])


class TestUnknownQubit:
    def test_bloch_components(self):
        u = UnknownQubit(alpha=0.6, beta=0.8j)
        z = 0.6 * np.conj(0.8j)
        np.testing.assert_allclose(
            u.su, [2 * z.real, 2 * z.imag, 0.36 - 0.64], atol=1e-14)

    def test_pure_inputs_have_unit_bloch(self, rng):
        for _ in range(20):
            assert np.linalg.norm(random_unknown(rng).su) == pytest.approx(
                1.0, abs=1e-12)

    def test_from_bloch_round_trip(self, rng):
        for _ in range(20):
            su = random_unknown(rng).su
            np.testing.assert_allclose(UnknownQubit.from_bloch(su).su, su,
                                       atol=1e-10)
        np.testing.assert_allclose(
            UnknownQubit.from_bloch((0, 0, -1)).su, [0, 0, -1], atol=1e-14)

    def test_from_bloch_takes_a_stack(self, rng):
        su = np.array([random_unknown(rng).su for _ in range(20)] + POLES)
        stacked = UnknownQubit.from_bloch(su.reshape(2, 13, 3))
        assert stacked.ket.shape == (2, 13, 2)
        assert np.array_equal(stacked.ket.reshape(-1, 2),
                              [UnknownQubit.from_bloch(v).ket for v in su])
        with pytest.raises(ValueError, match=r"got 1\.4142135623730951$"):
            UnknownQubit.from_bloch([(1, 0, 0), (1, 1, 0)])

    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError):
            UnknownQubit(alpha=1.0, beta=1.0)

    def test_rejection_messages_hold_plain_floats(self):
        with pytest.raises(ValueError, match=r"=2\.0$"):
            UnknownQubit(alpha=np.complex128(1), beta=np.complex128(1))
        with pytest.raises(ValueError, match=r"got 1\.4142135623730951$"):
            UnknownQubit.from_bloch((1, 1, 0))


class TestCircuit:
    def test_ideal_channel_every_branch(self, rng):
        channel = bell_phi_plus()
        for _ in range(50):
            unknown = random_unknown(rng)
            probability, bob_state = circuit_teleport(channel, unknown)
            assert sum(probability) == pytest.approx(1.0, abs=1e-10)
            assert probability == pytest.approx(0.25, abs=1e-12)
            assert fidelity_overlap(unknown, bob_state) == pytest.approx(
                1.0, abs=1e-10)

    def test_uncorrelated_channel(self):
        channel = DensityMatrix.from_matrix(np.eye(4, dtype=complex) / 4.0)
        unknown = UnknownQubit(alpha=RSQRT2, beta=RSQRT2)
        _, bob_state = circuit_teleport(channel, unknown)
        np.testing.assert_allclose(
            bob_state.matrix, np.broadcast_to(np.eye(2) / 2.0, (4, 2, 2)),
            atol=1e-12)

    def test_product_channel_regression(self, rng):
        # |ee><ee| channel: the receiver ends in |e><e| before correction
        # whatever the input, so the corrected branches alternate between
        # the poles and every overlap with an equatorial input is 1/2.
        channel = DensityMatrix.from_matrix(np.diag([1.0, 0, 0, 0]))
        unknown = UnknownQubit(alpha=RSQRT2, beta=RSQRT2)
        probability, bob_state = circuit_teleport(channel, unknown)
        expected_sb = {"ee": [0, 0, 1], "eg": [0, 0, -1],
                       "ge": [0, 0, 1], "gg": [0, 0, -1]}
        assert probability == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(
            bloch_vector(bob_state),
            [expected_sb[label] for label in OUTCOME_LABELS], atol=1e-12)
        assert average_fidelity(
            probability, fidelity_overlap(unknown, bob_state)) == \
            pytest.approx(0.5, abs=1e-12)
        # input independence of the branch poles
        _, bob_state = circuit_teleport(channel, random_unknown(rng))
        assert np.all(np.abs(np.abs(bloch_vector(bob_state)[:, 2]) - 1.0)
                      < 1e-12)

    def test_probabilities_sum_to_one(self, rng):
        unknown = UnknownQubit(alpha=0.6, beta=0.8)
        for _ in range(100):
            channel = DensityMatrix.from_matrix(random_density(rng, 4))
            probability, _ = circuit_teleport(channel, unknown)
            assert sum(probability) == pytest.approx(1.0, abs=1e-10)

    def test_affine_in_channel(self, rng):
        # Probability-weighted branch states mix linearly with the channel.
        unknown = random_unknown(rng)
        rho1, rho2 = random_density(rng, 4), random_density(rng, 4)
        p = 0.3
        mixed = DensityMatrix.from_matrix(p * rho1 + (1 - p) * rho2)

        def weighted(channel):
            probability, bob_state = circuit_teleport(channel, unknown)
            return probability[:, None, None] * bob_state.matrix

        combined = (p * weighted(DensityMatrix.from_matrix(rho1))
                    + (1 - p) * weighted(DensityMatrix.from_matrix(rho2)))
        np.testing.assert_allclose(weighted(mixed), combined, atol=1e-12)

    def test_oracle_keeps_its_own_gates(self):
        # The circuit checks the map, so neither reads the other's tables.
        assert {"branch_map", "_ETA", "_FLIP", "closed_form_bob"}.isdisjoint(
            circuit_teleport.__code__.co_names)
        assert {"_UNITARY", "_CORRECTIONS"}.isdisjoint(
            branch_map.__code__.co_names)

    def test_rejects_unphysical_channel(self):
        with pytest.raises(Exception):
            circuit_teleport(np.eye(4, dtype=complex),
                             UnknownQubit(alpha=1.0, beta=0.0))


class TestClosedFormBob:
    def setup_method(self):
        cutoff = choose_cutoff(10.0, 1)
        self.field = coherent_weights(10.0, cutoff)
        self.spec = HamiltonianSpec(m=1, q=0.9)
        self.atoms = AtomicInitialState(1.0, 0.0, 0.0, 0.0)

    def test_initial_channel_value(self):
        # Over |ee> the ee branch carries the input's |e> weight |alpha|^2.
        table = amplitude_table(0.0, self.atoms, self.field, self.spec)
        unknown = UnknownQubit(alpha=0.6, beta=0.8)
        np.testing.assert_allclose(closed_form_bob(unknown, table),
                                   [0.0, 0.0, 0.36], atol=1e-12)

    def test_pole_input_gives_nothing(self):
        table = amplitude_table(0.0, self.atoms, self.field, self.spec)
        unknown = UnknownQubit(alpha=0.0, beta=1.0)
        np.testing.assert_allclose(closed_form_bob(unknown, table),
                                   [0.0, 0.0, 0.0], atol=1e-14)

    def test_matches_circuit_branch(self):
        # On the six poles, which tell |e> from |g>, the sums reproduce the
        # ee branch carrying twice its probability, not its unit-trace
        # state.
        unknown = inputs_along(POLES)
        table = amplitude_table(np.linspace(0.0, 10.0, 21), self.atoms,
                                self.field, self.spec)
        p, bob_state = circuit_teleport(compose(bloch_from_table(table)),
                                        unknown)
        sb = bloch_vector(bob_state)[..., 0, :]
        analytic = closed_form_bob(unknown, table)
        assert analytic.shape == (len(POLES), 21, 3)
        carried = 2.0 * p[..., :1] * sb
        assert np.max(np.abs(analytic - carried)) < 1e-13
        assert np.max(np.abs(analytic - sb)) > 0.5


class TestFidelities:
    def test_paper_scale(self):
        su = np.array([1.0, 0.0, 0.0])
        assert fidelity_paper(su, su) == 0.5
        assert fidelity_paper(su, np.zeros(3)) == 0.25
        assert fidelity_paper(su, -su) == 0.0

    def test_overlap_reference_points(self):
        unknown = UnknownQubit(alpha=RSQRT2, beta=RSQRT2)
        assert fidelity_overlap(unknown, unknown.density) == pytest.approx(1.0)
        assert fidelity_overlap(unknown, np.eye(2) / 2.0) == pytest.approx(0.5)

    def test_average_on_ideal_channel(self, rng):
        unknown = random_unknown(rng)
        probability, bob_state = circuit_teleport(bell_phi_plus(), unknown)
        assert average_fidelity(
            probability, fidelity_overlap(unknown, bob_state)) == \
            pytest.approx(1.0, abs=1e-10)

    def test_paper_score_capped_at_half(self):
        # Over the standard teleportation sweep the quarter-normalised
        # score never exceeds 0.5.
        cutoff = choose_cutoff(10.0, 1)
        field = coherent_weights(10.0, cutoff)
        atoms = AtomicInitialState(1.0, 0.0, 0.0, 0.0)
        unknown = UnknownQubit.from_bloch((1.0, 0.0, 0.0))
        for q in (0.5, 0.9):
            spec = HamiltonianSpec(m=1, q=q)
            for t in np.linspace(0.0, 10.0, 51):
                table = amplitude_table(t, atoms, field, spec)
                score = fidelity_paper(unknown.su,
                                       closed_form_bob(unknown, table))
                assert score <= 0.5 + 1e-12


POLES = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0),
         (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)]
unit_inputs = st.one_of(
    st.sampled_from(POLES),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: np.linalg.norm(v) > 1e-3))


def input_along(direction) -> UnknownQubit:
    """The input along a direction, or along each of a stack of them."""
    su = np.asarray(direction, dtype=float)
    return UnknownQubit.from_bloch(
        su / np.linalg.norm(su, axis=-1, keepdims=True))


def inputs_along(directions) -> UnknownQubit:
    """The inputs along each direction, stacked on a leading axis against
    a time axis."""
    return input_along(np.asarray(directions, dtype=float)[:, None])


def generated_channel(kind: int, rng) -> np.ndarray:
    """Kinds 0-3: the basis states |ee>, |eg>, |ge>, |gg>, which leave a
    pole input two branches of probability zero; kind 4: the ideal
    channel; kinds 5-8: a random density of rank kind - 4."""
    if kind < 4:
        rho = np.zeros((4, 4), dtype=complex)
        rho[kind, kind] = 1.0
        return rho
    if kind == 4:
        return bell_phi_plus().matrix
    g = rng.normal(size=(4, kind - 4)) + 1j * rng.normal(size=(4, kind - 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestBranchMap:
    """branch_map against circuit_teleport, the oracle it replaced on the
    CLI's run path."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.integers(0, 8), min_size=1, max_size=4),
           stacked=st.booleans(), direction=unit_inputs)
    @example(seed=0, kinds=[0, 3, 8], stacked=True, direction=(0.0, 0.0, 1.0))
    def test_matches_circuit(self, seed, kinds, stacked, direction):
        rng = np.random.default_rng(seed)
        channels = np.array([generated_channel(k, rng) for k in kinds])
        if not stacked:
            channels = channels[0]
        unknown = input_along(direction)
        probability, sb = branch_map(decompose(channels), unknown.su)
        assert probability.shape == channels.shape[:-2] + (4,)
        circuit_p, bob_state = circuit_teleport(channels, unknown)
        assert np.max(np.abs(probability - circuit_p)) <= 1e-13
        assert np.max(np.abs(sb - bloch_vector(bob_state))) <= 1e-13
        overlap = (1.0 + np.linalg.vecdot(sb, unknown.su)) / 2.0
        circuit = fidelity_overlap(unknown, bob_state)
        assert np.max(np.abs(overlap - circuit)) <= 1e-13

    def test_zero_probability_branches_are_mixed(self):
        # |ee> with the input |e>: the eg and gg branches never occur.
        probability, sb = branch_map(decompose(generated_channel(0, None)),
                                     input_along((0.0, 0.0, 1.0)).su)
        assert probability.tolist() == [0.5, 0.0, 0.5, 0.0]
        assert not sb[[1, 3]].any()

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(
               lambda v: np.linalg.norm(v) > 1e-3),
           q=st.floats(0.0, 1.0), m=st.integers(1, 3),
           nbar=st.floats(0.0, 20.0), t=st.floats(0.0, 20.0),
           direction=unit_inputs,
           others=st.lists(unit_inputs, min_size=1, max_size=3))
    def test_closed_form_bob_is_twice_the_ee_weight(self, parts, q, m, nbar,
                                                    t, direction, others):
        # closed_form_bob reads alpha on |e>, as the map and the circuit
        # do, for one input and for a stack of them.
        atoms = np.array(parts[::2]) + 1j * np.array(parts[1::2])
        atoms = AtomicInitialState(*(atoms / np.linalg.norm(atoms)))
        field = coherent_weights(nbar, choose_cutoff(nbar, m))
        table = amplitude_table(t, atoms, field, HamiltonianSpec(m=m, q=q))
        for unknown in (input_along(direction),
                        inputs_along([direction, *others])):
            probability, sb = branch_map(bloch_from_table(table), unknown.su)
            carried = 2.0 * probability[..., :1] * sb[..., 0, :]
            analytic = closed_form_bob(unknown, table)
            assert analytic.shape == carried.shape
            assert np.max(np.abs(analytic - carried)) <= 1e-13

    def test_closed_form_bob_on_the_x_axis(self):
        field = coherent_weights(10.0, choose_cutoff(10.0, 1))
        table = amplitude_table(np.linspace(0.0, 10.0, 51),
                                AtomicInitialState(1.0, 0.0, 0.0, 0.0), field,
                                HamiltonianSpec(m=1, q=0.9))
        unknown = input_along((1.0, 0.0, 0.0))
        probability, sb = branch_map(bloch_from_table(table), unknown.su)
        carried = 2.0 * probability[:, 0, None] * sb[:, 0]
        assert np.max(np.abs(closed_form_bob(unknown, table)
                             - carried)) <= 1e-13

    def test_cli_columns_match_the_circuit(self):
        # This input moves 6 printed cells in their 12th digit against
        # the circuit (worst 1.0e-12); no golden hash pins it.
        argv = ["teleport", "--fig", "3a", "--alpha", "0.6+0.2i",
                "--beta", "0.3-0.714142842854285i"]
        config = cli._resolve(cli.build_parser().parse_args(argv), "teleport")
        buffer = io.StringIO()
        assert cli.cmd_teleport(config, buffer) == 0
        rows = [line.split(",") for line in buffer.getvalue().splitlines()
                if line and not line.startswith("#")][1:]
        unknown = config.unknown_qubit()
        expected = []
        for _, times, bloch, _ in sweep(config):
            probability, bob_state = circuit_teleport(compose(bloch), unknown)
            overlap = fidelity_overlap(unknown, bob_state)
            weighted = 2.0 * probability[..., None] * bloch_vector(bob_state)
            average = average_fidelity(probability, overlap)
            columns = np.stack([
                probability,
                fidelity_paper(unknown.su, weighted),
                overlap,
                np.broadcast_to(average[:, None], probability.shape)], axis=-1)
            expected.append(columns.reshape(-1, 4))
        expected = np.concatenate(expected)
        printed = np.array([[float(v) for v in row[3:]] for row in rows])
        assert printed.shape == expected.shape == (1608, 4)
        assert np.max(np.abs(printed - expected)) <= 1.5e-12
