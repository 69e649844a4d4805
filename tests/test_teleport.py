import numpy as np
import pytest

from qdcavity import (
    AtomicInitialState,
    DensityMatrix,
    HamiltonianSpec,
    UnknownQubit,
    amplitude_table,
    average_fidelity,
    bloch_from_table,
    choose_cutoff,
    circuit_teleport,
    closed_form_bob,
    coherent_weights,
    compare_bob_conventions,
    compose,
    fidelity_overlap,
    fidelity_paper,
)
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
            outcomes = circuit_teleport(channel, unknown)
            assert sum(o.probability for o in outcomes) == pytest.approx(
                1.0, abs=1e-10)
            for outcome in outcomes:
                assert outcome.probability == pytest.approx(0.25, abs=1e-12)
                assert fidelity_overlap(unknown, outcome.bob_state) == \
                    pytest.approx(1.0, abs=1e-10)

    def test_uncorrelated_channel(self):
        channel = DensityMatrix.from_matrix(np.eye(4, dtype=complex) / 4.0)
        unknown = UnknownQubit(alpha=RSQRT2, beta=RSQRT2)
        for outcome in circuit_teleport(channel, unknown):
            np.testing.assert_allclose(outcome.bob_state.matrix,
                                       np.eye(2) / 2.0, atol=1e-12)

    def test_product_channel_regression(self, rng):
        # |ee><ee| channel: the receiver ends in |e><e| before correction
        # whatever the input, so the corrected branches alternate between
        # the poles and every overlap with an equatorial input is 1/2.
        channel = DensityMatrix.from_matrix(np.diag([1.0, 0, 0, 0]))
        unknown = UnknownQubit(alpha=RSQRT2, beta=RSQRT2)
        outcomes = circuit_teleport(channel, unknown)
        expected_sb = {"ee": [0, 0, 1], "eg": [0, 0, -1],
                       "ge": [0, 0, 1], "gg": [0, 0, -1]}
        for outcome in outcomes:
            assert outcome.probability == pytest.approx(0.25, abs=1e-12)
            np.testing.assert_allclose(outcome.sb,
                                       expected_sb[outcome.outcome_label],
                                       atol=1e-12)
        assert average_fidelity(outcomes, unknown) == pytest.approx(
            0.5, abs=1e-12)
        # input independence of the branch poles
        other = random_unknown(rng)
        for outcome in circuit_teleport(channel, other):
            assert abs(abs(outcome.sb[2]) - 1.0) < 1e-12

    def test_probabilities_sum_to_one(self, rng):
        unknown = UnknownQubit(alpha=0.6, beta=0.8)
        for _ in range(100):
            channel = DensityMatrix.from_matrix(random_density(rng, 4))
            outcomes = circuit_teleport(channel, unknown)
            assert sum(o.probability for o in outcomes) == pytest.approx(
                1.0, abs=1e-10)

    def test_affine_in_channel(self, rng):
        # Probability-weighted branch states mix linearly with the channel.
        unknown = random_unknown(rng)
        rho1, rho2 = random_density(rng, 4), random_density(rng, 4)
        p = 0.3
        mixed = DensityMatrix.from_matrix(p * rho1 + (1 - p) * rho2)
        parts = [circuit_teleport(DensityMatrix.from_matrix(r), unknown)
                 for r in (rho1, rho2)]
        for k, outcome in enumerate(circuit_teleport(mixed, unknown)):
            combined = (p * parts[0][k].probability
                        * parts[0][k].bob_state.matrix
                        + (1 - p) * parts[1][k].probability
                        * parts[1][k].bob_state.matrix)
            np.testing.assert_allclose(
                outcome.probability * outcome.bob_state.matrix, combined,
                atol=1e-12)

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
        table = amplitude_table(0.0, self.atoms, self.field, self.spec)
        unknown = UnknownQubit(alpha=0.6, beta=0.8)
        np.testing.assert_allclose(closed_form_bob(unknown, table),
                                   [0.0, 0.0, 0.64], atol=1e-12)

    def test_pole_input_gives_nothing(self):
        table = amplitude_table(0.0, self.atoms, self.field, self.spec)
        unknown = UnknownQubit(alpha=1.0, beta=0.0)
        np.testing.assert_allclose(closed_form_bob(unknown, table),
                                   [0.0, 0.0, 0.0], atol=1e-14)

    def test_matches_circuit_branch(self):
        # The sums reproduce the ee branch carrying twice its probability.
        unknown = UnknownQubit.from_bloch((1.0, 0.0, 0.0))
        for t in np.linspace(0.0, 10.0, 21):
            table = amplitude_table(t, self.atoms, self.field, self.spec)
            channel = compose(bloch_from_table(table))
            report = compare_bob_conventions(unknown, table, channel)
            assert report["unnormalized"] < 1e-6
            assert report["normalized"] > 1e-3 or report["unnormalized"] < \
                report["normalized"]


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
        outcomes = circuit_teleport(bell_phi_plus(), unknown)
        assert average_fidelity(outcomes, unknown) == pytest.approx(
            1.0, abs=1e-10)

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
