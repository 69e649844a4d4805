import math

import numpy as np
import pytest

from qdcavity import (
    DeformationParameter,
    TruncationError,
    choose_cutoff,
    HamiltonianSpec,
    coherent_field,
    coherent_weights,
    ladder_elements,
    q_factorial_ratio,
    q_number,
)
from qdcavity.closedform import _cached_couplings


def deformation_factor(n, q):
    """f(n) = <n-1| a_q |n> / sqrt(n), read off the single-photon ladder."""
    return ladder_elements(n, 1, q)[n] / math.sqrt(n)


class TestDeformationFactor:
    def test_undeformed_limit(self):
        assert deformation_factor(2, 1.0) == 1.0
        assert deformation_factor(37, 1.0) == 1.0

    def test_hand_values(self):
        assert deformation_factor(2, 0.5) == pytest.approx(math.sqrt(0.75), rel=1e-12)
        assert deformation_factor(3, 0.9) == pytest.approx(math.sqrt(0.271 / 0.3), rel=1e-12)


class TestQNumber:
    def test_zero(self):
        for q in (0.0, 0.5, 1.0):
            assert q_number(0, q) == 0.0

    def test_unity_at_n_one(self):
        # [1]_q = 1, i.e. f(1) = 1 for every q.
        for q in (0.0, 0.3, 0.5, 0.9, 1.0):
            assert q_number(1, q) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        assert q_number(2, 0.5) == pytest.approx(1.5, rel=1e-15)
        assert q_number(3, 0.9) == pytest.approx(2.71, rel=1e-12)

    def test_undeformed(self):
        assert q_number(5, 1.0) == 5.0
        assert q_number(37, 1.0) == 37.0

    def test_rejects_q_outside_range(self):
        with pytest.raises(ValueError):
            DeformationParameter(-0.1)
        with pytest.raises(ValueError):
            DeformationParameter(1.1)

    def test_limit_continuity(self):
        # q = 1 - 1e-8 sits outside the guard band, so this exercises the
        # generic branch close to the singular point.
        for n in range(1, 101):
            assert abs(q_number(n, 1.0 - 1e-8) - n) <= 1e-6 * n

    def test_guard_band_routes_to_limit(self):
        assert q_number(50, 1.0 - 1e-12) == 50.0

    def test_bounded_in_unit_interval(self):
        # 0 < [n]_q <= n, i.e. 0 < f(n) <= 1 for n >= 1.
        for q in np.linspace(0.0, 1.0, 11):
            for n in range(1, 101):
                assert 0.0 < q_number(n, float(q)) <= n * (1.0 + 1e-15)

    def test_monotone_in_n(self):
        for q in (0.0, 0.5, 0.9, 1.0):
            values = [q_number(n, q) for n in range(50)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_commutator_closure(self):
        # (n+1) f(n+1)^2 - n f(n)^2 = [n+1] - [n] = q^n, measured on the
        # natural unit scale of the commutator.
        for q in (0.0, 0.3, 0.5, 0.9, 1.0):
            for n in range(80):
                lhs = q_number(n + 1, q) - q_number(n, q)
                assert abs(lhs - q**n) < 1e-12


class TestQFactorialRatio:
    def test_empty_product(self):
        assert q_factorial_ratio(3, 0, 0.7) == 1.0

    def test_undeformed_factorials(self):
        assert q_factorial_ratio(0, 2, 1.0) == 2.0
        assert q_factorial_ratio(2, 2, 1.0) == 12.0

    def test_deformed_product(self):
        assert q_factorial_ratio(0, 2, 0.5) == pytest.approx(1.5, rel=1e-14)

    def test_large_arguments_stay_finite(self):
        value = q_factorial_ratio(500, 3, 1.0)
        assert value == pytest.approx(501 * 502 * 503, rel=1e-12)
        huge = q_factorial_ratio(10**6, 2, 1.0)
        assert np.isfinite(huge)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            q_factorial_ratio(-1, 2, 0.5)


def per_manifold_couplings(cutoff, m, lam, q):
    """nu1, nu2, mu per manifold index n = -2m..cutoff-2m, written out per
    n as the couplings were before the ladder table: the reference."""
    nu1 = np.zeros(cutoff + 1)
    nu2 = np.zeros(cutoff + 1)
    for i, n in enumerate(range(-2 * m, cutoff - 2 * m + 1)):
        if n >= 0:
            nu1[i] = lam * math.sqrt(q_factorial_ratio(n, m, q))
        if n >= -m:
            nu2[i] = lam * math.sqrt(q_factorial_ratio(n + m, m, q))
    return nu1, nu2, np.sqrt((nu1 * nu1 + nu2 * nu2) / 2.0)


class TestLadderCouplings:
    """Couplings of manifold n = 0 sit at index 2m of the coupling table."""

    def test_single_photon_undeformed(self):
        nu1, nu2, mu = _cached_couplings(8, 1, 1.0, 1.0)
        assert nu1[2] == pytest.approx(1.0, rel=1e-14)
        assert nu2[2] == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert mu[2] == pytest.approx(math.sqrt(1.5), rel=1e-14)

    def test_single_photon_deformed(self):
        nu1, nu2, mu = _cached_couplings(8, 1, 1.0, 0.5)
        assert nu1[2] == pytest.approx(1.0, rel=1e-14)
        assert nu2[2] == pytest.approx(math.sqrt(1.5), rel=1e-14)
        assert mu[2] == pytest.approx(math.sqrt(1.25), rel=1e-14)

    def test_two_photon_undeformed(self):
        nu1, nu2, mu = _cached_couplings(8, 2, 1.0, 1.0)
        assert nu1[4] == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert nu2[4] == pytest.approx(math.sqrt(12.0), rel=1e-14)
        assert mu[4] == pytest.approx(math.sqrt(7.0), rel=1e-14)

    def test_mu_matches_stored_couplings(self):
        nu1, nu2, mu = _cached_couplings(13, 2, 0.8, 0.9)
        for i in range(14):
            assert mu[i] == math.sqrt((nu1[i] ** 2 + nu2[i] ** 2) / 2.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ladder_elements(-1, 1, 0.5)
        with pytest.raises(ValueError):
            ladder_elements(4, 0, 0.5)
        with pytest.raises(ValueError):
            HamiltonianSpec.resonant(0.0, m=1, q=0.5)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_per_manifold_formula(self, m):
        for q in (0.0, 0.5, 0.9, 1.0 - 1e-12, 1.0):
            for lam in (0.8, 1.0):
                for cutoff in (2 * m, 59, 627):
                    table = _cached_couplings(cutoff, m, lam, q)
                    reference = per_manifold_couplings(cutoff, m, lam, q)
                    for got, want in zip(table, reference):
                        assert np.array_equal(got, want), (q, lam, cutoff)


class TestCoherentWeights:
    def test_vacuum(self):
        field = coherent_weights(0.0, 4)
        assert np.array_equal(field.weights, [1, 0, 0, 0, 0])

    def test_ground_amplitude(self):
        field = coherent_weights(10.0, 80)
        assert field.weights[0] == pytest.approx(math.exp(-5.0), rel=1e-12)

    def test_poisson_mean(self):
        field = coherent_weights(10.0, 80)
        mean = float(np.sum(np.arange(81) * field.weights**2))
        assert mean == pytest.approx(10.0, abs=1e-9)

    def test_mass_window(self):
        field = coherent_weights(10.0, 80)
        mass = float(np.sum(field.weights**2))
        assert 1.0 - 1e-12 <= mass <= 1.0 + 1e-12

    def test_insufficient_cutoff(self):
        with pytest.raises(TruncationError, match="tail"):
            coherent_weights(10.0, 15, 1e-12)

    def test_amplitude_padding(self):
        field = coherent_weights(1.0, 30)
        assert field.amplitude(31) == 0.0
        assert field.amplitude(-1) == 0.0
        assert field.amplitude(0) == field.weights[0]

    def test_rejects_bad_tail_eps(self):
        with pytest.raises(ValueError):
            coherent_weights(1.0, 30, 0.0)
        with pytest.raises(ValueError):
            coherent_weights(1.0, 30, 1e-2)


class TestChooseCutoff:
    def test_vacuum_margin_only(self):
        assert choose_cutoff(0.0, 1, 1e-12) == 2
        assert choose_cutoff(0.0, 3, 1e-12) == 6

    def test_reference_value(self):
        # Frozen from the amplitude-tail computation for nbar = 10.
        value = choose_cutoff(10.0, 1, 1e-12)
        assert value == 59
        assert 50 <= value <= 90

    def test_margin_arithmetic(self):
        assert choose_cutoff(10.0, 2, 1e-12) == choose_cutoff(10.0, 1, 1e-12) + 2

    def test_cutoff_supports_weights(self):
        for nbar in (0.5, 3.0, 10.0):
            cutoff = choose_cutoff(nbar, 1, 1e-12)
            field = coherent_weights(nbar, cutoff, 1e-12)
            assert float(np.sum(field.weights**2)) >= 1.0 - 1e-12

    def test_rejects_bad_tail_eps(self):
        with pytest.raises(ValueError):
            choose_cutoff(1.0, 1, 2e-3)

    def test_coherent_field_truncates_at_chosen_cutoff(self):
        for nbar, m, tail_eps in ((0.0, 1, 1e-12), (10.0, 2, 1e-12),
                                  (400.0, 3, 1e-6)):
            cutoff = choose_cutoff(nbar, m, tail_eps)
            field = coherent_field(nbar, m, tail_eps)
            assert field.cutoff == cutoff and field.tail_eps == tail_eps
            assert np.array_equal(field.weights,
                                  coherent_weights(nbar, cutoff, tail_eps).weights)
