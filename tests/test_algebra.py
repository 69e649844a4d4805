import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdcavity import (
    FieldSpec,
    TruncationError,
    check_deformation,
    choose_cutoff,
    HamiltonianSpec,
    coherent_field,
    coherent_weights,
    ladder_elements,
    q_number,
)
from qdcavity.closedform import _cached_couplings
from conftest import reference_amplitudes, reference_cutoff


def exact_q_number(n, q):
    """[n]_q = 1 + q + ... + q^(n-1) in exact rational arithmetic."""
    q = Fraction(q)
    return float((1 - q**n) / (1 - q)) if q != 1 else float(n)


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
            check_deformation(-0.1)
        with pytest.raises(ValueError):
            check_deformation(1.1)

    def test_check_deformation_returns_float_and_rejects_nan(self):
        assert type(check_deformation(np.float64(0.5))) is float
        assert check_deformation(1) == 1.0
        with pytest.raises(ValueError):
            check_deformation(math.nan)

    def test_limit_continuity(self):
        for n in range(1, 101):
            assert abs(q_number(n, 1.0 - 1e-8) - n) <= 1e-6 * n

    def test_exact_near_undeformed_limit(self):
        # (1 - q^n)/(1 - q) cancels catastrophically here: 2e-9 to 7.5e-8
        # relative error in the first three cases.
        for q, n in ((1.0 - 1e-9, 5), (1.0 - 5e-11, 400),
                     (1.0 - 5e-11, 3000), (1.0 - 1e-12, 50)):
            want = exact_q_number(n, q)
            assert abs(q_number(n, q) - want) <= 1e-13 * want, (q, n)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(q=st.one_of(st.floats(0.0, 1.0),
                       st.integers(1, 15).map(lambda s: 1.0 - 10.0**-s)),
           n=st.integers(0, 5000))
    def test_matches_exact_rational(self, q, n):
        want = exact_q_number(n, q)
        assert abs(q_number(n, q) - want) <= 1e-13 * want

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
    """[n+1]_q ... [n+m]_q is the squared ladder element L[n+m]^2."""

    def test_undeformed_factorials(self):
        ladder = ladder_elements(4, 2, 1.0)
        assert ladder[2] ** 2 == pytest.approx(2.0, rel=1e-14)
        assert ladder[4] ** 2 == pytest.approx(12.0, rel=1e-14)

    def test_deformed_product(self):
        assert ladder_elements(2, 2, 0.5)[2] ** 2 == pytest.approx(1.5, rel=1e-14)

    def test_large_arguments_stay_finite(self):
        ladder = ladder_elements(5000, 3, 1.0)
        assert ladder[503] ** 2 == pytest.approx(501 * 502 * 503, rel=1e-12)
        assert np.all(np.isfinite(ladder))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ladder_elements(-1, 2, 0.5)


def per_manifold_couplings(cutoff, m, q):
    """nu1, nu2, mu per manifold index n = -2m..cutoff-2m, in units of
    lambda, written out per n as the couplings were before the ladder
    table: the reference."""
    def ladder(n):
        return math.sqrt(math.prod(q_number(j, q)
                                   for j in range(n + 1, n + m + 1)))

    nu1 = np.zeros(cutoff + 1)
    nu2 = np.zeros(cutoff + 1)
    for i, n in enumerate(range(-2 * m, cutoff - 2 * m + 1)):
        if n >= 0:
            nu1[i] = ladder(n)
        if n >= -m:
            nu2[i] = ladder(n + m)
    return nu1, nu2, np.sqrt((nu1 * nu1 + nu2 * nu2) / 2.0)


class TestLadderCouplings:
    """Couplings of manifold n = 0 sit at index 2m of the coupling table."""

    def test_single_photon_undeformed(self):
        nu1, nu2, mu = _cached_couplings(8, 1, 1.0)
        assert nu1[2] == pytest.approx(1.0, rel=1e-14)
        assert nu2[2] == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert mu[2] == pytest.approx(math.sqrt(1.5), rel=1e-14)

    def test_single_photon_deformed(self):
        nu1, nu2, mu = _cached_couplings(8, 1, 0.5)
        assert nu1[2] == pytest.approx(1.0, rel=1e-14)
        assert nu2[2] == pytest.approx(math.sqrt(1.5), rel=1e-14)
        assert mu[2] == pytest.approx(math.sqrt(1.25), rel=1e-14)

    def test_two_photon_undeformed(self):
        nu1, nu2, mu = _cached_couplings(8, 2, 1.0)
        assert nu1[4] == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert nu2[4] == pytest.approx(math.sqrt(12.0), rel=1e-14)
        assert mu[4] == pytest.approx(math.sqrt(7.0), rel=1e-14)

    def test_mu_matches_stored_couplings(self):
        nu1, nu2, mu = _cached_couplings(13, 2, 0.9)
        for i in range(14):
            assert mu[i] == math.sqrt((nu1[i] ** 2 + nu2[i] ** 2) / 2.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ladder_elements(-1, 1, 0.5)
        with pytest.raises(ValueError):
            ladder_elements(4, 0, 0.5)
        with pytest.raises(ValueError):
            HamiltonianSpec(m=0, q=0.5)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_per_manifold_formula(self, m):
        for q in (0.0, 0.5, 0.9, 1.0 - 1e-12, 1.0):
            for cutoff in (2 * m, 59, 627):
                table = _cached_couplings(cutoff, m, q)
                reference = per_manifold_couplings(cutoff, m, q)
                for got, want in zip(table, reference):
                    assert np.array_equal(got, want), (q, cutoff)


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
        with pytest.raises(TruncationError, match="tail"):
            coherent_weights(3847.0, 3800)

    @pytest.mark.parametrize("nbar", [10.0, 400.0])
    def test_never_renormalised(self, nbar):
        w = coherent_field(nbar, 1).weights
        assert (w / np.linalg.norm(w)).tobytes() != w.tobytes()

    @pytest.mark.parametrize("scale", [1.0 - 1e-9, 1.0 + 1e-9])
    def test_mass_off_by_more_than_rounding_rejected(self, scale):
        for nbar in (10.0, 3847.0, 50000.0):
            field = coherent_field(nbar, 1)
            off = field.weights * math.sqrt(scale)
            with pytest.raises(TruncationError, match="mass"):
                FieldSpec(nbar, field.cutoff, off)

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
        # Frozen from the amplitude-tail computation.
        value = choose_cutoff(10.0, 1, 1e-12)
        assert value == 59
        assert 50 <= value <= 90
        for nbar, cutoff in ((400.0, 627), (3847.0, 4519), (4000.0, 4684),
                             (50000.0, 52395)):
            assert choose_cutoff(nbar, 1) == cutoff

    def test_matches_scalar_loop_reference(self):
        # Cutoffs and weight bytes of the term-by-term loop and log
        # formula the one amplitude array replaced.
        nbars = np.concatenate([np.arange(0.0, 50.0, 0.83),
                                np.arange(50.0, 4001.0, 43.7), [4000.0]])
        for nbar in nbars.tolist():
            for tail_eps in (1e-12, 1e-6):
                # The loop does not depend on m beyond the 2m margin.
                base = reference_cutoff(nbar, 1, tail_eps)
                weights = reference_amplitudes(nbar, base + 5)
                for m in (1, 2, 3):
                    cutoff = base + 2 * (m - 1)
                    assert choose_cutoff(nbar, m, tail_eps) == cutoff
                    field = coherent_weights(nbar, cutoff, tail_eps)
                    assert np.array_equal(field.weights,
                                          weights[:cutoff + 1]), nbar

    @pytest.mark.parametrize("nbar", [2e6, 1e308])
    def test_term_ceiling_raises_truncation(self, nbar):
        with pytest.raises(TruncationError, match="Fock levels"):
            choose_cutoff(nbar, 1)
        with pytest.raises(TruncationError, match="Fock levels"):
            coherent_weights(nbar, 30)

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

    @pytest.mark.parametrize("nbar", [math.nan, math.inf])
    def test_rejects_non_finite_nbar(self, nbar):
        with pytest.raises(ValueError, match="finite"):
            choose_cutoff(nbar, 1)
        with pytest.raises(ValueError, match="finite"):
            coherent_weights(nbar, 30)

    def test_coherent_field_truncates_at_chosen_cutoff(self):
        for nbar, m, tail_eps in ((0.0, 1, 1e-12), (10.0, 2, 1e-12),
                                  (400.0, 3, 1e-6)):
            cutoff = choose_cutoff(nbar, m, tail_eps)
            field = coherent_field(nbar, m, tail_eps)
            assert field.cutoff == cutoff and field.tail_eps == tail_eps
            assert np.array_equal(field.weights,
                                  coherent_weights(nbar, cutoff, tail_eps).weights)
