"""Time is an array axis: a stack of times runs through every layer in
one call.  Each stacked result must equal, bit for bit, the same call made
on each time alone, which is the per-point path the sweeps used to take.
"""

import tracemalloc

import numpy as np
import pytest

from qdcavity import (
    AtomicInitialState,
    CompositeState,
    DensityMatrix,
    HamiltonianSpec,
    Propagator,
    TwoQubitBlochState,
    UnknownQubit,
    amplitude_table,
    average_fidelity,
    bloch_from_table,
    bloch_vector,
    choose_cutoff,
    circuit_teleport,
    closed_form_bob,
    coherent_weights,
    compose,
    decompose,
    entanglement_degree,
    evolved_bloch,
    fidelity_overlap,
    fidelity_paper,
    initial_composite_state,
    negativity,
    purity,
    reduced_atomic_state,
)
from qdcavity.states import max_deviation
from conftest import random_density, random_ket
from test_closedform import explicit_last

REAL_KET = UnknownQubit(alpha=1.0 / np.sqrt(2.0), beta=1.0 / np.sqrt(2.0))


def assert_per_point(stacked, singles):
    """stacked[k] equals singles[k] exactly, for every k."""
    assert len(stacked) == len(singles)
    for item, single in zip(stacked, singles):
        assert np.array_equal(item, single)


def assert_bloch_per_point(stacked, singles):
    for name in ("s", "t", "cross"):
        assert_per_point(getattr(stacked, name),
                         [getattr(single, name) for single in singles])


def item(state: TwoQubitBlochState, k: int) -> TwoQubitBlochState:
    return TwoQubitBlochState(s=state.s[k], t=state.t[k], cross=state.cross[k])


def random_atoms(rng):
    return AtomicInitialState(*random_ket(rng, 4))


@pytest.fixture(params=[(10.0, 59, 201), (400.0, 627, 41)],
                ids=["cutoff59", "cutoff627"])
def closed_sweep(request, rng):
    """(times, atoms, field, spec) on the two benchmark cutoffs, with more
    than 256 KiB of (time, manifold) cells in each stack."""
    nbar, cutoff, steps = request.param
    field = coherent_weights(nbar, choose_cutoff(nbar, 1))
    assert field.cutoff == cutoff
    times = np.linspace(0.0, 10.0, steps)
    return times, random_atoms(rng), field, HamiltonianSpec(q=0.9)


class TestClosedForm:
    def test_amplitude_table_and_reductions(self, closed_sweep):
        times, atoms, field, spec = closed_sweep
        table = amplitude_table(times, atoms, field, spec)
        singles = [amplitude_table(t, atoms, field, spec) for t in times]
        assert table.c.shape == (len(times),) + singles[0].c.shape
        assert_per_point(table.c, [s.c for s in singles])
        for index in range(4):
            assert_per_point(table.populations[index],
                             [s.populations[index] for s in singles])
        for index in range(6):
            assert_per_point(table.correlations[index],
                             [s.correlations[index] for s in singles])
        assert_per_point(table.total_weight, [s.total_weight for s in singles])
        assert_bloch_per_point(bloch_from_table(table),
                               [bloch_from_table(s) for s in singles])

    def test_amplitude_table_into_buffer(self, closed_sweep):
        times, atoms, field, spec = closed_sweep
        buffer = np.full((len(times) + 2, 4, field.cutoff + 1), np.nan,
                         dtype=complex)
        table = amplitude_table(times, atoms, field, spec,
                                out=buffer[:len(times)])
        assert table.c.base is buffer
        assert np.array_equal(table.c, amplitude_table(times, atoms, field,
                                                       spec).c)
        assert np.isnan(buffer[len(times):]).all()

    def test_amplitude_table_rows_and_strided_out(self, closed_sweep):
        # The table is a view of out's front with each amplitude row
        # contiguous, so out must be C-contiguous: a strided one raises
        # before anything is written.
        times, atoms, field, spec = closed_sweep
        buffer = np.zeros((2 * len(times), 4, field.cutoff + 1), dtype=complex)
        table = amplitude_table(times, atoms, field, spec, out=buffer)
        assert all(table.c[:, k].flags.c_contiguous for k in range(4))
        buffer[:] = 0.0
        with pytest.raises(ValueError):
            amplitude_table(times, atoms, field, spec, out=buffer[::2])
        assert not buffer.any()

    def test_evolved_bloch(self, closed_sweep):
        times, atoms, field, spec = closed_sweep
        assert_bloch_per_point(
            evolved_bloch(times, atoms, field, spec),
            [evolved_bloch(t, atoms, field, spec) for t in times])

    def test_scalar_time_keeps_unstacked_shapes(self, closed_sweep):
        _, atoms, field, spec = closed_sweep
        table = amplitude_table(1.5, atoms, field, spec)
        # The explicit columns [0, X]: all 60 at cutoff 59, 343 of 628 at
        # cutoff 627, whose tail reads the reals at column head.
        last = explicit_last(field, spec)
        assert table.c.shape == (4, last + 1) and last in (59, 342)
        assert (table.reals is None) == (last == field.cutoff)
        assert last == field.cutoff or table.reals.shape == (5,)
        assert isinstance(table.total_weight, float)
        assert all(isinstance(c, complex) for c in table.correlations)
        bloch = evolved_bloch(1.5, atoms, field, spec)
        assert (bloch.s.shape, bloch.t.shape, bloch.cross.shape) == \
            ((3,), (3,), (3, 3))


class TestStates:
    def test_state_layers(self, closed_sweep):
        times, atoms, field, spec = closed_sweep
        bloch = evolved_bloch(times, atoms, field, spec)
        singles = [item(bloch, k) for k in range(len(times))]
        rho = compose(bloch)
        single_rhos = [compose(s) for s in singles]
        assert_per_point(rho.matrix, [r.matrix for r in single_rhos])
        assert rho.warnings == tuple(w for r in single_rhos for w in r.warnings)
        assert_bloch_per_point(decompose(rho), [decompose(r) for r in single_rhos])
        assert_bloch_per_point(decompose(rho.matrix),
                               [decompose(r.matrix) for r in single_rhos])
        assert_per_point(negativity(rho), [negativity(r) for r in single_rhos])
        assert_per_point(purity(bloch), [purity(s) for s in singles])
        assert_per_point(entanglement_degree(bloch),
                         [entanglement_degree(s) for s in singles])
        shifted = item(bloch, 0)
        assert_per_point(max_deviation(bloch, shifted),
                         [max_deviation(s, shifted) for s in singles])

    def test_scalar_results_are_not_arrays(self, closed_sweep):
        _, atoms, field, spec = closed_sweep
        bloch = evolved_bloch(2.0, atoms, field, spec)
        rho = compose(bloch)
        for value in (purity(bloch), entanglement_degree(bloch),
                      negativity(rho), max_deviation(bloch, bloch)):
            assert isinstance(value, float) and not isinstance(value, np.ndarray)

    def test_bloch_vector_and_from_matrix(self, rng):
        mats = np.array([random_density(rng, 2) for _ in range(30)])
        assert_per_point(bloch_vector(mats), [bloch_vector(m) for m in mats])
        stacked = DensityMatrix.from_matrix(mats)
        assert stacked.matrix.shape[-1] == 2 and stacked.warnings == ()
        assert_per_point(stacked.matrix,
                         [DensityMatrix.from_matrix(m).matrix for m in mats])

    def test_from_matrix_reports_each_negative_matrix(self):
        bad = np.diag([1.2, -0.2]).astype(complex)
        good = np.eye(2, dtype=complex) / 2.0
        stacked = DensityMatrix.from_matrix(np.array([good, bad, good, bad]),
                                            positivity="warn")
        single = DensityMatrix.from_matrix(bad, positivity="warn")
        assert stacked.warnings == single.warnings * 2


EXACT_LAYER_CASES = [(1, 10.0), (2, 10.0), (3, 10.0), (1, 400.0)]


@pytest.mark.parametrize("m,nbar", EXACT_LAYER_CASES,
                         ids=[f"{m}-resonant-{nbar}"
                              for m, nbar in EXACT_LAYER_CASES])
def test_exact_layers(m, nbar, rng):
    spec = HamiltonianSpec(m, 0.8)
    field = coherent_weights(nbar, choose_cutoff(nbar, m))
    initial = initial_composite_state(random_atoms(rng), field)
    prop = Propagator(spec, field.cutoff)
    times = np.linspace(0.0, 20.0, 41)
    evolved = prop.evolve(initial, times)
    singles = [prop.evolve(initial, t) for t in times]
    assert evolved.amplitudes.shape == (len(times), 4, field.cutoff + 1)
    assert_per_point(evolved.amplitudes, [s.amplitudes for s in singles])
    assert_per_point(CompositeState(field.cutoff, evolved.amplitudes).amplitudes,
                     [s.amplitudes for s in singles])
    reduced = reduced_atomic_state(evolved)
    assert_per_point(reduced.matrix,
                     [reduced_atomic_state(s).matrix for s in singles])
    assert_bloch_per_point(decompose(reduced),
                           [decompose(reduced_atomic_state(s)) for s in singles])


class TestEvolveIntoBuffer:
    @pytest.fixture
    def case(self, rng):
        field = coherent_weights(400.0, choose_cutoff(400.0, 1))
        initial = initial_composite_state(random_atoms(rng), field)
        return (Propagator(HamiltonianSpec(q=0.8), field.cutoff), initial,
                np.linspace(0.0, 20.0, 6))

    def test_matches_evolve_without_buffer(self, case):
        prop, initial, times = case
        buffer = np.full((len(times) + 2, 4, prop.cutoff + 1), np.nan,
                         dtype=complex)
        evolved = prop.evolve(initial, times, out=buffer[:len(times)])
        assert evolved.amplitudes.base is buffer
        assert np.array_equal(evolved.amplitudes,
                              prop.evolve(initial, times).amplitudes)
        assert np.isnan(buffer[len(times):]).all()

    @pytest.mark.parametrize("shape,dtype", [
        ((5, 4, 628), complex), ((6, 4, 627), complex), ((6, 4, 628), float),
        ((6, 4, 628), np.complex64)], ids=["times", "cutoff", "float", "c64"])
    def test_wrong_buffer_raises_before_writing(self, case, shape, dtype):
        prop, initial, times = case
        buffer = np.zeros(shape, dtype=dtype)
        with pytest.raises(ValueError, match="out must be"):
            prop.evolve(initial, times, out=buffer)
        assert not buffer.any()

    def test_strided_or_aliased_buffer_raises(self, case):
        prop, initial, times = case
        strided = np.zeros((12, 4, prop.cutoff + 1), dtype=complex)[::2]
        with pytest.raises(ValueError, match="out must be"):
            prop.evolve(initial, times, out=strided)
        assert not strided.any()
        amplitudes = initial.amplitudes.copy()
        with pytest.raises(ValueError, match="out must be"):
            prop.evolve(initial, 1.0, out=initial.amplitudes)
        assert np.array_equal(initial.amplitudes, amplitudes)

    @pytest.mark.parametrize("wrong", ["float", "c64", "small", "strided",
                                       "out", "state"])
    def test_wrong_work_raises_before_writing(self, case, wrong):
        # work needs 6 x 4 x 628 complex cells, C-contiguous, sharing
        # memory with neither out nor the state.
        prop, initial, times = case
        cells = len(times) * 4 * (prop.cutoff + 1)
        memory = np.zeros(cells + initial.amplitudes.size, dtype=complex)
        out = np.zeros((len(times), 4, prop.cutoff + 1), dtype=complex)
        state = initial
        work = {"float": lambda: np.zeros(cells),
                "c64": lambda: np.zeros(cells, np.complex64),
                "small": lambda: memory[:cells - 1],
                "strided": lambda: np.zeros(2 * cells, complex)[::2],
                "out": lambda: out,
                "state": lambda: memory}[wrong]()
        if wrong == "state":
            memory[cells:] = initial.amplitudes.reshape(-1)
            state = CompositeState(prop.cutoff, memory[cells:].reshape(
                initial.amplitudes.shape))
        before = memory.copy()
        with pytest.raises(ValueError, match="work must be"):
            prop.evolve(state, times, out=out, work=work)
        assert not out.any() and not work[:cells - 1].any()
        assert np.array_equal(memory, before)

    def test_warm_evolve_allocates_little(self, case):
        # With out=, work= and coefficients= given, a 6-time evolve at
        # cutoff 627 allocates no array of its own size: under 192 KiB
        # traced, where one complex stack of it takes 235 KiB.
        prop, initial, times = case
        out = np.empty((len(times), 4, prop.cutoff + 1), dtype=complex)
        work = np.empty_like(out)
        coefficients = prop.coefficients(initial)
        prop.evolve(initial, times, out=out, work=work,
                    coefficients=coefficients)
        tracemalloc.start()
        try:
            prop.evolve(initial, times, out=out, work=work,
                        coefficients=coefficients)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 192 * 1024


def test_exact_rejects_a_negative_time_in_a_stack():
    field = coherent_weights(10.0, choose_cutoff(10.0, 1))
    initial = initial_composite_state(AtomicInitialState(1, 0, 0, 0), field)
    prop = Propagator(HamiltonianSpec(q=0.8), field.cutoff)
    with pytest.raises(ValueError):
        prop.evolve(initial, np.array([0.0, -1.0]))


class TestTeleport:
    @pytest.mark.parametrize("unknown", [
        REAL_KET, UnknownQubit(alpha=0.6, beta=0.8j)], ids=["real", "complex"])
    def test_teleport_layers(self, closed_sweep, unknown):
        times, atoms, field, spec = closed_sweep
        table = amplitude_table(times, atoms, field, spec)
        channel = compose(bloch_from_table(table))
        probability, bob_state = circuit_teleport(channel, unknown)
        single_tables = [amplitude_table(t, atoms, field, spec) for t in times]
        singles = [circuit_teleport(compose(bloch_from_table(s)), unknown)
                   for s in single_tables]
        assert_per_point(probability, [p for p, _ in singles])
        assert_per_point(bob_state.matrix, [b.matrix for _, b in singles])
        sb = bloch_vector(bob_state)
        assert_per_point(sb, [bloch_vector(b) for _, b in singles])
        overlap = fidelity_overlap(unknown, bob_state)
        assert_per_point(overlap, [fidelity_overlap(unknown, b)
                                   for _, b in singles])
        weighted = 2.0 * probability[..., None] * sb
        assert_per_point(fidelity_paper(unknown.su, weighted),
                         [fidelity_paper(unknown.su, w) for w in weighted])
        assert_per_point(average_fidelity(probability, overlap),
                         [average_fidelity(p, fidelity_overlap(unknown, b))
                          for p, b in singles])
        assert_per_point(closed_form_bob(unknown, table),
                         [closed_form_bob(unknown, s) for s in single_tables])

    def test_zero_probability_branch_is_mixed(self, rng):
        # The excited product channel never yields the gg branch for an
        # input on |e>: that branch carries the maximally mixed state.
        ee = np.zeros((4, 4), dtype=complex)
        ee[0, 0] = 1.0
        channels = np.array([random_density(rng, 4), ee, random_density(rng, 4)])
        unknown = UnknownQubit(alpha=1.0, beta=0.0)
        probability, bob_state = circuit_teleport(channels, unknown)
        singles = [circuit_teleport(c, unknown) for c in channels]
        assert_per_point(probability, [p for p, _ in singles])
        assert_per_point(bob_state.matrix, [b.matrix for _, b in singles])
        assert probability[1, 3] == 0.0
        assert np.array_equal(bob_state.matrix[1, 3], np.eye(2) / 2.0)

    @pytest.mark.parametrize("stacked_channel", [False, True],
                             ids=["one-channel", "channel-per-input"])
    def test_stacked_inputs(self, rng, stacked_channel):
        kets = np.array([random_ket(rng, 2) for _ in range(5)])
        inputs = UnknownQubit(alpha=kets[:, 0], beta=kets[:, 1])
        singles = [UnknownQubit(alpha=a, beta=b) for a, b in kets]
        channels = (np.array([random_density(rng, 4) for _ in singles])
                    if stacked_channel else random_density(rng, 4))
        per_input = [circuit_teleport(
            channels[k] if stacked_channel else channels, single)
            for k, single in enumerate(singles)]
        assert_per_point(inputs.su, [single.su for single in singles])
        probability, bob_state = circuit_teleport(channels, inputs)
        assert_per_point(probability, [p for p, _ in per_input])
        assert_per_point(bob_state.matrix, [b.matrix for _, b in per_input])
        assert_per_point(bloch_vector(bob_state),
                         [bloch_vector(b) for _, b in per_input])
        # Each input against the branch axis.
        per_branch = UnknownQubit(alpha=kets[:, None, 0], beta=kets[:, None, 1])
        assert_per_point(fidelity_overlap(per_branch, bob_state),
                         [fidelity_overlap(single, b)
                          for single, (_, b) in zip(singles, per_input)])

    def test_scalar_channel_keeps_unstacked_types(self, rng):
        # One channel and one input: only the branch axis.
        probability, bob_state = circuit_teleport(random_density(rng, 4),
                                                  REAL_KET)
        assert probability.shape == (4,)
        assert bob_state.matrix.shape == (4, 2, 2)
        assert bloch_vector(bob_state).shape == (4, 3)
        overlap = fidelity_overlap(REAL_KET, bob_state)
        assert overlap.shape == (4,)
        assert isinstance(average_fidelity(probability, overlap), float)
