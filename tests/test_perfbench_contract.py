"""The benchmark harness under perfbench/ wraps named qdcavity functions
and calls a few of them with one time point.  These tests fail when a
rename or a change of scalar return shapes would break it."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qdcavity import (
    AtomicInitialState,
    HamiltonianSpec,
    Propagator,
    choose_cutoff,
    coherent_weights,
    evolved_bloch,
    initial_composite_state,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    functions = load_tracing().FUNCTIONS
    assert functions
    for module_name, attr, _ in functions:
        module = importlib.import_module(f"qdcavity.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("nbar", [10.0, 400.0])
def test_scalar_time_shapes(nbar):
    cutoff = choose_cutoff(nbar, 1)
    field = coherent_weights(nbar, cutoff)
    spec = HamiltonianSpec.resonant(1.0, m=1, q=0.7)
    atoms = AtomicInitialState(0.6, 0.0, 0.0, 0.8)
    t = np.linspace(0.0, 10.0, 201)[37]
    bloch = evolved_bloch(t, atoms, field, spec)
    assert (bloch.s.shape, bloch.t.shape, bloch.cross.shape) == \
        ((3,), (3,), (3, 3))
    evolved = Propagator(spec, cutoff).evolve(
        initial_composite_state(atoms, field), t)
    assert evolved.amplitudes.shape == (4, cutoff + 1)
