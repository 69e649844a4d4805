"""The benchmark harness under perfbench/ wraps named qdcavity functions,
calls a few of them with one time point and rebuilds each workload's
sweep through cli._resolve.  These tests fail when a rename, a change of
scalar return shapes or of the resolved config would break it."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from qdcavity import (
    AtomicInitialState,
    FieldSpec,
    HamiltonianSpec,
    Propagator,
    choose_cutoff,
    cli,
    coherent_weights,
    evolved_bloch,
    initial_composite_state,
    validate,
)

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"
OPS = [op for workload in json.loads(
    (PERFBENCH / "workloads.json").read_text())["workloads"].values()
    for op in workload["ops"]]
SWEEP_ARGVS = [op["argv"] for op in OPS if op["argv"][0] != "validate"]


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


def test_validate_prints_the_expected_line(capsys):
    # The gate looks for this line in the validate operation's output.
    (expect,) = [op["expect"] for op in OPS if op["argv"] == ["validate"]]
    assert cli.main(["validate"]) == 0
    assert expect in capsys.readouterr().out.splitlines()


def test_checks_are_the_per_layer_validate_spans():
    # tracing.py times each check as validate.<name>_s, and the INFO
    # lines as validate.entanglement-minima_s.
    spans = {metric["name"][len("validate."):-len("_s")]
             for metric in json.loads(
                 (ROOT / "BENCHMARK.json").read_text())["per_layer"]
             if metric["name"].startswith("validate.")}
    checks, _ = validate.run_all_checks()
    assert {check.name for check in checks} == spans - {"entanglement-minima"}


@pytest.mark.parametrize("nbar", [10.0, 400.0])
def test_scalar_time_shapes(nbar):
    cutoff = choose_cutoff(nbar, 1)
    field = coherent_weights(nbar, cutoff)
    spec = HamiltonianSpec(m=1, q=0.7)
    atoms = AtomicInitialState(0.6, 0.0, 0.0, 0.8)
    t = np.linspace(0.0, 10.0, 201)[37]
    bloch = evolved_bloch(t, atoms, field, spec)
    assert (bloch.s.shape, bloch.t.shape, bloch.cross.shape) == \
        ((3,), (3,), (3, 3))
    evolved = Propagator(spec, cutoff).evolve(
        initial_composite_state(atoms, field), t)
    assert evolved.amplitudes.shape == (4, cutoff + 1)


@pytest.mark.parametrize("template", SWEEP_ARGVS,
                         ids=[" ".join(argv[:3]) for argv in SWEEP_ARGVS])
def test_workload_argv_resolves(template):
    # perfbench/gate.py rebuilds each sweep through cli._resolve and reads
    # these attributes of the config to cross-check its rows.
    argv = [arg.format(q1="0.3", q2="0.8", atoms="0.6,0,0,0.8i")
            for arg in template]
    config = cli._resolve(cli.build_parser().parse_args(argv), argv[0])
    assert config.engine in ("closed", "exact")
    assert config.q_values and config.steps >= 2 and config.lam > 0
    assert config.time_grid.shape == (config.steps,)
    assert isinstance(config.field(), FieldSpec)
    assert isinstance(config.atomic_state(), AtomicInitialState)
    for q in config.q_values:
        assert config.hamiltonian(q).q == q
