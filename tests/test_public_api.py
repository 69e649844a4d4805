"""The export lists: every listed name resolves, every package export is
listed by the module that defines it, every export is read by the
package or the benchmark harness, and deleted names stay gone."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import qdcavity
from qdcavity.closedform import _cached_couplings

ROOT = Path(__file__).resolve().parent.parent

# Every submodule; importing __main__ would run the CLI.
MODULES = tuple(sorted(info.name for info in
                       pkgutil.iter_modules(qdcavity.__path__)
                       if info.name != "__main__"))

DELETED = ("ATOMIC_LABELS", "AmplitudeQuadruple", "DeformationParameter",
           "LadderCouplings", "UnsupportedConfigurationError",
           "WernerParameters", "build_hamiltonian", "compare_bob_conventions",
           "deformation_factor", "initial_bloch", "ladder_couplings",
           "propagate", "q_factorial_ratio", "werner_parameters")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"qdcavity.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_resolve():
    assert [name for name in qdcavity.__all__
            if not hasattr(qdcavity, name)] == []


def test_package_exports_listed_by_defining_module():
    unlisted = []
    for name in qdcavity.__all__:
        if name == "__version__":
            continue
        defining = getattr(qdcavity, name).__module__
        if name not in importlib.import_module(defining).__all__:
            unlisted.append(f"{defining}.{name}")
    assert unlisted == []


def test_deleted_names_not_exported():
    exported = set(qdcavity.__all__).union(
        *(importlib.import_module(f"qdcavity.{name}").__all__
          for name in MODULES))
    assert exported.isdisjoint(DELETED)
    for name in DELETED:
        assert not hasattr(qdcavity, name)


def test_every_export_is_read_outside_the_tests():
    # A name that only tests read is library surface no run needs.
    read = set()
    for path in [*(ROOT / "src" / "qdcavity").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [f"{name}.{attr}" for name in MODULES
              for attr in importlib.import_module(f"qdcavity.{name}").__all__
              if attr not in read]
    assert unread == []


def test_lambda_stays_out_of_the_engines():
    # The engines work in units of 1/lambda; only SweepConfig and the CLI
    # know lambda.
    assert tuple(field.name for field in dataclasses.fields(
        qdcavity.HamiltonianSpec)) == ("m", "q")
    assert tuple(inspect.signature(_cached_couplings).parameters) == (
        "cutoff", "m", "q_value")
