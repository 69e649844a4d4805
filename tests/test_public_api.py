"""The export lists: every listed name resolves, every package export is
listed by the module that defines it, and deleted names stay gone."""

import importlib

import pytest

import qdcavity

MODULES = ("algebra", "cli", "closedform", "exact", "states", "teleport",
           "validate")

DELETED = ("LadderCouplings", "deformation_factor", "ladder_couplings",
           "q_factorial_ratio")


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
