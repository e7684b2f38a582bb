"""The public names: each module's ``__all__`` resolves, the package
exports exactly their union, and the second paths that no command ran
stay deleted."""

import importlib
import inspect
import pkgutil

import pytest

import stormdp

MODULES = [info.name for info in pkgutil.iter_modules(stormdp.__path__)]
LIBRARY = ["control", "linearize", "plant", "riskdp", "sim", "smooth"]
REMOVED = ["entropic_backup", "read_trace_csv", "smooth_sqrt_deriv", "sigmoid_gate_deriv",
           "sigmoid_gate", "q_out_eps", "q_pump_eps", "q_drain_eps"]


@pytest.mark.parametrize("name", MODULES)
def test_module_names(name):
    module = importlib.import_module(f"stormdp.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
    assert [n for n in REMOVED if hasattr(module, n)] == []


def test_package_names():
    assert set(MODULES) == set(LIBRARY) | {"cli"}
    assert [n for n in REMOVED if hasattr(stormdp, n)] == []


def test_package_exports_the_union_of_the_library_modules_names():
    modules = [importlib.import_module(f"stormdp.{name}") for name in LIBRARY]
    owners = [(n, m) for m in modules for n in m.__all__]
    assert len({n for n, _ in owners}) == len(owners)   # no two modules export one name
    public = {n for n, v in vars(stormdp).items()
              if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == {n for n, _ in owners}
    assert [n for n, m in owners if getattr(stormdp, n) is not getattr(m, n)] == []
