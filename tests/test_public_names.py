"""The public names: each module's ``__all__`` resolves, and the second
paths that no command ran stay deleted."""

import importlib
import pkgutil

import pytest

import stormdp

MODULES = [info.name for info in pkgutil.iter_modules(stormdp.__path__)]
REMOVED = ["entropic_backup", "read_trace_csv", "smooth_sqrt_deriv", "sigmoid_gate_deriv"]


@pytest.mark.parametrize("name", MODULES)
def test_module_names(name):
    module = importlib.import_module(f"stormdp.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
    assert [n for n in REMOVED if hasattr(module, n)] == []


def test_package_names():
    assert set(MODULES) >= {"cli", "control", "linearize", "plant", "riskdp", "sim", "smooth"}
    assert [n for n in REMOVED if hasattr(stormdp, n)] == []
