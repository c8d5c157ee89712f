"""The benchmark under ``perfbench/`` calls lmkad by name; those names must exist.

``perfbench/spans.py`` looks up every ``TARGETS`` entry ("<module>.<attr>")
with ``getattr`` on ``lmkad.<module>`` when a traced run starts, and the
workload scripts call ``models.*``, ``evaluation.*``, ``dataset.*`` and
``cli.*`` directly.  A renamed function would crash the benchmark rather
than fail a test, so the names are read from the scripts' source (parsed,
not imported, so nothing under ``perfbench/`` is touched) and resolved here.
"""
import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("dataset", "kernels", "gating", "solver", "models", "evaluation", "cli")


def _span_targets():
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [key.value for key in node.value.keys]
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def _module_attributes(script):
    tree = ast.parse((PERFBENCH / script).read_text())
    return sorted({
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    })


NAMES = sorted(set(_span_targets()) | set(_module_attributes("workloads.py"))
               | set(_module_attributes("record_reference.py")))


def test_names_were_found():
    assert "models.train_lmkad" in NAMES and "evaluation.train_for_config" in NAMES


@pytest.mark.parametrize("name", NAMES)
def test_benchmark_name_resolves(name):
    module, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"lmkad.{module}"), attr))
