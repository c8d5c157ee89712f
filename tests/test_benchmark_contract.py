"""The benchmark under ``perfbench/`` calls lmkad by name; those names must exist.

``perfbench/spans.py`` looks up every ``TARGETS`` entry ("<module>.<attr>")
with ``getattr`` on ``lmkad.<module>`` when a traced run starts, and the
workload scripts call ``models.*``, ``evaluation.*``, ``dataset.*`` and
``cli.*`` directly.  A renamed function would crash the benchmark rather
than fail a test, so the names are read from the scripts' source (parsed,
not imported, so nothing under ``perfbench/`` is touched) and resolved here.

The span recorder also reads a count from each traced call (``params.d``,
``.iterations``, ``.report``), which a refactor can break without renaming
anything, so one small traced run imports ``spans.py`` by path, with
bytecode writing off, and checks the counts.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from lmkad import dataset, evaluation, models

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


def _import_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def test_traced_run_counts_every_gate_evaluation():
    before = _tree(PERFBENCH)
    spans = _import_spans()
    rng = np.random.default_rng(0)
    X = rng.normal(loc=2.0, size=(20, 3))
    data = dataset.Dataset(np.vstack((X, rng.normal(loc=8.0, size=(10, 3)))), np.r_[np.ones(20), -np.ones(10)])
    config = evaluation.ClassifierConfig(name="L", family="lmkad", kernels="gpl",
                                         trainer=models.LmkadConfig(nu=1.0, max_outer=3))
    originals = (models.train_lmkad, models.decision_values, evaluation.cross_validate)
    rec = spans.SpanRecorder()
    rec.install()
    try:
        with rec.operation(0):
            model = models.train_lmkad(X, "gpl", models.LmkadConfig(nu=0.2, max_outer=3))
            models.decision_values(model, X)
            plan = dataset.plan_folds(data, n_folds=2, n_runs=1, seed=0)
            evaluation.cross_validate(data, config, [0.2, 0.5], plan)
    finally:
        rec.uninstall()
    assert (models.train_lmkad, models.decision_values, evaluation.cross_validate) == originals

    counts = {}
    for code, count in zip(rec.name, rec.count):
        counts.setdefault(spans.NAMES[code], []).append(count)
    # one gate evaluation per decision block: the fit's scoring and each candidate's validation and test scoring
    gate_counts = counts["gating.gate_eval_batch"]
    assert len(gate_counts) == 1 + 2 * 2 + 2 and all(c > 0 for c in gate_counts)
    assert gate_counts[0] == 20 * 3 * 3 * 8  # (N, p, d) float64 temporary
    assert counts["models.train_lmkad"] == [model.report.iterations]
    metrics = rec.metrics(1)
    assert metrics["gating.eval_calls"] == len(gate_counts) and metrics["gating.eval_tmp_bytes"] > 0
    assert metrics["models.outer_iters"] == model.report.iterations
    assert _tree(PERFBENCH) == before
