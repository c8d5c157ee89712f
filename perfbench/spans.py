"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public lmkad functions from the benchmark's side; it
edits nothing in the package.  A function is replaced at every lmkad
module that binds it by name, because ``from .x import f`` copies the
binding: patching only the defining module would miss, for example,
``evaluation``'s own ``train_for_config`` -> ``train_lmkad`` calls or
``models``' calls to ``gram``, ``solve_dual`` and ``DualProblem``.

Spans live in flat in-memory arrays while the workload runs (a traced
iris protocol makes several hundred thousand of them) and are aggregated,
or written out, only after it ends.  A span's self time is its duration
minus the durations of its direct children; calls are single-threaded and
nested, so children never overlap.
"""
from __future__ import annotations

import csv
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

MODULES = (
    "lmkad",
    "lmkad.dataset",
    "lmkad.kernels",
    "lmkad.gating",
    "lmkad.solver",
    "lmkad.models",
    "lmkad.evaluation",
    "lmkad.cli",
)


def _rows(args, kwargs, result):
    features = getattr(result, "features", result)
    return features.shape[0]


def _gram_bytes(args, kwargs, result):
    return result.shape[0] * result.shape[1] * 8


def _gate_tmp_bytes(args, kwargs, result):
    # the broadcast logits / distances are an (N, p, d) float64 temporary
    params = args[0] if args else kwargs["params"]
    return result.shape[0] * result.shape[1] * params.d * 8


def _smo_steps(args, kwargs, result):
    return result.iterations


def _outer_iters(args, kwargs, result):
    return result.report.iterations


#: span name ("<module>.<attribute>") -> how to read its count from the call
TARGETS = {
    "dataset.load_csv": _rows,
    "dataset.load_features_csv": _rows,
    "dataset.plan_folds": None,
    "dataset.split_for_occ": None,
    "kernels.gram": _gram_bytes,
    "gating.gate_eval_batch": _gate_tmp_bytes,
    "gating.gate_gradient": None,
    "solver.DualProblem": None,
    "solver.solve_dual": _smo_steps,
    "models.train_ocsvm": None,
    "models.train_mkad": None,
    "models.train_lmkad": _outer_iters,
    "models.composite_gram_fixed": None,
    "models.composite_gram_localized": None,
    "models.decision_values": None,
    "models.predict_batch": None,
    "models.save_model": None,
    "models.load_model": None,
    "evaluation.cross_validate": None,
    "evaluation.train_for_config": None,
    "cli.cmd_predict": None,
    "cli.cmd_benchmark": None,
}
NAMES = tuple(TARGETS)

ERROR = 1
NONCONVERGED = 2

#: per-layer self-time metrics: metric -> spans whose self time it sums
SELF_TIME = {
    "dataset.parse_s": ("dataset.load_csv", "dataset.load_features_csv"),
    "dataset.split_s": ("dataset.plan_folds", "dataset.split_for_occ"),
    "kernels.gram_s": ("kernels.gram",),
    "gating.eval_s": ("gating.gate_eval_batch",),
    "gating.grad_s": ("gating.gate_gradient",),
    "solver.validate_s": ("solver.DualProblem",),
    "solver.smo_s": ("solver.solve_dual",),
    "models.compose_s": (
        "models.train_ocsvm",
        "models.train_mkad",
        "models.train_lmkad",
        "models.composite_gram_fixed",
        "models.composite_gram_localized",
    ),
    "models.decision_s": ("models.decision_values", "models.predict_batch"),
    "models.serialize_s": ("models.save_model", "models.load_model"),
    "cli.write_s": ("cli.cmd_predict",),
}


class SpanRecorder:
    """Records one span per call of every function in ``TARGETS``."""

    def __init__(self):
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.count = array("q")
        self.flags = array("b")
        self.ops: list[tuple[int, float, float]] = []  # (op id, start, end)
        self._stack: list[int] = []
        self._current_op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for span_name in NAMES:
            module, attr = span_name.split(".")
            originals[span_name] = getattr(importlib.import_module(f"lmkad.{module}"), attr)
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                for span_name, fn in originals.items():
                    if value is fn:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, self._wrap(span_name, fn))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, span_name: str, fn):
        code = NAMES.index(span_name)
        extract = TARGETS[span_name]
        check_converged = span_name == "solver.solve_dual"
        rec = self
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(rec.name)
            rec.name.append(code)
            rec.parent.append(stack[-1] if stack else -1)
            rec.op.append(rec._current_op)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec.count.append(0)
            rec.flags.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.start[idx] = t0
                rec.end[idx] = perf_counter()
                rec.flags[idx] = ERROR
                raise
            finally:
                stack.pop()
            rec.end[idx] = perf_counter()
            rec.start[idx] = t0
            if extract is not None:
                rec.count[idx] = extract(args, kwargs, result)
            if check_converged and not result.converged:
                rec.flags[idx] = NONCONVERGED
            return result

        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Tag every span started inside the block with ``op_id``."""
        self._current_op = op_id
        t0 = perf_counter()
        try:
            yield
        finally:
            self.ops.append((op_id, t0, perf_counter()))
            self._current_op = -1

    # -- analysis ----------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "name", "op", "parent", "start", "end", "count", "flags"])
            for i in range(len(self.name)):
                writer.writerow([i, NAMES[self.name[i]], self.op[i], self.parent[i],
                                 repr(self.start[i]), repr(self.end[i]), self.count[i], self.flags[i]])

    def metrics(self, pool_jobs: int) -> dict[str, float]:
        """Per-layer metrics, each per traced operation.

        ``pool_jobs`` is the worker count of the untraced protocol, for
        ``cli.pool_efficiency``.
        """
        n = len(self.name)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration[i]
        self_time = [duration[i] - child[i] for i in range(n)]

        by_name: dict[str, list[int]] = {name: [] for name in NAMES}
        for i in range(n):
            by_name[NAMES[self.name[i]]].append(i)

        def total(values, names):
            return sum(values[i] for name in names for i in by_name[name])

        def count(names):
            return sum(self.count[i] for name in names for i in by_name[name])

        n_ops = max(len(self.ops), 1)
        out = {metric: total(self_time, names) / n_ops for metric, names in SELF_TIME.items()}

        smo_steps = count(["solver.solve_dual"])
        cv_code = NAMES.index("evaluation.cross_validate")
        fits = by_name["evaluation.train_for_config"]
        cells = [duration[i] for i in by_name["evaluation.cross_validate"]]
        out.update({
            "dataset.rows_parsed": count(["dataset.load_csv", "dataset.load_features_csv"]) / n_ops,
            "kernels.gram_calls": len(by_name["kernels.gram"]) / n_ops,
            "kernels.gram_bytes": count(["kernels.gram"]) / n_ops,
            "gating.eval_calls": len(by_name["gating.gate_eval_batch"]) / n_ops,
            "gating.eval_tmp_bytes": count(["gating.gate_eval_batch"]) / n_ops,
            "gating.grad_calls": len(by_name["gating.gate_gradient"]) / n_ops,
            "solver.validate_calls": len(by_name["solver.DualProblem"]) / n_ops,
            "solver.smo_steps": smo_steps / n_ops,
            "solver.smo_us_per_step": 1e6 * total(self_time, ["solver.solve_dual"]) / smo_steps if smo_steps else 0.0,
            "solver.nonconverged": sum(self.flags[i] == NONCONVERGED for i in by_name["solver.solve_dual"]) / n_ops,
            "models.outer_iters": count(["models.train_lmkad"]) / n_ops,
            "evaluation.fits": sum(self.flags[i] != ERROR for i in fits) / n_ops,
            "evaluation.candidates_skipped": sum(self.flags[i] == ERROR for i in fits) / n_ops,
            "evaluation.fit_s": sum(duration[i] for i in fits) / n_ops,
            "evaluation.score_s": sum(
                duration[i] for i in by_name["models.predict_batch"]
                if self.parent[i] >= 0 and self.name[self.parent[i]] == cv_code
            ) / n_ops,
            "evaluation.cell_s_max": max(cells, default=0.0),  # slowest single cell
            "evaluation.cell_s_sum": sum(cells) / n_ops,
            "cli.pool_efficiency": pool_efficiency(cells, pool_jobs),
            "trace.coverage": self.coverage(duration),
        })
        return out

    def coverage(self, duration) -> float:
        """Smallest share of an operation's wall time covered by its spans."""
        covered: dict[int, float] = {}
        for i in range(len(self.name)):
            if self.parent[i] < 0:
                covered[self.op[i]] = covered.get(self.op[i], 0.0) + duration[i]
        shares = [covered.get(op, 0.0) / (t1 - t0) for op, t0, t1 in self.ops]
        return min(shares, default=0.0)


def pool_efficiency(cells: list[float], jobs: int) -> float:
    """Busy share of ``jobs`` workers fed the cells in order, as pool.map does.

    ``sum(cells) / (jobs * makespan)``: 1.0 means no worker idles while
    another finishes the critical-path cell.
    """
    if not cells:
        return 0.0
    free = [0.0] * jobs
    for d in cells:
        w = free.index(min(free))
        free[w] += d
    return sum(cells) / (jobs * max(free))
