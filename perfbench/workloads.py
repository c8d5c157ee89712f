"""The benchmark's workloads, each run in a fresh process by ``run.py``.

    python perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR

``run.py`` sets the environment (one BLAS thread, ``PYTHONPATH`` at the
checkout's ``src``) and adds the interpreter-start import time to
``setup_s``.  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics`` (plain numbers), ``samples`` and
``env``.

Workloads:

* ``fit_n1000``  -- ``train_lmkad`` for LMKAD(S_gpl), N=1000, d=8, nu=0.1,
  cycling over ``FIT_SETS`` seeded N(0,1) target sets (each at least once).
  Run by hand; it is not one of BENCHMARK.json's workloads.
* ``score_100k`` -- ``lmkad predict`` (via ``cli.main``) of a model fitted in
  set-up, on a generated 100,000-row feature CSV.
* ``iris_cv``    -- the full repeated-CV protocol of
  ``scripts/run_iris_benchmark.py`` (11 classifiers x 3 iris views, 5 runs
  x 5 folds, seed 20240811) through ``lmkad benchmark``.  Its inputs are
  the bundled data and the protocol's own seed, so ``--seed`` does not
  change them; that keeps its outputs comparable byte for byte.

Every output is checked against ``reference/``, recorded by
``record_reference.py`` on the commit that introduced the benchmark.
Seeded inputs are drawn from a fixed family of indices (``FIT_FAMILY``,
``SCORE_FAMILY``) so that every input a seed can select has a recorded
reference.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import lmkad
from lmkad import cli, dataset, evaluation, models

from spans import SpanRecorder

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "reference"

SETUP_REPS = 3
#: predict calls are bursty on a shared host; a timed run makes at least this many
SCORE_MIN_CALLS = 10
#: traced and untraced predict calls in a traced score_100k run
TRACE_REPS = 3

N_FIT, D, NU = 1000, 8, 0.1
KERNELS = "gpl"
FIT_SETS = 8
FIT_FAMILY = 128

SCORE_ROWS = 100_000
SCORE_FAMILY = 64

IRIS_SEED = 20240811
IRIS_VIEWS = ("setosa", "versicolor", "virginica")
IRIS_NU_GRID = [0.02, 0.05, 0.1, 0.2, 0.3]
IRIS_FOLDS, IRIS_RUNS = 5, 5
#: worker processes of the untraced protocol; never more than the cores
IRIS_JOBS = min(2, os.cpu_count() or 1)
#: a median of two protocols spans ~50 s of the host's drifting speed, not ~25 s
IRIS_MIN_PROTOCOLS = 2
SKIPPED_FOLD = re.compile(r"run \d+ fold \d+ skipped:")


# --- inputs ------------------------------------------------------------------


def fit_indices(seed: int) -> list[int]:
    return [(seed * FIT_SETS + k) % FIT_FAMILY for k in range(FIT_SETS)]


def fit_targets(index: int) -> np.ndarray:
    return np.random.default_rng([0, index]).standard_normal((N_FIT, D))


def fit_config(index: int) -> models.LmkadConfig:
    return models.LmkadConfig(nu=NU, gating_kind="sigmoid", seed=index)


def score_inputs(index: int) -> tuple[np.ndarray, np.ndarray]:
    """Training targets and 100k rows to score, a tenth of them spread 3x."""
    rng = np.random.default_rng([1, index])
    targets = rng.standard_normal((N_FIT, D))
    rows = rng.standard_normal((SCORE_ROWS, D))
    rows *= np.where(rng.random(SCORE_ROWS) < 0.1, 3.0, 1.0)[:, None]
    return targets, rows


def write_rows_csv(path: Path, rows: np.ndarray) -> None:
    np.savetxt(path, rows, fmt="%.9g", delimiter=",")


def read_predictions(path: Path) -> tuple[str, int, int]:
    """(sha256 of the label column, rows, rows with a non-finite decision value)."""
    labels = []
    nonfinite = 0
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _, value, label = line.rstrip("\n").split(",")
            labels.append(label)
            nonfinite += not math.isfinite(float(value))
    return hashlib.sha256(",".join(labels).encode()).hexdigest(), len(labels), nonfinite


def iris_classifiers() -> list[dict]:
    """The eleven columns of the paper's protocol, as scripts/run_iris_benchmark.py builds them."""
    rows = [
        {"name": "OCSVM(g)", "family": "ocsvm", "kernels": "gauss:auto"},
        {"name": "OCSVM(p)", "family": "ocsvm", "kernels": "poly:q=2"},
        {"name": "OCSVM(l)", "family": "ocsvm", "kernels": "linear"},
        {"name": "MKAD(gpl)", "family": "mkad", "kernels": "gpl"},
        {"name": "MKAD(gpp)", "family": "mkad", "kernels": "gpp"},
    ]
    for tag, gating in (("S", "sigmoid"), ("So", "softmax"), ("R", "rbf")):
        for combo in ("gpl", "gpp"):
            rows.append({"name": f"LMKAD({tag}_{combo})", "family": "lmkad",
                         "kernels": combo, "gating": gating})
    for row in rows:
        row["nu_grid"] = IRIS_NU_GRID
    return rows


def iris_config(out_dir: Path) -> dict:
    return {
        "seed": IRIS_SEED,
        "n_folds": IRIS_FOLDS,
        "n_runs": IRIS_RUNS,
        "output_dir": str(out_dir),
        "datasets": [
            {"name": f"iris-{target}", "path": str(ROOT / "data" / "iris.csv"),
             "label_column": "species", "target_label": target, "header": True}
            for target in IRIS_VIEWS
        ],
        "classifiers": iris_classifiers(),
    }


def run_iris_protocol(config_path: Path, out_dir: Path, jobs: int) -> tuple[int, str]:
    """``lmkad benchmark`` in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["benchmark", "--config", str(config_path),
                         "--output-dir", str(out_dir), "--jobs", str(jobs)])
    return code, err.getvalue()


# --- measurement helpers -------------------------------------------------------


class Checks:
    """Counts operations and collects every output mismatch."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatches.append(message)


def median_time(fn, reps: int = SETUP_REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference(name: str):
    with open(REFERENCE / name, encoding="utf-8") as fh:
        return json.load(fh)


#: an operation's context when it is not traced
UNTRACED = contextlib.nullcontext()


def measure(op, seconds: float, min_ops: int = 1) -> list[float]:
    """Wall times of ``op(0), op(1), ...`` until ``seconds`` pass and ``min_ops`` ran."""
    times: list[float] = []
    start = perf_counter()
    while len(times) < min_ops or perf_counter() - start < seconds:
        times.append(op(len(times)))
    return times


def traced_pairs(op, n_ops: int, checks: Checks, tmp: Path, **samples) -> dict:
    """Per-layer result of ``n_ops`` operations, each run untraced and then traced.

    ``op(i, ctx)`` runs operation ``i`` with its program call inside ``ctx``
    and returns that call's wall time.  ``trace.overhead_s`` is the mean
    traced minus untraced time of the same operations.
    """
    rec = SpanRecorder()
    untraced, traced = [], []
    for i in range(n_ops):
        untraced.append(op(i, UNTRACED))
        rec.install()
        try:
            traced.append(op(i, rec.operation(i)))
        finally:
            rec.uninstall()
    metrics = rec.metrics(IRIS_JOBS)
    metrics["trace.overhead_s"] = (sum(traced) - sum(untraced)) / n_ops
    rec.write_csv(tmp / "spans.csv")
    return result(checks, metrics, traced_s=traced, untraced_s=untraced, **samples)


def end_to_end(checks: Checks, setup_s: float, times: list[float], **samples) -> dict:
    metrics = {"setup_s": setup_s, "op_wall_s": statistics.median(times), "peak_rss_mb": peak_rss_mb()}
    return result(checks, metrics, op_wall_s=times, **samples)


def result(checks: Checks, metrics: dict, **samples) -> dict:
    return {
        "correct": not checks.mismatches,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
        "samples": samples,
        "mismatches": checks.mismatches[:20],
    }


# --- fit_n1000 -------------------------------------------------------------------


def fit_n1000(seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    refs = load_reference("fit_n1000.json")["fits"]
    indices = fit_indices(seed)
    data = [fit_targets(i) for i in indices]
    checks = Checks()
    setup_s = median_time(lambda: models.resolve_kernels(KERNELS))

    def fit(k: int, ctx=UNTRACED) -> float:
        index = indices[k]
        config = fit_config(index)
        checks.attempted += 1
        t0 = perf_counter()
        try:
            with ctx:
                model = models.train_lmkad(data[k], KERNELS, config)
        except (ValueError, RuntimeError) as exc:
            checks.failed += 1
            checks.mismatches.append(f"fit {index} raised {exc!r}")
            return perf_counter() - t0
        elapsed = perf_counter() - t0
        ref = refs[index]
        objective = model.report.objective_trace[-1]
        checks.expect(abs(objective - ref["objective"]) <= config.inner_tol,
                      f"fit {index}: dual objective {objective!r} != reference {ref['objective']!r}")
        checks.expect(models.sv_count(model) == ref["n_sv"],
                      f"fit {index}: {models.sv_count(model)} SVs != reference {ref['n_sv']}")
        return elapsed

    fit(0)  # warm-up
    if trace:
        return traced_pairs(fit, len(indices), checks, tmp)
    times = measure(lambda i: fit(i % len(indices)), seconds, min_ops=len(indices))
    return end_to_end(checks, setup_s, times)


# --- score_100k ----------------------------------------------------------------


def score_100k(seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    index = seed % SCORE_FAMILY
    ref = load_reference("score_100k.json")["label_sha256"][index]
    targets, rows = score_inputs(index)
    rows_path = tmp / "rows.csv"
    model_path = tmp / "model.json"
    out_path = tmp / "predictions.csv"
    write_rows_csv(rows_path, rows)
    del rows

    def fit_and_save():
        models.save_model(models.train_lmkad(targets, KERNELS, fit_config(index)), model_path)

    setup_s = median_time(fit_and_save)
    checks = Checks()

    def predict(i: int = 0, ctx=UNTRACED) -> float:
        checks.attempted += SCORE_ROWS
        t0 = perf_counter()
        with ctx, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["predict", "--model", str(model_path),
                             "--data", str(rows_path), "--out", str(out_path)])
        elapsed = perf_counter() - t0
        if code != 0:
            checks.failed += SCORE_ROWS
            checks.mismatches.append(f"lmkad predict exited {code}")
            return elapsed
        digest, n_rows, nonfinite = read_predictions(out_path)
        checks.failed += nonfinite
        checks.expect(n_rows == SCORE_ROWS, f"predict wrote {n_rows} rows, expected {SCORE_ROWS}")
        checks.expect(digest == ref, f"labels of input {index} differ from the reference")
        return elapsed

    predict()  # warm-up
    if trace:
        return traced_pairs(predict, TRACE_REPS, checks, tmp)
    times = measure(predict, seconds, min_ops=SCORE_MIN_CALLS)
    return end_to_end(checks, setup_s, times, rows_per_op=SCORE_ROWS)


# --- iris_cv -------------------------------------------------------------------


def iris_cv(seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    del seed  # fixed protocol inputs; see the module docstring
    config_path = tmp / "iris_config.json"
    config_path.write_text(json.dumps(iris_config(tmp / "iris_out")) + "\n", encoding="utf-8")
    reference = {name: (REFERENCE / "iris_cv" / name).read_bytes()
                 for name in ("results.csv", "gmean_matrix.csv")}
    n_folds = len(IRIS_VIEWS) * len(iris_classifiers()) * IRIS_RUNS * IRIS_FOLDS
    iris_path = ROOT / "data" / "iris.csv"

    def load_views():
        for target in IRIS_VIEWS:
            view = dataset.load_csv(iris_path, label_column="species", target_label=target,
                                    has_header=True, name=f"iris-{target}")
            dataset.plan_folds(view, n_folds=IRIS_FOLDS, n_runs=IRIS_RUNS, seed=IRIS_SEED)

    setup_s = median_time(load_views)
    checks = Checks()

    # warm-up: one small cell in this process, before the pool forks from it
    view = dataset.load_csv(iris_path, label_column="species", target_label="setosa", has_header=True)
    plan = dataset.plan_folds(view, n_folds=IRIS_FOLDS, n_runs=1, seed=IRIS_SEED)
    evaluation.cross_validate(view, evaluation.ClassifierConfig(name="warm-up", family="ocsvm"),
                              IRIS_NU_GRID, plan, base_seed=IRIS_SEED)

    def protocol(i: int, ctx=UNTRACED, jobs: int = IRIS_JOBS) -> float:
        out_dir = tmp / f"iris_out{i}"
        checks.attempted += n_folds
        t0 = perf_counter()
        with ctx:
            code, stderr = run_iris_protocol(config_path, out_dir, jobs)
        elapsed = perf_counter() - t0
        checks.failed += len(SKIPPED_FOLD.findall(stderr))
        checks.expect(code == 0, f"lmkad benchmark exited {code}: {stderr[-500:]}")
        for name, expected in reference.items():
            path = out_dir / name
            checks.expect(path.is_file() and path.read_bytes() == expected,
                          f"{name} differs from the reference")
        shutil.rmtree(out_dir, ignore_errors=True)
        return elapsed

    if trace:
        # spans cannot cross the process pool, so both passes run in this process
        return traced_pairs(lambda i, ctx: protocol(i, ctx, jobs=1), 1, checks, tmp)
    times = measure(protocol, seconds, min_ops=IRIS_MIN_PROTOCOLS)
    return end_to_end(checks, setup_s, times, jobs=IRIS_JOBS)


# --- entry point ----------------------------------------------------------------------


WORKLOADS = {"fit_n1000": fit_n1000, "score_100k": score_100k, "iris_cv": iris_cv}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(lmkad.__file__).resolve().parents:
        print(f"error: lmkad was imported from {lmkad.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), args.tmp)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
