"""Command-line interface: fit, predict, benchmark, stats.

``benchmark`` consumes a JSON experiment config (schema documented in the
README) and writes results/ranks/friedman CSVs plus the raw Gmean matrix.
All commands are deterministic given their flags and seed; the env var
``LMKAD_SEED`` supplies a default seed, flags override it.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import evaluation
from .dataset import iter_feature_blocks, load_csv, plan_folds
from .evaluation import ClassifierConfig, CvResult, cross_validate
from .models import BLOCK_ROWS, decision_values, load_model, save_model, sv_count


def _default_seed() -> int | None:
    env = os.environ.get("LMKAD_SEED")
    return int(env) if env else None


def _parse_label_column(value: str):
    try:
        return int(value)
    except ValueError:
        return value


def cmd_fit(args) -> int:
    data = load_csv(
        args.data,
        label_column=_parse_label_column(args.label_column),
        target_label=args.target_label,
        has_header=args.header,
    )
    train_targets = data.features[data.labels == 1]
    seed = args.seed if args.seed is not None else (_default_seed() or 0)
    config = ClassifierConfig(
        name=args.family,
        family=args.family,
        kernels=args.kernels,
        gating=args.gating,
        learning_rate=args.learning_rate,
        lr_decay=args.lr_decay,
        outer_tol=args.outer_tol,
        max_outer=args.max_outer,
        rho_mode=args.rho_mode,
    )
    model = evaluation.train_for_config(config, train_targets, args.nu, seed)
    save_model(model, args.out)

    report = model.report
    print(f"trained {args.family} on {train_targets.shape[0]} target rows "
          f"({data.name}), nu={args.nu}")
    print(f"support vectors: {sv_count(model)} ({evaluation.sv_fraction(model):.2f}%)")
    if model.gating is not None:
        trace = report.objective_trace
        print(f"outer iterations: {report.iterations} (converged={report.converged})")
        print(f"dual objective: first={trace[0]:.6g} last={trace[-1]:.6g}")
    print(f"final KKT violation: {report.final_violation:.3g}")
    print(f"model written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    """Score ``--data`` block by block into a temp file, renamed to ``--out`` on success.

    Each block of ``BLOCK_ROWS`` rows is read (``iter_feature_blocks``),
    scored and written with one ``write`` call.  The written lines are
    ``index,decision_value,label``, the bytes ``csv.writer`` would give:
    no field can hold a comma, quote or line break.
    """
    model = load_model(args.model)
    label_column = _parse_label_column(args.label_column) if args.label_column else None
    blocks = iter_feature_blocks(
        args.data, BLOCK_ROWS, has_header=args.header, label_column=label_column
    )
    out = Path(args.out)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    n = 0
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write("index,decision_value,label\n")
            for X in blocks:
                values = decision_values(model, X).tolist()
                fh.write("".join([
                    f"{i},{v:.12g},1\n" if v >= 0.0 else f"{i},{v:.12g},-1\n"
                    for i, v in enumerate(values, n)
                ]))
                n += len(values)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    print(f"wrote {n} predictions to {args.out}")
    return 0


def _load_experiment_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    for key in ("datasets", "classifiers"):
        if not config.get(key):
            raise ValueError(f"{path}: config needs a non-empty {key!r} list")
    if "seed" not in config:
        env = _default_seed()
        if env is None:
            raise ValueError(f"{path}: config needs a 'seed' (or set LMKAD_SEED)")
        config["seed"] = env
    config.setdefault("n_folds", 5)
    config.setdefault("n_runs", 5)
    config.setdefault("output_dir", "results")
    return config


#: optional classifier keys of a benchmark config; absent ones take ClassifierConfig's defaults
_CLASSIFIER_SETTINGS = (
    "gating", "learning_rate", "lr_decay", "outer_tol", "max_outer", "inner_tol", "rho_mode",
)


def _classifier_from_dict(spec: dict) -> tuple[ClassifierConfig, list[float]]:
    kernels = spec.get("kernels", "gauss:auto")
    if isinstance(kernels, list):
        kernels = tuple(kernels)
    config = ClassifierConfig(
        name=spec.get("name") or f"{spec['family']}({kernels})",
        family=spec["family"],
        kernels=kernels,
        **{key: spec[key] for key in _CLASSIFIER_SETTINGS if key in spec},
    )
    grid = [float(v) for v in spec.get("nu_grid", evaluation.DEFAULT_NU_GRID)]
    return config, grid


def _run_cell(task) -> CvResult:
    dataset, config, grid, plan, seed = task
    return cross_validate(dataset, config, grid, plan, base_seed=seed)


def cmd_benchmark(args) -> int:
    config = _load_experiment_config(args.config)
    out_dir = Path(args.output_dir or config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = int(config["seed"])

    datasets = []
    for spec in config["datasets"]:
        data = load_csv(
            spec["path"],
            label_column=_parse_label_column(str(spec.get("label_column", -1))),
            target_label=spec["target_label"],
            has_header=bool(spec.get("header", False)),
            name=spec.get("name"),
        )
        datasets.append(data)
    classifiers = [_classifier_from_dict(s) for s in config["classifiers"]]

    tasks = []
    for data in datasets:
        plan = plan_folds(data, n_folds=int(config["n_folds"]), n_runs=int(config["n_runs"]), seed=seed)
        for clf, grid in classifiers:
            tasks.append((data, clf, grid, plan, seed))

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_cell, tasks))
    else:
        results = [_run_cell(t) for t in tasks]

    results.sort(key=lambda r: (r.dataset, r.classifier))
    for r in results:
        for w in r.warnings:
            print(f"warning [{r.dataset} x {r.classifier}]: {w}", file=sys.stderr)

    evaluation.write_results_csv(results, out_dir / "results.csv")
    print(f"wrote {out_dir / 'results.csv'}")

    failed = [r for r in results if not np.isfinite(r.mean_gmean)]
    dataset_names = [d.name for d in datasets]
    classifier_names = [c.name for c, _ in classifiers]
    complete = not failed and len(dataset_names) >= 1
    if complete:
        M = np.empty((len(dataset_names), len(classifier_names)))
        lookup = {(r.dataset, r.classifier): r.mean_gmean for r in results}
        for i, d in enumerate(dataset_names):
            for j, c in enumerate(classifier_names):
                M[i, j] = lookup[(d, c)]
        evaluation.write_gmean_matrix_csv(dataset_names, classifier_names, M, out_dir / "gmean_matrix.csv")
        print(f"wrote {out_dir / 'gmean_matrix.csv'}")
        if len(classifier_names) >= 2 and len(dataset_names) >= 2:
            report = evaluation.friedman_test(M)
            evaluation.write_ranks_csv(classifier_names, report, out_dir / "ranks.csv")
            evaluation.write_friedman_csv(report, out_dir / "friedman.csv")
            print(f"wrote {out_dir / 'ranks.csv'} and {out_dir / 'friedman.csv'}")
        else:
            print("skipping ranks/friedman: need >= 2 classifiers and >= 2 datasets")

    if failed:
        for r in failed:
            print(f"cell failed: {r.dataset} x {r.classifier}", file=sys.stderr)
        if len(failed) == len(results):
            print("every benchmark cell failed", file=sys.stderr)
            return 1
    return 0


def cmd_stats(args) -> int:
    datasets, classifiers, M = evaluation.read_gmean_matrix_csv(args.results)
    if len(classifiers) < 2:
        raise ValueError("need >= 2 classifiers for a Friedman test")
    if len(datasets) < 2:
        raise ValueError("need >= 2 datasets for a Friedman test")
    report = evaluation.friedman_test(M)
    order = np.argsort(report.avg_ranks)
    print(f"friedman over {report.n_datasets} datasets x {report.n_classifiers} classifiers")
    print(f"chi_sq = {report.chi_sq:.4f}")
    f_repr = "inf" if report.degenerate else f"{report.f_stat:.4f}"
    print(f"f_stat = {f_repr}  df = ({report.df1}, {report.df2})  p_value = {report.p_value:.6g}")
    print("average ranks (best first):")
    for idx in order:
        print(f"  {classifiers[idx]:24s} {report.avg_ranks[idx]:.3f}")
    if args.out:
        evaluation.write_ranks_csv(classifiers, report, Path(args.out).with_suffix(".ranks.csv"))
        evaluation.write_friedman_csv(report, args.out)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmkad",
        description="One-class SVM anomaly detection with fixed and localized multiple kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="train one model on the target rows of a dataset")
    fit.add_argument("--data", required=True, help="CSV file with features and a label column")
    fit.add_argument("--label-column", default="-1", help="label column index or name (default: last)")
    fit.add_argument("--target-label", required=True, help="label value of the target class")
    fit.add_argument("--header", action="store_true", help="first CSV row is a header")
    fit.add_argument("--family", choices=("ocsvm", "mkad", "lmkad"), required=True)
    fit.add_argument("--kernels", default="gauss:auto",
                     help="preset (gpl, gpp) or comma-joined kernel tokens")
    fit.add_argument("--gating", choices=("softmax", "sigmoid", "rbf"), default="sigmoid")
    fit.add_argument("--nu", type=float, required=True, help="target rejection rate in (0, 1]")
    fit.add_argument("--learning-rate", type=float, default=20.0)
    fit.add_argument("--lr-decay", type=float, default=0.95)
    fit.add_argument("--max-outer", type=int, default=100)
    fit.add_argument("--outer-tol", type=float, default=1e-4)
    fit.add_argument("--rho-mode", choices=("margin", "mean-all-train"), default="margin")
    fit.add_argument("--seed", type=int, default=None, help="defaults to $LMKAD_SEED, then 0")
    fit.add_argument("--out", required=True, help="model file to write")
    fit.set_defaults(func=cmd_fit)

    pred = sub.add_parser("predict", help="apply a saved model to a feature CSV")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True, help="CSV of feature rows")
    pred.add_argument("--header", action="store_true")
    pred.add_argument("--label-column", default=None, help="optional column to drop")
    pred.add_argument("--out", required=True, help="CSV to write (index, decision_value, label)")
    pred.set_defaults(func=cmd_predict)

    bench = sub.add_parser("benchmark", help="run the repeated-CV protocol from a JSON config")
    bench.add_argument("--config", required=True)
    bench.add_argument("--output-dir", default=None, help="overrides the config's output_dir")
    bench.add_argument("--jobs", type=int, default=None,
                       help="worker processes for benchmark cells (default: all cores)")
    bench.set_defaults(func=cmd_benchmark)

    stats = sub.add_parser("stats", help="Friedman / Iman-Davenport test on a score matrix CSV")
    stats.add_argument("--results", required=True,
                       help="wide matrix CSV or long-format benchmark results.csv")
    stats.add_argument("--out", default=None, help="optional friedman summary CSV")
    stats.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
