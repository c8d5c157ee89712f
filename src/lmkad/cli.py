"""Command-line interface: fit, predict, benchmark, stats.

``benchmark`` consumes a JSON experiment config (schema documented in the
README) and writes results/ranks/friedman CSVs plus the raw Gmean matrix.
Its (dataset, classifier) cells are split, in config order, into
``min(--jobs, cells)`` contiguous shares of equal count (sizes differ by
at most one); each share is trained as one program
(``evaluation.cross_validate_many``), the shares in a process pool when
there are several.  All commands are deterministic given their flags and
seed, whatever ``--jobs``; the env var ``LMKAD_SEED`` supplies a default
seed, flags override it.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluation
from .dataset import BLOCK_ROWS, fit_normalizer, iter_feature_blocks, load_csv, plan_folds
from .evaluation import ClassifierConfig, CvCell, cross_validate_many
from .gating import GATING_KINDS, prepare_kind
from .models import FAMILIES, LmkadConfig, ScoreBuffers, decision_values, load_model, save_model, sv_count
from .solver import RHO_MODES


def _default_seed() -> int | None:
    env = os.environ.get("LMKAD_SEED")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"LMKAD_SEED must be an integer, got {env!r}") from None


def _parse_label_column(value: str):
    try:
        return int(value)
    except ValueError:
        return value


def _check_normalizer(path, data) -> None:
    """Fail with the data file named when its target rows overflow the normalizer."""
    try:
        fit_normalizer(data.features[data.labels == 1])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_fit(args) -> int:
    data = load_csv(
        args.data,
        label_column=_parse_label_column(args.label_column),
        target_label=args.target_label,
        has_header=args.header,
    )
    _check_normalizer(args.data, data)
    train_targets = data.features[data.labels == 1]
    seed = args.seed if args.seed is not None else (_default_seed() or 0)
    config = ClassifierConfig(args.family, args.family, args.kernels, _trainer(vars(args)))
    model = evaluation.train_for_config(config, train_targets, args.nu, seed)
    save_model(model, args.out)

    report = model.report
    print(f"trained {args.family} on {train_targets.shape[0]} target rows "
          f"({data.name}), nu={args.nu}")
    print(f"support vectors: {sv_count(model)} ({evaluation.sv_fraction(model):.2f}%)")
    if model.gating is not None:
        trace = report.objective_trace
        print(f"outer iterations: {report.iterations} (converged={report.converged}), "
              f"inner solves not converged: {report.inner_nonconverged}")
        print(f"dual objective: first={trace[0]:.6g} last={trace[-1]:.6g}")
    print(f"final KKT violation: {report.final_violation:.3g}")
    print(f"model written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    """Score ``--data`` block by block into a temp file, renamed to ``--out`` on success.

    Each block of ``BLOCK_ROWS`` rows is read (``iter_feature_blocks``),
    scored by one ``decision_values`` call in buffers allocated once, and
    written with one ``write`` call.  The written lines are
    ``index,decision_value,label``, the bytes ``csv.writer`` would give:
    no field can hold a comma, quote or line break.
    """
    model = load_model(args.model)
    label_column = _parse_label_column(args.label_column) if args.label_column else None
    blocks = iter_feature_blocks(
        args.data, BLOCK_ROWS, has_header=args.header, label_column=label_column
    )
    buffers = ScoreBuffers(model)
    out = Path(args.out)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    n = 0
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write("index,decision_value,label\n")
            for X in blocks:
                values = decision_values(model, X, buffers)
                k = len(values)
                fields = [0] * (3 * k)
                fields[0::3] = range(n, n + k)
                fields[1::3] = values.tolist()
                fields[2::3] = np.where(values >= 0.0, 1, -1).tolist()  # NaN scores -1
                fh.write(("%d,%.12g,%d\n" * k) % tuple(fields))
                n += k
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    print(f"wrote {n} predictions to {args.out}")
    return 0


#: classifier keys of a benchmark config, and ``lmkad fit`` flags, that set the
#: ``LmkadConfig`` field of the same name (``gating`` sets ``gating_kind``)
_TRAINER_KEYS = (
    "gating", "learning_rate", "lr_decay", "outer_tol", "max_outer", "inner_tol", "rho_mode",
)
#: every key a classifier or dataset entry of a benchmark config may hold
_CLASSIFIER_KEYS = ("name", "family", "kernels", "nu_grid", *_TRAINER_KEYS)
_DATASET_KEYS = ("name", "path", "label_column", "target_label", "header")
#: every top-level key of a benchmark config
_CONFIG_KEYS = ("seed", "n_folds", "n_runs", "output_dir", "datasets", "classifiers")


def _load_experiment_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    for key in config:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}: config has unknown key {key!r} (known: {', '.join(_CONFIG_KEYS)})")
    for key in ("datasets", "classifiers"):
        if not config.get(key) or not isinstance(config[key], list):
            raise ValueError(f"{path}: config needs a non-empty {key!r} list")
    for section, known, required in (("datasets", _DATASET_KEYS, ("path", "target_label")),
                                     ("classifiers", _CLASSIFIER_KEYS, ("family",))):
        for k, entry in enumerate(config[section]):
            where = f"{path}: {section}[{k}]"
            if not isinstance(entry, dict):
                raise ValueError(f"{where} is not a JSON object")
            for key in entry:
                if key not in known:
                    raise ValueError(f"{where} has unknown key {key!r} (known: {', '.join(known)})")
            for key in required:
                if key not in entry:
                    raise ValueError(f"{where} needs a {key!r}")
    if "seed" not in config:
        env = _default_seed()
        if env is None:
            raise ValueError(f"{path}: config needs a 'seed' (or set LMKAD_SEED)")
        config["seed"] = env
    config.setdefault("n_folds", 5)
    config.setdefault("n_runs", 5)
    config.setdefault("output_dir", "results")
    for key in ("seed", "n_folds", "n_runs"):
        if isinstance(config[key], bool) or not isinstance(config[key], int):
            raise ValueError(f"{path}: {key!r} must be an integer, got {config[key]!r}")
    return config


def _trainer(settings: dict) -> LmkadConfig:
    """``ClassifierConfig``'s default trainer with the ``_TRAINER_KEYS`` of ``settings``."""
    return replace(ClassifierConfig.trainer, **{
        "gating_kind" if key == "gating" else key: settings[key] for key in _TRAINER_KEYS if key in settings
    })


def _classifier_from_dict(spec: dict) -> tuple[ClassifierConfig, list[float]]:
    kernels = spec.get("kernels", "gauss:auto")
    if isinstance(kernels, list):
        kernels = tuple(kernels)
    name = spec.get("name") or f"{spec['family']}({kernels})"
    grid = [float(v) for v in spec.get("nu_grid", evaluation.DEFAULT_NU_GRID)]
    return ClassifierConfig(name, spec["family"], kernels, _trainer(spec)), grid


def _shares(cells: list, n: int) -> list[list]:
    """``cells`` in order, cut into ``n`` contiguous shares whose sizes differ by at most one."""
    bounds = [len(cells) * k // n for k in range(n + 1)]
    return [cells[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def cmd_benchmark(args) -> int:
    config = _load_experiment_config(args.config)
    out_dir = Path(args.output_dir or config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = config["seed"]

    classifiers = []
    for k, spec in enumerate(config["classifiers"]):
        try:
            classifiers.append(_classifier_from_dict(spec))
        except ValueError as exc:
            raise ValueError(f"{args.config}: classifiers[{k}]: {exc}") from None
    datasets = [
        load_csv(
            spec["path"],
            label_column=_parse_label_column(str(spec.get("label_column", -1))),
            target_label=spec["target_label"],
            has_header=bool(spec.get("header", False)),
            name=spec.get("name"),
        )
        for spec in config["datasets"]
    ]
    for spec, data in zip(config["datasets"], datasets):
        _check_normalizer(spec["path"], data)  # every fold's training targets are a share of these

    cells = []
    for data in datasets:
        plan = plan_folds(data, n_folds=config["n_folds"], n_runs=config["n_runs"], seed=seed)
        for clf, grid in classifiers:
            cells.append(CvCell(data, clf, grid, plan, seed))

    # a failing share raises fit_many's error over its jobs; of several, the first share's
    shares = _shares(cells, min(args.jobs or os.cpu_count() or 1, len(cells)))
    if len(shares) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays for this import

        for clf, _ in classifiers:  # imported once here, the forked workers inherit what gates need
            if clf.family == "lmkad":
                prepare_kind(clf.trainer.gating_kind)
        with ProcessPoolExecutor(max_workers=len(shares)) as pool:
            results = [r for share in pool.map(cross_validate_many, shares) for r in share]
    else:
        results = cross_validate_many(cells)

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
        lookup = {(r.dataset, r.classifier): r.mean_gmean for r in results}
        M = np.array([[lookup[(d, c)] for c in classifier_names] for d in dataset_names])
        M = evaluation.write_gmean_matrix_csv(dataset_names, classifier_names, M, out_dir / "gmean_matrix.csv")
        print(f"wrote {out_dir / 'gmean_matrix.csv'}")
        if len(classifier_names) >= 2 and len(dataset_names) >= 2:
            report = evaluation.friedman_test(M)
            evaluation.write_friedman_csvs(classifier_names, report, out_dir / "ranks.csv", out_dir / "friedman.csv")
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
    _, classifiers, M = evaluation.read_gmean_matrix_csv(args.results)
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
        evaluation.write_friedman_csvs(classifiers, report, Path(args.out).with_suffix(".ranks.csv"), args.out)
        print(f"wrote {args.out}")
    return 0


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {number}")
    return number


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
    fit.add_argument("--family", choices=FAMILIES, required=True)
    fit.add_argument("--kernels", default="gauss:auto",
                     help="preset (gpl, gpp) or comma-joined kernel tokens")
    fit.add_argument("--gating", choices=GATING_KINDS, default=LmkadConfig.gating_kind)
    fit.add_argument("--nu", type=float, required=True, help="target rejection rate in (0, 1]")
    fit.add_argument("--learning-rate", type=float, default=LmkadConfig.learning_rate)
    fit.add_argument("--lr-decay", type=float, default=LmkadConfig.lr_decay)
    fit.add_argument("--max-outer", type=int, default=LmkadConfig.max_outer)
    fit.add_argument("--outer-tol", type=float, default=LmkadConfig.outer_tol)
    fit.add_argument("--rho-mode", choices=RHO_MODES, default=LmkadConfig.rho_mode)
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
    bench.add_argument("--jobs", type=_positive_int, default=None,
                       help="worker processes; the cells are split into this many contiguous "
                            "shares, each trained as one program (default: all cores)")
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
    except (ValueError, FileNotFoundError, OSError, RuntimeError, KeyError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
