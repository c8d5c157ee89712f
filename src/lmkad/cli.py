"""Command-line interface: fit, predict, benchmark, stats.

``predict`` reads and writes its input in blocks of ``BLOCK_ROWS`` rows.
The width is checked once the first block is read, before the second is
read and before any worker starts; it is the only way a block can fail
to score (the model is checked on load, NaN features score -1, every
block is as wide as the first).  An input of one block is scored in this
process.  A longer one is scored in one forked worker process where that
pays (``_worker_pays``: at least two usable CPUs and the ``fork`` start
method), which scores block k while this process reads block k + 1 and
writes block k - 1, so at most two blocks are in flight; elsewhere in
this process, block by block.  Either way the output bytes and error
texts are those of scoring each block before reading the next.

``benchmark`` consumes a JSON experiment config (schema documented in the
README) and writes results/ranks/friedman CSVs plus the raw Gmean matrix.
Its (dataset, classifier) cells are split, in config order, into
``min(--jobs, cells)`` contiguous shares of equal count (sizes differ by
at most one); each share is trained as one program
(``evaluation.cross_validate_many``), the shares in a process pool when
there are several.  All commands are deterministic given their flags and
their config, whose ``seed`` is required (``fit --seed`` defaults to 0),
whatever ``--jobs`` and whatever the environment.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import closing
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import evaluation
from .dataset import BLOCK_ROWS, apply_normalizer, fit_normalizer, iter_feature_blocks, load_csv, plan_folds
from .evaluation import ClassifierConfig, CvCell, cross_validate_many
from .gating import GATING_KINDS, prepare_kind
from .models import FAMILIES, LmkadConfig, ScoreBuffers, decision_values, load_model, save_model, sv_count


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity where the platform
    tells it, else every CPU of the machine."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _parse_label_column(value: int | str) -> int | str:
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
    config = ClassifierConfig(args.family, args.family, args.kernels, _trainer(vars(args)))
    model = evaluation.train_for_config(config, train_targets, args.nu, args.seed)
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
    print(f"Q columns composed: {report.q_columns} of {report.iterations * model.n_train}")
    print(f"model written to {args.out}")
    return 0


#: the model and the one ``ScoreBuffers`` of a ``predict`` worker process
_scorer: tuple | None = None


def _start_scorer(model) -> None:
    """Initializer of ``predict``'s forked worker process: keep ``model`` and
    allocate the process's one ``ScoreBuffers``."""
    global _scorer
    _scorer = (model, ScoreBuffers(model))


def _score_block(X: np.ndarray) -> np.ndarray:
    """The decision values of one block, in the buffers of ``_start_scorer``."""
    model, buffers = _scorer
    return decision_values(model, X, buffers)


def _format_block(start: int, values: np.ndarray) -> str:
    """The lines ``index,decision_value,label`` of ``values``, indexed from
    ``start``: the bytes ``csv.writer`` would give, as no field can hold a
    comma, quote or line break."""
    k = len(values)
    fields = [0] * (3 * k)
    fields[0::3] = range(start, start + k)
    fields[1::3] = values.tolist()
    fields[2::3] = np.where(values >= 0.0, 1, -1).tolist()  # NaN scores -1
    return ("%d,%.12g,%d\n" * k) % tuple(fields)


def _worker_pays() -> bool:
    """Whether a multi-block predict gains from a worker process: only with
    two usable CPUs to overlap on, and under ``fork``, where the worker costs
    no fresh interpreter and inherits the model unpickled.  Measured on a
    100k-row predict (2-vCPU Linux host): pinned to one CPU, 0.48 s with the
    worker against 0.42 s without; ``spawn`` 0.65 s and ``forkserver``
    0.70 s against 0.34 s under ``fork``."""
    import multiprocessing  # only a multi-block predict pays for this import

    return usable_cpus() >= 2 and multiprocessing.get_start_method() == "fork"


def _scored_blocks(model, blocks):
    """Yield the decision values of each of ``blocks``, in order.

    The first block's width is checked against the model's as soon as it
    is read, before the second block is read and before any worker
    starts: that is the one way a block can fail to score, since
    ``load_model`` has checked every model field, NaN features score -1
    and every block is as wide as the first.  So the errors are those of
    scoring each block before reading the next, however the two overlap.
    From a second block on, where ``_worker_pays``, one worker process
    (``_start_scorer``) scores block k while this process reads block
    k + 1 and the caller writes block k - 1; at most two blocks are in
    flight.  Otherwise every block is scored here, in one ``ScoreBuffers``
    sized to the first block.
    """
    first = next(blocks, None)
    if first is None:
        return
    apply_normalizer(model.normalizer, first[:0])  # decision_values's width error, raised now
    X = next(blocks, None)
    if X is None or not _worker_pays():
        buffers = ScoreBuffers(model, len(first))
        for block in chain((first,) if X is None else (first, X), blocks):
            yield decision_values(model, block, buffers)
        return
    from concurrent.futures import ProcessPoolExecutor  # only a multi-block predict pays for this import

    pool = ProcessPoolExecutor(max_workers=1, initializer=_start_scorer, initargs=(model,))
    try:
        pending = [pool.submit(_score_block, first)]
        while X is not None:
            pending.append(pool.submit(_score_block, X))
            X = next(blocks, None)
            yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_predict(args) -> int:
    """Score ``--data`` block by block into a temp file, renamed to ``--out`` on success.

    Each block of ``BLOCK_ROWS`` rows is read (``iter_feature_blocks``),
    scored by one ``decision_values`` call and written with one ``write``
    call (``_format_block``).  The width is checked once the first block
    is read, before the second is read and before any worker starts: a
    model that loaded scores any row of the right width, NaN features
    included.  An input of one block is scored in this process; a longer
    one in one worker process where that pays, overlapped with reading
    and writing (``_scored_blocks``).  Either way the output bytes and the
    error texts are the same, and no process or temp file outlives the
    call.
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
        with open(tmp, "w", newline="", encoding="utf-8") as fh, closing(_scored_blocks(model, blocks)) as scored:
            fh.write("index,decision_value,label\n")
            for values in scored:
                fh.write(_format_block(n, values))
                n += len(values)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    print(f"wrote {n} predictions to {args.out}")
    return 0


#: classifier keys of a benchmark config that set the ``LmkadConfig`` field of
#: the same name (``gating`` sets ``gating_kind``); ``lmkad fit`` has a flag
#: for each but ``inner_tol``
_TRAINER_KEYS = ("gating", "learning_rate", "lr_decay", "outer_tol", "max_outer", "inner_tol")

#: (what a value must be, its JSON types) for the kinds of value that several keys take
_INT, _REAL, _STR = ("an integer", (int,)), ("a real number", (int, float)), ("a string", (str,))
#: every key of a benchmark config, by section: the top level ("config"), a
#: dataset entry and a classifier entry.  Each maps to what its value must be,
#: the JSON types the value may have (its exact type: true/false is not a
#: number), and its default: ``...`` for a required key, a value, or a
#: function of the entry's keys before it.  The README's grammar states it.
CONFIG_KEYS = {
    "config": {
        "seed": (*_INT, ...),
        "n_folds": (*_INT, 5), "n_runs": (*_INT, 5), "output_dir": (*_STR, "results"),
        "datasets": ("a non-empty list", (list,), ...), "classifiers": ("a non-empty list", (list,), ...),
    },
    "datasets": {
        "path": (*_STR, ...), "label_column": ("an integer or a string", (int, str), -1),
        "target_label": ("a string or a number", (str, int, float), ...),
        "header": ("true or false", (bool,), False), "name": (*_STR, lambda entry: entry["path"]),
    },
    "classifiers": {
        "family": (*_STR, ...), "kernels": ("a string or a list of strings", (str, list), ClassifierConfig.kernels),
        "nu_grid": ("a list of numbers", (list,), evaluation.DEFAULT_NU_GRID),
        "gating": (*_STR, LmkadConfig.gating_kind), "learning_rate": (*_REAL, LmkadConfig.learning_rate),
        "lr_decay": (*_REAL, LmkadConfig.lr_decay), "outer_tol": (*_REAL, LmkadConfig.outer_tol),
        "max_outer": (*_INT, LmkadConfig.max_outer), "inner_tol": (*_REAL, LmkadConfig.inner_tol),
        "name": (*_STR, lambda entry: f"{entry['family']}({entry['kernels']})"),
    },
}


def _checked(where: str, entry, keys: dict) -> dict:
    """``entry`` checked against ``keys``, a section of ``CONFIG_KEYS``, with
    every absent key set to its default and every list as a tuple (as the
    frozen ``ClassifierConfig`` takes ``kernels``).  An entry that is not a
    JSON object, an unknown key, an absent required key or a value of
    another JSON type is refused in one line that starts with ``where``."""
    if type(entry) is not dict:
        raise ValueError(f"{where} is not a JSON object")
    for key in entry:
        if key not in keys:
            raise ValueError(f"{where} has unknown key {key!r} (known: {', '.join(keys)})")
    checked = {}
    for key, (what, types, default) in keys.items():
        if key not in entry:
            if default is ...:
                raise ValueError(f"{where} needs a {key!r}")
            value = default(checked) if callable(default) else default
        elif type(value := entry[key]) not in types:
            raise ValueError(f"{where}: {key} must be {what}, got {value!r}")
        checked[key] = tuple(value) if type(value) is list else value
    return checked


def _load_experiment_config(path) -> dict:
    """The benchmark config at ``path`` and each of its entries, ``_checked``
    and filled in; two entries of a section may not share a name."""
    config = _checked(f"{path}: config", json.loads(Path(path).read_text(encoding="utf-8")), CONFIG_KEYS["config"])
    for section in ("datasets", "classifiers"):
        if not config[section]:
            raise ValueError(f"{path}: config: {section} must be a non-empty list, got []")
        config[section] = [_checked(f"{path}: {section}[{k}]", entry, CONFIG_KEYS[section])
                           for k, entry in enumerate(config[section])]
        names = [entry["name"] for entry in config[section]]
        for k, name in enumerate(names):
            if names.index(name) != k:
                raise ValueError(f"{path}: {section}[{names.index(name)}] and {section}[{k}] are both named {name!r}")
    return config


def _trainer(settings: dict) -> LmkadConfig:
    """``ClassifierConfig``'s default trainer with the ``_TRAINER_KEYS`` of ``settings``."""
    return replace(ClassifierConfig.trainer, **{
        "gating_kind" if key == "gating" else key: settings[key] for key in _TRAINER_KEYS if key in settings
    })


def _classifier_from_dict(spec: dict) -> tuple[ClassifierConfig, list[float]]:
    """The column and nu grid of a classifier entry that ``_checked`` filled in."""
    grid = [float(v) for v in evaluation.check_nu_grid(spec["nu_grid"])]
    return ClassifierConfig(spec["name"], spec["family"], spec["kernels"], _trainer(spec)), grid


def _shares(cells: list, n: int) -> list[list]:
    """``cells`` in order, cut into ``n`` contiguous shares whose sizes differ by at most one."""
    bounds = [len(cells) * k // n for k in range(n + 1)]
    return [cells[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def cmd_benchmark(args) -> int:
    config = _load_experiment_config(args.config)
    classifiers = []
    for k, spec in enumerate(config["classifiers"]):
        try:
            classifiers.append(_classifier_from_dict(spec))
        except ValueError as exc:
            raise ValueError(f"{args.config}: classifiers[{k}]: {exc}") from None
    datasets = []
    for spec in config["datasets"]:
        data = load_csv(spec["path"], label_column=_parse_label_column(spec["label_column"]),
                        target_label=spec["target_label"], has_header=spec["header"], name=spec["name"])
        _check_normalizer(spec["path"], data)  # every fold's training targets are a share of these
        datasets.append(data)
    out_dir = Path(args.output_dir or config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    cells = []
    for data in datasets:
        plan = plan_folds(data, n_folds=config["n_folds"], n_runs=config["n_runs"], seed=config["seed"])
        for clf, grid in classifiers:
            cells.append(CvCell(data, clf, grid, plan, config["seed"]))

    # a failing share raises fit_many's error over its jobs; of several, the first share's
    shares = _shares(cells, min(args.jobs or usable_cpus(), len(cells)))
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
    if not failed:
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
    fit.add_argument("--seed", type=int, default=LmkadConfig.seed)
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
                            "shares, each trained as one program (default: the CPUs this "
                            "process may use)")
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
