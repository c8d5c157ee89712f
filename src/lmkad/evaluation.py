"""Benchmark protocol: Gmean, repeated CV with grid search, rank statistics.

The experiment loop is: for every (run, fold) pair, train one model per
grid candidate on the target-class training rows, score each candidate by
Gmean on the validation rows (training-fold rows of both classes), keep
the best, and evaluate it once on the held-out test fold.  Aggregates
(MGmean, PMG) and the Friedman / Iman-Davenport test compare classifiers
across datasets.

``cross_validate_many`` runs the protocol for many (dataset, classifier)
cells at once: it plans every cell's candidates, trains them all in one
``models.fit_many`` call, then selects per cell, with every result equal
to the cell's own.  ``cross_validate`` is its one-cell case.
"""
from __future__ import annotations

import csv
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, FoldPlan, _data_rows, _open, _parse_rows, check_seed, split_for_occ
from .models import (
    FitJob,
    LmkadConfig,
    Model,
    check_family,
    fit_many,
    predict_batch,
    resolve_kernels,
    sv_count,
)
from .solver import infeasible_nu, nu_out_of_range

DEFAULT_NU_GRID = (0.02, 0.05, 0.1, 0.2, 0.3)


@dataclass(frozen=True)
class ConfusionCounts:
    """Confusion counts with the target class (+1) as positive."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("counts must be nonnegative")
        if self.tp + self.fp + self.tn + self.fn == 0:
            raise ValueError("all counts are zero")

    @classmethod
    def from_predictions(cls, y_true, y_pred) -> "ConfusionCounts":
        y_true = np.asarray(y_true).ravel()
        y_pred = np.asarray(y_pred).ravel()
        if y_true.shape != y_pred.shape:
            raise ValueError("label/prediction length mismatch")
        return cls(
            tp=int(np.count_nonzero((y_true == 1) & (y_pred == 1))),
            fp=int(np.count_nonzero((y_true == -1) & (y_pred == 1))),
            tn=int(np.count_nonzero((y_true == -1) & (y_pred == -1))),
            fn=int(np.count_nonzero((y_true == 1) & (y_pred == -1))),
        )


def gmean(counts: ConfusionCounts) -> float:
    """sqrt(precision * recall); zero-division cases score 0, never NaN."""
    if counts.tp == 0:
        return 0.0
    precision = counts.tp / (counts.tp + counts.fp)
    recall = counts.tp / (counts.tp + counts.fn)
    return math.sqrt(precision * recall)


@dataclass(frozen=True)
class ClassifierConfig:
    """One benchmark column: a model family, its kernels and its trainer settings.

    ``kernels`` is a preset name ("gpl"/"gpp"), a comma-joined token
    string, or an explicit sequence of kernel tokens.  ``trainer``'s nu
    and seed are set per candidate.  The family rule
    (``models.check_family``) is checked here, before any fold runs.
    """

    name: str
    family: str  # ocsvm | mkad | lmkad
    kernels: str | tuple = "gauss:auto"
    trainer: LmkadConfig = LmkadConfig(nu=1.0)

    def __post_init__(self):
        check_family(self.family, resolve_kernels(self.kernels))


def _fit_job(config: ClassifierConfig, train_targets, nu: float, seed: int) -> FitJob:
    """The training job of one model of the configured family at a given nu."""
    return FitJob(config.family, train_targets, resolve_kernels(config.kernels),
                  replace(config.trainer, nu=nu, seed=seed))


def train_for_config(config: ClassifierConfig, train_targets, nu: float, seed: int) -> Model:
    """Train one model of the configured family at a given nu (``lmkad fit`` uses it)."""
    return fit_many([_fit_job(config, train_targets, nu, seed)])[0]


def check_nu_grid(nu_grid) -> list:
    """``nu_grid`` as a list, if it holds at least one rate and every rate is a
    real number (not a bool) that passes ``solver.nu_out_of_range``; else
    raise, naming the first bad entry.  Whether nu*N >= 1 depends on the
    fold, so that is left to ``_plan_cell``."""
    grid = list(nu_grid)
    if not grid:
        raise ValueError("nu_grid is empty")
    for i, nu in enumerate(grid):
        real = isinstance(nu, numbers.Real) and not isinstance(nu, bool)
        reason = nu_out_of_range(nu) if real else f"must be a real number, got {nu!r}"
        if reason is not None:
            raise ValueError(f"nu_grid[{i}]: {reason}")
    return grid


def _derived_seed(base_seed: int, run: int, fold: int, grid_index: int) -> int:
    ss = np.random.SeedSequence([int(base_seed), run, fold, grid_index])
    return int(ss.generate_state(1)[0])


@dataclass
class FoldOutcome:
    run: int
    fold: int
    chosen_nu: float | None
    validation_gmean: float | None
    test_gmean: float | None
    sv_pct: float | None
    error: str | None = None


@dataclass
class CvResult:
    """Aggregate of one (dataset, classifier) benchmark cell."""

    dataset: str
    classifier: str
    mean_gmean: float
    std_gmean: float
    mean_sv_pct: float
    folds: list[FoldOutcome] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def sv_fraction(model) -> float:
    """Support vectors as a percentage of the training size."""
    return 100.0 * sv_count(model) / model.n_train


def _score(model, data: Dataset) -> float:
    return gmean(ConfusionCounts.from_predictions(data.labels, predict_batch(model, data.features)))


class CvCell(NamedTuple):
    """One (dataset, classifier) benchmark cell: its protocol inputs."""

    dataset: Dataset
    config: ClassifierConfig
    nu_grid: Sequence[float]
    plan: FoldPlan
    base_seed: int = 0


def cross_validate(
    dataset: Dataset,
    config: ClassifierConfig,
    nu_grid,
    plan: FoldPlan,
    base_seed: int = 0,
) -> CvResult:
    """Run the full repeated-CV grid-search protocol for one classifier.

    A grid that fails ``check_nu_grid`` is refused before any fold is
    split.  Grid candidates with an infeasible nu on a fold (nu*N < 1)
    are skipped for that fold; any other training error propagates.
    Ties on validation Gmean keep the first grid point.  Folds where every
    candidate is skipped are flagged and excluded from the aggregate.
    This is the one-cell case of ``cross_validate_many``.
    """
    return cross_validate_many([CvCell(dataset, config, nu_grid, plan, base_seed)])[0]


def cross_validate_many(cells) -> list[CvResult]:
    """``cross_validate`` of every ``CvCell``, with all their fits trained together.

    Every cell's folds are split and its feasible candidates planned
    first; one ``fit_many`` call then trains the candidates of all cells
    (so fits of equal size share their SMO lockstep across cells), and
    each cell selects per fold from its own models.  Every result equals
    the cell's own ``cross_validate``.  A training error propagates by
    ``fit_many``'s rule over all the cells' jobs.
    """
    jobs: list[FitJob] = []
    planned = [_plan_cell(cell, jobs) for cell in cells]
    models = fit_many(jobs)
    return [_select(cell, folds, models) for cell, folds in zip(cells, planned)]


def _plan_cell(cell: CvCell, jobs: list[FitJob]) -> list[tuple]:
    """Split a cell's folds and append its feasible candidates' jobs to ``jobs``.

    Returns one ``(run, fold, validation, test, candidates, fold_errors)``
    per fold, where a candidate is ``(nu, job index)``.
    """
    dataset, config, nu_grid, plan, base_seed = cell
    nu_grid = check_nu_grid(nu_grid)
    check_seed(base_seed)
    folds = []
    for run in range(plan.n_runs):
        for fold in range(plan.n_folds):
            train_targets, validation, test = split_for_occ(dataset, plan, run, fold)
            candidates, fold_errors = [], []
            for gi, nu in enumerate(nu_grid):
                reason = infeasible_nu(nu, train_targets.shape[0])
                if reason is not None:
                    fold_errors.append((nu, f"nu={nu}: {reason}"))
                    continue
                candidates.append((nu, len(jobs)))
                jobs.append(_fit_job(config, train_targets, nu, _derived_seed(base_seed, run, fold, gi)))
            folds.append((run, fold, validation, test, candidates, fold_errors))
    return folds


def _select(cell: CvCell, folds: list[tuple], models: list[Model]) -> CvResult:
    """Pick each fold's best candidate on validation Gmean and aggregate the cell."""
    dataset, config, _, plan, _ = cell
    outcomes: list[FoldOutcome] = []
    warnings: list[str] = []
    warned_single_class = False
    skipped_candidates: dict[float, int] = {}
    for run, fold, validation, test, candidates, fold_errors in folds:
        if not warned_single_class and np.all(validation.labels == 1):
            warnings.append(
                f"validation folds contain no outlier rows; "
                f"candidate scoring degrades to recall only ({dataset.name})"
            )
            warned_single_class = True

        for nu, _ in fold_errors:
            skipped_candidates[nu] = skipped_candidates.get(nu, 0) + 1
        best = None
        for nu, k in candidates:
            score = _score(models[k], validation)
            if best is None or score > best[0]:
                best = (score, nu, models[k])

        if best is None:
            msg = "; ".join(error for _, error in fold_errors) or "no candidate trained"
            outcomes.append(FoldOutcome(run, fold, None, None, None, None, error=msg))
            warnings.append(f"run {run} fold {fold} skipped: {msg}")
            continue
        val_score, chosen_nu, model = best
        outcomes.append(
            FoldOutcome(
                run=run,
                fold=fold,
                chosen_nu=chosen_nu,
                validation_gmean=val_score,
                test_gmean=_score(model, test),
                sv_pct=sv_fraction(model),
            )
        )

    n_cells = plan.n_runs * plan.n_folds
    for nu, count in sorted(skipped_candidates.items()):
        warnings.append(f"grid point nu={nu} skipped on {count}/{n_cells} folds")

    ok = [o for o in outcomes if o.error is None]
    if ok:
        gs = np.array([o.test_gmean for o in ok])
        svs = np.array([o.sv_pct for o in ok])
        mean_g = float(gs.mean())
        std_g = float(gs.std(ddof=1)) if gs.size > 1 else 0.0
        mean_sv = float(svs.mean())
    else:
        mean_g = std_g = mean_sv = float("nan")
    return CvResult(
        dataset=dataset.name,
        classifier=config.name,
        mean_gmean=mean_g,
        std_gmean=std_g,
        mean_sv_pct=mean_sv,
        folds=outcomes,
        warnings=warnings,
    )


# --- aggregate statistics --------------------------------------------------


def _check_matrix(matrix) -> np.ndarray:
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a 2-D datasets x classifiers matrix")
    if not np.isfinite(M).all():
        raise ValueError("score matrix has missing or non-finite cells")
    return M


def mgmean(matrix) -> np.ndarray:
    """Per-classifier mean score over all datasets (column means)."""
    return _check_matrix(matrix).mean(axis=0)


def pmg(matrix) -> np.ndarray:
    """Mean percentage of the per-dataset maximum score, per classifier."""
    M = _check_matrix(matrix)
    row_max = M.max(axis=1, keepdims=True)
    if np.any(row_max <= 0):
        raise ValueError("every dataset row needs a positive maximum")
    return (100.0 * M / row_max).mean(axis=0)


@dataclass
class FriedmanReport:
    avg_ranks: np.ndarray
    chi_sq: float
    f_stat: float
    p_value: float
    n_datasets: int
    n_classifiers: int
    df1: int
    df2: int
    degenerate: bool = False


def friedman_statistics(avg_ranks, n_datasets: int) -> FriedmanReport:
    """Friedman chi-square and Iman-Davenport F from average ranks.

    When the chi-square reaches its ceiling N*(k-1) the F denominator
    vanishes; the report then carries +inf with the degenerate flag.
    """
    ranks = np.asarray(avg_ranks, dtype=float).ravel()
    k = ranks.shape[0]
    n = int(n_datasets)
    if k < 2:
        raise ValueError("need >= 2 classifiers")
    if n < 2:
        raise ValueError("need >= 2 datasets")
    chi_sq = (12.0 * n / (k * (k + 1))) * (np.sum(ranks**2) - k * (k + 1) ** 2 / 4.0)
    chi_sq = float(chi_sq)
    df1, df2 = k - 1, (k - 1) * (n - 1)
    denom = n * (k - 1) - chi_sq
    if denom <= 1e-12:
        return FriedmanReport(ranks, chi_sq, float("inf"), 0.0, n, k, df1, df2, degenerate=True)
    f_stat = (n - 1) * chi_sq / denom
    from scipy.special import fdtrc  # imported here: only this test needs scipy

    # the F survival function as scipy.stats.f.sf computes it, 1 at and below 0
    p_value = float(fdtrc(df1, df2, f_stat)) if f_stat > 0 else 1.0
    return FriedmanReport(ranks, chi_sq, f_stat, p_value, n, k, df1, df2)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n in ascending order; a tie group at sorted positions a..b-1
    gets (a + b + 1) / 2, as ``scipy.stats.rankdata(method="average")``."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.shape[0]]
    ranks = np.empty(values.shape[0])
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def friedman_test(matrix) -> FriedmanReport:
    """Rank classifiers per dataset (1 = best, ties averaged) and test.

    Input is an N x k score matrix with one row per dataset and one
    column per classifier; higher scores are better.
    """
    M = _check_matrix(matrix)
    n, k = M.shape
    if k < 2:
        raise ValueError("need >= 2 classifiers")
    if n < 2:
        raise ValueError("need >= 2 datasets")
    ranks = np.vstack([_average_ranks(-row) for row in M])
    return friedman_statistics(ranks.mean(axis=0), n)


# --- CSV emission ----------------------------------------------------------


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return f"{x:.12g}"


def _write_csv(path, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_results_csv(results: list[CvResult], path) -> None:
    _write_csv(path, ["dataset", "classifier", "mean_gmean", "std_gmean", "mean_sv_pct"],
               ([r.dataset, r.classifier, _fmt(r.mean_gmean), _fmt(r.std_gmean), _fmt(r.mean_sv_pct)]
                for r in results))


def write_gmean_matrix_csv(dataset_names, classifier_names, matrix, path) -> np.ndarray:
    """Write the wide score matrix; returns its values as written (``read_gmean_matrix_csv`` reads them)."""
    cells = [[_fmt(v) for v in row] for row in np.asarray(matrix, dtype=float)]
    _write_csv(path, ["dataset", *classifier_names], ([name, *row] for name, row in zip(dataset_names, cells)))
    return np.array([[float(v) for v in row] for row in cells])


def write_friedman_csvs(classifier_names, report: FriedmanReport, ranks_path, friedman_path) -> None:
    """The Friedman outputs: each classifier's average rank, and the test's statistics."""
    _write_csv(ranks_path, ["classifier", "avg_rank"],
               ([name, _fmt(rank)] for name, rank in zip(classifier_names, report.avg_ranks)))
    f_stat = "inf" if math.isinf(report.f_stat) else _fmt(report.f_stat)
    _write_csv(friedman_path, ["chi_sq", "f_stat", "p_value", "df1", "df2", "degenerate"],
               [[_fmt(report.chi_sq), f_stat, _fmt(report.p_value), report.df1, report.df2, int(report.degenerate)]])


def _long_cells(path, rows, width: int):
    """``((dataset, classifier), mean_gmean)`` per row of long-format results.

    A ``nan`` score (a cell that failed in ``lmkad benchmark``) is an
    error naming the row and the pair.
    """
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {r} has {len(row)} cells, expected {width}")
        pair = (row[0].strip(), row[1].strip())
        try:
            score = float(row[2])
        except ValueError:
            raise ValueError(f"{path}: non-numeric value {row[2].strip()!r} at row {r}, column 2") from None
        if math.isnan(score):
            raise ValueError(f"{path}: row {r} has no score (mean_gmean is nan) for {pair}")
        yield pair, score


def _check_unique(path, what: str, names: list) -> None:
    repeated = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if repeated is not None:
        raise ValueError(f"{path}: {what} {repeated!r} occurs twice")


def read_gmean_matrix_csv(path):
    """Read a wide score matrix (first column dataset, rest classifiers).

    Long-format benchmark results (dataset, classifier, mean_gmean, ...)
    are pivoted automatically.  Rows are read like data files (blank
    rows skipped, every row as wide as the header; errors name the file,
    the data row from 0 and the column).  A dataset, classifier or
    (dataset, classifier) pair given twice is an error, and so are a
    long-format ``nan`` score (a failed cell) and a missing pair.
    """
    with _open(path) as fh:
        rows = _data_rows(fh)
        header = [c.strip() for c in next(rows, [])]
        long = header[:3] == ["dataset", "classifier", "mean_gmean"]
        if not long and len(header) < 2:
            raise ValueError(f"{path}: no classifier columns")
        parsed = list(_long_cells(path, rows, len(header)) if long else _parse_rows(path, rows, len(header), 0, 0))
    if not parsed:
        raise ValueError(f"{path}: need a header row plus at least one data row")
    names = [name for name, _ in parsed]

    if long:
        _check_unique(path, "(dataset, classifier) pair", names)
        datasets = list(dict.fromkeys(d for d, _ in names))
        classifiers = list(dict.fromkeys(c for _, c in names))
        M = np.full((len(datasets), len(classifiers)), np.nan)
        for (d, c), g in parsed:
            M[datasets.index(d), classifiers.index(c)] = g
        if np.isnan(M).any():
            raise ValueError(f"{path}: incomplete dataset x classifier matrix")
        return datasets, classifiers, M

    classifiers = header[1:]
    _check_unique(path, "classifier", classifiers)
    _check_unique(path, "dataset", names)
    return names, classifiers, np.array([values for _, values in parsed])
