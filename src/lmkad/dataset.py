"""Dataset ingestion, one-class views, z-score normalization, fold planning.

A dataset is a plain feature matrix with +1 (target) / -1 (outlier)
labels.  Cross-validation folds are planned once per experiment, stratified
by class, and reused for every classifier so all models see identical
splits.

Delimited files are read by one row parser (``_read_rows``).  Feature-only
reads (``iter_feature_blocks``, behind ``lmkad predict``) convert whole
blocks with ``np.loadtxt`` wherever that gives the row parser's values.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

#: population stddevs below this are treated as constant columns
DEGENERATE_STD = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus one-class labels (+1 target, -1 outlier)."""

    features: np.ndarray
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        feats = np.atleast_2d(np.asarray(self.features, dtype=float))
        labels = np.asarray(self.labels, dtype=int).ravel()
        if feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("dataset needs at least one row and one column")
        if labels.shape[0] != feats.shape[0]:
            raise ValueError(f"{labels.shape[0]} labels for {feats.shape[0]} rows")
        if not np.all(np.isin(labels, (-1, 1))):
            raise ValueError("labels must be +1 or -1")
        if not np.any(labels == 1):
            raise ValueError("one-class view needs at least one target (+1) row")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class Normalizer:
    """Per-column z-score statistics fitted on training targets.

    Constant columns get stddev 1 (mean kept), so the data they were fit
    on maps to zeros instead of raising.
    """

    means: np.ndarray
    stddevs: np.ndarray


def fit_normalizer(features: np.ndarray) -> Normalizer:
    """Column means and population (1/N) stddevs, degenerate-safe.

    Finite features whose mean or stddev overflows (values near the
    float64 limit) raise a ``ValueError`` that names the feature column.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    if X.size == 0:
        raise ValueError("cannot fit a normalizer on an empty matrix")
    with np.errstate(over="ignore"):
        means = X.mean(axis=0)
        stds = X.std(axis=0)  # population convention
    finite = np.isfinite(means) & np.isfinite(stds)
    if not finite.all():
        # a column that holds a non-finite feature is the caller's to reject
        overflow = np.flatnonzero(~finite & np.isfinite(X).all(axis=0))
        if overflow.size:
            j = int(overflow[0])
            raise ValueError(f"feature column {j} overflows the normalizer (mean {means[j]}, stddev {stds[j]})")
    stds = np.where(stds < DEGENERATE_STD, 1.0, stds)
    return Normalizer(means=means, stddevs=stds)


def apply_normalizer(norm: Normalizer, features: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(features, dtype=float))
    if X.shape[1] != norm.means.shape[0]:
        raise ValueError(f"normalizer fitted on {norm.means.shape[0]} columns, got {X.shape[1]}")
    return (X - norm.means) / norm.stddevs


def _label_index(path, label_column, header, width: int) -> int | None:
    """Resolve ``label_column`` (index, negative index or header name) to 0..width-1."""
    if label_column is None:
        return None
    if isinstance(label_column, str):
        if header is None:
            raise ValueError("label column given by name but the file has no header")
        try:
            idx = [c.strip() for c in header].index(label_column)
        except ValueError:
            raise ValueError(f"{path}: no column named {label_column!r} in header") from None
    else:
        idx = int(label_column)
    if not -width <= idx < width:
        raise ValueError(f"{path}: label column {idx} out of range for {width} columns")
    return idx % width


def _bad_cell(path, r: int, feats: list[str], label_idx: int | None, finite: bool) -> ValueError:
    """The error for the first unparsable (with ``finite``, or NaN or infinite)
    cell of a row whose label cell was removed."""
    for k, cell in enumerate(feats):
        try:
            problem = "non-finite" if not math.isfinite(float(cell)) and finite else None
        except ValueError:
            problem = "non-numeric"
        if problem:
            c = k + (label_idx is not None and k >= label_idx)
            return ValueError(f"{path}: {problem} value {cell.strip()!r} at row {r}, column {c}")
    raise AssertionError("no bad cell")


def _data_rows(lines):
    """``csv.reader`` rows of ``lines``, skipping blank ones (no cells, or only
    whitespace and commas)."""
    return (row for row in csv.reader(lines) if "".join(row).strip())


def _open(path):
    try:
        return open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(f"no such data file: {path}") from None


def _head(path, rows, has_header: bool, label_column, require_rows: bool):
    """``(first data row, width, label index)`` from the head of ``rows``,
    or ``None`` for a file without data rows (an error if ``require_rows``)."""
    header = next(rows, None) if has_header else None
    first = next(rows, None)
    if first is None:
        if require_rows:
            what = "only a header row" if header is not None else "no data rows"
            raise ValueError(f"{path}: file contains {what}")
        return None
    width = len(first)
    return first, width, _label_index(path, label_column, header, width)


def _parse_rows(path, rows, width: int, label_idx: int | None, start: int, finite: bool = False):
    """Yield ``(label, features)`` per row; ``start`` numbers the first row in errors.
    With ``finite``, a NaN or infinite feature is an error too."""
    for r, row in enumerate(rows, start):
        if len(row) != width:
            raise ValueError(f"{path}: row {r} has {len(row)} cells, expected {width}")
        label = None if label_idx is None else row.pop(label_idx).strip()
        try:
            values = list(map(float, row))
        except ValueError:
            raise _bad_cell(path, r, row, label_idx, finite) from None
        if finite and not all(map(math.isfinite, values)):
            raise _bad_cell(path, r, row, label_idx, finite)
        yield label, values


def _read_rows(path, has_header: bool, label_column, require_rows: bool = False, finite: bool = False):
    """Yield ``(label, features)`` for each data row of a delimited numeric file.

    The row parser behind ``load_csv``, whose values and errors
    ``iter_feature_blocks`` reproduces.  Blank rows are skipped; with
    ``has_header`` the first remaining row is the header.  ``label_column``
    is a 0-based index (negative counts from the end), a header name, or ``None``; the
    label cell is yielded stripped (``None`` without a label column) and
    every other cell is converted with ``float``.  Every row must be as
    wide as the first data row.  Errors number data rows from 0.  A file
    without data rows yields nothing, or raises if ``require_rows``.  With
    ``finite``, a NaN or infinite feature cell is an error.
    """
    with _open(path) as fh:
        rows = _data_rows(fh)
        head = _head(path, rows, has_header, label_column, require_rows)
        if head is not None:
            first, width, label_idx = head
            yield from _parse_rows(path, chain((first,), rows), width, label_idx, 0, finite)


#: a quote, and the ASCII separators \x1c-\x1f, which loadtxt strips around a number and float rejects
_DECLINED = '"\x1c\x1d\x1e\x1f'


def _convert_lines(lines: list[str], width: int, cols: list[int]) -> np.ndarray | None:
    """The feature columns ``cols`` of ``lines`` in one ``np.loadtxt`` call, or
    ``None`` where that could differ from ``_parse_rows``.

    Accepted only when the text has no character of ``_DECLINED``, every
    line holds ``width`` cells and none is longer than ``csv``'s field
    limit, loadtxt raises nothing and it returns one row per line (it
    skips empty lines, which would shift the block grid).  Then loadtxt
    accepts a cell only where ``float`` does, with the same value; it also
    rejects ``1_0`` and non-ASCII digits, which then take the row parser.
    With ``usecols`` loadtxt accepts rows wider than the last used column,
    so the comma count must be ``width - 1`` per line: in total when the
    last column is used (no row can have fewer), else line by line.
    """
    text = "".join(lines)
    if any(c in text for c in _DECLINED) or text.isspace():  # all blank: loadtxt would warn
        return None
    if text.count(",") != (width - 1) * len(lines) or max(map(len, lines)) > csv.field_size_limit():
        return None
    if cols[-1] != width - 1 and any(line.count(",") != width - 1 for line in lines):
        return None
    try:
        X = np.loadtxt(lines, delimiter=",", dtype=float, comments=None, quotechar=None,
                       ndmin=2, usecols=cols)
    except ValueError:
        return None
    return X if X.shape[0] == len(lines) else None


def load_csv(
    path,
    label_column,
    target_label,
    has_header: bool = False,
    name: str | None = None,
) -> Dataset:
    """Load a delimited numeric file into a one-class view.

    ``label_column`` is a 0-based column index, or a column name when
    ``has_header`` is set.  Rows whose label cell equals ``target_label``
    (string comparison on the stripped token) become +1, everything else -1.
    A NaN or infinite feature cell is an error naming the file, the data
    row (from 0) and the column.
    """
    target = str(target_label).strip()
    labels = []
    features = []
    for label, values in _read_rows(path, has_header, label_column, require_rows=True, finite=True):
        labels.append(1 if label == target else -1)
        features.append(values)
    labels = np.asarray(labels)
    if not np.any(labels == 1):
        raise ValueError(f"{path}: target label {target!r} never occurs in the label column")
    if name is None:
        name = str(path)
    return Dataset(features=np.asarray(features, dtype=float), labels=labels, name=name)


#: rows per block when ``load_features_csv`` reads a whole file, when ``lmkad
#: predict`` reads its input, and when ``models.decision_values`` scores rows
BLOCK_ROWS = 8192


def load_features_csv(path, has_header: bool = False, label_column=None) -> np.ndarray:
    """Load a feature-only matrix; optionally drop one label column.

    Returns an (N, d) array, the concatenated blocks of ``iter_feature_blocks``;
    N and d are zero for a file without data rows.
    """
    blocks = list(iter_feature_blocks(path, BLOCK_ROWS, has_header, label_column))
    return np.concatenate(blocks) if blocks else np.empty((0, 0))


def iter_feature_blocks(path, block_rows: int, has_header: bool = False, label_column=None):
    """Yield the feature rows of a delimited file as blocks of ``block_rows`` rows.

    Block k holds data rows k * block_rows to (k + 1) * block_rows - 1, with
    the values and error texts of ``_read_rows``.  The header and the first
    data row go through the row parser, which fixes the width and the label
    column; each later block's lines go through ``_convert_lines`` (one
    ``np.loadtxt`` call).  From the first block it declines, the row parser
    reads the rest of the file.  Memory holds one block, and an error in a
    later row is raised only after the earlier blocks.
    """
    with _open(path) as fh:
        rows = _data_rows(fh)
        head = _head(path, rows, has_header, label_column, False)
        if head is None:
            return
        first, width, label_idx = head
        cols = [c for c in range(width) if c != label_idx]
        block = [values for _, values in _parse_rows(path, (first,), width, label_idx, 0)]
        n_read = 1
        if block_rows == 1:
            yield np.asarray(block, dtype=float)
            block = []
        while cols:
            # csv.reader reads no line ahead, so fh is at the row after the last parsed one
            lines = list(islice(fh, block_rows - len(block)))
            if not lines:
                break
            X = _convert_lines(lines, width, cols)
            if X is None:
                rows = _data_rows(chain(lines, fh))
                break
            if block:
                X = np.concatenate((np.asarray(block, dtype=float), X))
                block = []
            n_read += len(lines)
            yield X
        for _, values in _parse_rows(path, rows, width, label_idx, n_read):
            block.append(values)
            if len(block) == block_rows:
                yield np.asarray(block, dtype=float)
                block = []
        if block:
            yield np.asarray(block, dtype=float)


@dataclass(frozen=True)
class FoldPlan:
    """Per-run, per-sample fold indices, stratified by class.

    The plan is a pure function of (seed, n_runs, n_folds, N, labels), so
    every classifier in an experiment trains and tests on identical splits.
    """

    n_runs: int
    n_folds: int
    seed: int
    assignments: np.ndarray = field(repr=False)  # (n_runs, N) ints in [0, n_folds)


def plan_folds(dataset: Dataset, n_folds: int, n_runs: int, seed: int) -> FoldPlan:
    """Stratified repeated fold assignment, deterministic in the seed.

    Each class present in the data must have at least ``n_folds`` members
    so every fold sees every class; a class that is entirely absent (e.g.
    a one-class view with no outliers) is allowed.
    """
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if n_runs < 1:
        raise ValueError("need at least 1 run")
    labels = dataset.labels
    for cls in (1, -1):
        size = int(np.sum(labels == cls))
        if 0 < size < n_folds:
            raise ValueError(
                f"class {cls:+d} has {size} members, fewer than {n_folds} folds"
            )

    assignments = np.empty((n_runs, labels.size), dtype=np.int64)
    for run in range(n_runs):
        rng = np.random.default_rng([int(seed), run])
        for cls in (1, -1):
            idx = np.flatnonzero(labels == cls)
            if idx.size == 0:
                continue
            perm = rng.permutation(idx)
            fold_ids = np.resize(np.arange(n_folds), idx.size)
            rng.shuffle(fold_ids)
            assignments[run, perm] = fold_ids
    return FoldPlan(n_runs=n_runs, n_folds=n_folds, seed=int(seed), assignments=assignments)


def split_for_occ(dataset: Dataset, plan: FoldPlan, run: int, test_fold: int):
    """One-class train/validation/test split for a (run, fold) pair.

    Returns ``(train_targets, validation, test)``: the target-class rows of
    the non-test folds as a bare matrix, the full non-test folds (both
    classes) as the validation set for hyperparameter scoring, and the
    whole test fold.
    """
    if not 0 <= run < plan.n_runs:
        raise IndexError(f"run {run} out of range [0, {plan.n_runs})")
    if not 0 <= test_fold < plan.n_folds:
        raise IndexError(f"fold {test_fold} out of range [0, {plan.n_folds})")
    folds = plan.assignments[run]
    test_mask = folds == test_fold
    train_mask = ~test_mask
    target_mask = dataset.labels == 1

    train_targets = dataset.features[train_mask & target_mask]
    validation = Dataset(
        features=dataset.features[train_mask],
        labels=dataset.labels[train_mask],
        name=f"{dataset.name}[run{run}/fold{test_fold}/val]",
    )
    test = Dataset(
        features=dataset.features[test_mask],
        labels=dataset.labels[test_mask],
        name=f"{dataset.name}[run{run}/fold{test_fold}/test]",
    )
    return train_targets, validation, test
