import re
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmkad import dataset as dataset_module
from lmkad.dataset import (
    Dataset,
    _read_rows,
    apply_normalizer,
    fit_normalizer,
    iter_feature_blocks,
    load_csv,
    load_features_csv,
    plan_folds,
    split_for_occ,
    Normalizer,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_iris_counts(iris):
    assert iris.features.shape == (150, 4) and np.count_nonzero(iris.labels == 1) == 50
    # row order preserved: the file lists all setosa rows first
    assert np.all(iris.labels[:50] == 1) and np.all(iris.labels[50:] == -1)


def test_load_single_row(tmp_path):
    p = write(tmp_path, "1.5,2.5,yes\n")
    ds = load_csv(p, label_column=2, target_label="yes")
    assert list(ds.labels) == [1]
    assert ds.features.tolist() == [[1.5, 2.5]]


def test_load_target_absent(tmp_path):
    p = write(tmp_path, "1,2,a\n3,4,b\n")
    with pytest.raises(ValueError, match="never occurs"):
        load_csv(p, label_column=2, target_label="c")


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope.csv"):
        load_csv(tmp_path / "nope.csv", label_column=0, target_label="x")


def test_load_non_numeric_cell_reports_position(tmp_path):
    p = write(tmp_path, "1,2,a\n3,oops,a\n")
    with pytest.raises(ValueError, match=r"row 1, column 1"):
        load_csv(p, label_column=2, target_label="a")


@pytest.mark.parametrize("cell", ["nan", " inf", "-Infinity", "1e999"])
def test_load_non_finite_cell_reports_position(tmp_path, cell):
    # one such target row would make the normalizer NaN; predict's reader keeps it
    p = write(tmp_path, f"a,1,2\nb,3,{cell}\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: non-finite value {cell.strip()!r} at row 1, column 2")):
        load_csv(p, label_column=0, target_label="a")
    assert not np.isfinite(load_features_csv(p, label_column=0)).all()


def test_load_ragged_rows(tmp_path):
    p = write(tmp_path, "1,2,a\n3,4\n")
    with pytest.raises(ValueError, match="row 1"):
        load_csv(p, label_column=2, target_label="a")


def test_load_header_by_name(tmp_path):
    p = write(tmp_path, "f1,f2,cls\n1,2,pos\n3,4,neg\n")
    ds = load_csv(p, label_column="cls", target_label="pos", has_header=True)
    assert list(ds.labels) == [1, -1]
    with pytest.raises(ValueError, match="no column named"):
        load_csv(p, label_column="nope", target_label="pos", has_header=True)


def test_load_name_without_header(tmp_path):
    p = write(tmp_path, "1,2,pos\n")
    with pytest.raises(ValueError, match="no header"):
        load_csv(p, label_column="cls", target_label="pos")


def test_load_non_numeric_column_counts_label(tmp_path):
    # the reported column is the file's, not the index among feature cells
    p = write(tmp_path, "a,1,2\nb,3,oops\n")
    with pytest.raises(ValueError, match=r"'oops' at row 1, column 2"):
        load_csv(p, label_column=0, target_label="a")


def test_load_header_only(tmp_path):
    p = write(tmp_path, "f1,cls\n\n")
    with pytest.raises(ValueError, match="only a header row"):
        load_csv(p, label_column="cls", target_label="pos", has_header=True)
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(write(tmp_path, " , \n", "blank.csv"), label_column=0, target_label="x")


def test_load_features_drops_label_column(tmp_path):
    p = write(tmp_path, "0,1,2,3,4\n\n 5 ,6,7,8,9\n")
    assert load_features_csv(p).tolist() == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    assert load_features_csv(p, label_column=4).tolist() == [[0, 1, 2, 3], [5, 6, 7, 8]]
    assert load_features_csv(p, label_column=-5).tolist() == [[1, 2, 3, 4], [6, 7, 8, 9]]
    assert load_features_csv(write(tmp_path, "\n", "empty.csv")).shape == (0, 0)


def test_load_features_label_column_out_of_range(tmp_path):
    p = write(tmp_path, "0,1,2,3,4\n5,6,7,8,9\n")
    for column in (5, 7, -6, -7):
        with pytest.raises(ValueError, match=f"label column {column} out of range for 5 columns"):
            load_features_csv(p, label_column=column)


def test_load_features_missing_header_name(tmp_path):
    p = write(tmp_path, "f1,f2,cls\n1,2,pos\n")
    assert load_features_csv(p, has_header=True, label_column="cls").tolist() == [[1, 2]]
    with pytest.raises(ValueError, match=r"no column named 'nope' in header"):
        load_features_csv(p, has_header=True, label_column="nope")
    with pytest.raises(ValueError, match="no header"):
        load_features_csv(p, label_column="cls")


def test_iter_feature_blocks_matches_load(tmp_path):
    rows = np.arange(21.0).reshape(7, 3)
    p = tmp_path / "rows.csv"
    np.savetxt(p, rows, fmt="%g", delimiter=",", header="a,b,c", comments="")
    blocks = list(iter_feature_blocks(p, 3, has_header=True, label_column="b"))
    assert [b.shape for b in blocks] == [(3, 2), (3, 2), (1, 2)]
    assert np.array_equal(np.concatenate(blocks), load_features_csv(p, True, "b"))
    assert np.array_equal(np.concatenate(blocks), rows[:, [0, 2]])
    assert list(iter_feature_blocks(write(tmp_path, "", "empty.csv"), 3)) == []


def test_iter_feature_blocks_raises_at_the_bad_block(tmp_path):
    p = write(tmp_path, "1,2\n3,4\n5,6\n7\n")
    blocks = iter_feature_blocks(p, 2)
    assert next(blocks).tolist() == [[1, 2], [3, 4]]
    with pytest.raises(ValueError, match="row 3 has 1 cells, expected 2"):
        next(blocks)


def _blocks_then_error(blocks):
    """The blocks an iterator yields, then the type and text of the error it ends with."""
    out = []
    try:
        for block in blocks:
            out.append(block)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return out, (type(exc), str(exc))
    return out, None


def _reference_blocks(path, block_rows, has_header, label_column):
    """Consecutive ``block_rows``-row blocks of the plain row parser."""
    rows = (values for _, values in _read_rows(path, has_header, label_column))
    while block := list(islice(rows, block_rows)):
        yield np.asarray(block, dtype=float)


def assert_same_blocks(path, block_rows, has_header=False, label_column=None):
    """``iter_feature_blocks`` gives the row parser's blocks byte for byte, or its error."""
    expected, error = _blocks_then_error(
        _reference_blocks(path, block_rows, has_header, label_column))
    got, got_error = _blocks_then_error(
        iter_feature_blocks(path, block_rows, has_header, label_column))
    assert got_error == error
    assert [b.shape for b in got] == [b.shape for b in expected]
    assert all(g.dtype == e.dtype and g.tobytes() == e.tobytes() for g, e in zip(got, expected))
    if error is None:
        whole = load_features_csv(path, has_header, label_column)
        joined = np.concatenate(expected) if expected else np.empty((0, 0))
        assert whole.shape == joined.shape and whole.tobytes() == joined.tobytes()
    return error


READER_CASES = {
    "header, label by name": ("a,b,species\n1,2,setosa\n3,4,virginica\n5,6,setosa\n7,8,x\n",
                              True, "species"),
    "label by index": ("1,a,2\n3,b,4\n5,c,6\n7,d,8\n9,e,10\n", False, 1),
    "label by negative index": ("1,2,a\n3,4,b\n5,6,c\n7,8,d\n9,10,e\n", False, -1),
    "blank rows": ("1,2\n3,4\n\n   \n5,6\n,\n 7 , 8 \n9,10\n", False, None),
    "comma-only rows": ("1,2,3\n4,5,6\n,,\n7,8,9\n , ,\n", False, None),
    "quoted cells": ('1,2\n3,"4"\n"5",6\n7,8\n', False, None),
    "quoted newline across a block": ('1,2\n3,4\n5,"6\n"\n7,"8\n\n"\n9,10\n', False, None),
    "quoted label": ('1,2,a\n3,4,"b,c"\n5,6,"d\ne"\n7,8,f\n', False, 2),
    "underscore digits": ("1,2\n3,4\n1_0,6\n7,8\n", False, None),
    "non-ASCII digits": ("1,2\n3,4\n١٢,6\n7,২\n", False, None),
    "non-finite": ("nan,1\n-Infinity,+inf\n1e500,-1e-400\n-0,NaN\n", False, None),
    "ASCII separators": ("1,2\n3,4\n\x1c5,6\n7,8\x1f\n", False, None),
    "CRLF, no final newline": ("1,2\r\n3,4\r\n5,6\r\n7,8", False, None),
    "CR only": ("1,2\r3,4\r5,6\r7,8\r", False, None),
    "row one cell wider": ("1,2\n3,4\n5,6,7\n8,9\n", False, None),
    "row one cell wider, label last": ("1,2,a\n3,4,b\n5,6,c,d\n7,8,e\n", False, -1),
    "wider and narrower rows, label last": ("1,2,a\n3,4,b\n5,6,c,d\n7,8\n9,1,e\n", False, 2),
    "narrow row": ("1,2,3\n4,5,6\n7,8\n", False, None),
    "bad cell in a later block": ("1,2\n3,4\n5,6\n7,8\n9,10\n11,12\n13,14\n15,x\n17,18\n",
                                  False, None),
    "one column": ("1\n2\n\n3\n4\n5\n", False, None),
    "one column, blank rows only after the first": ("1\n\n\n \n", False, None),
    "one column that is the label": ("a\nb\nc\n", False, 0),
    "header only": ("a,b\n\n", True, None),
    "empty": ("", False, None),
}


@pytest.mark.filterwarnings("error")  # loadtxt warns on an all-blank block
@pytest.mark.parametrize("block_rows", [1, 2, 3, 4])
@pytest.mark.parametrize("case", READER_CASES)
def test_iter_feature_blocks_matches_row_parser(tmp_path, case, block_rows):
    text, has_header, label_column = READER_CASES[case]
    p = tmp_path / "data.csv"
    p.write_bytes(text.encode())
    assert_same_blocks(p, block_rows, has_header, label_column)


def test_iter_feature_blocks_numbers_rows_from_the_start_of_the_file(tmp_path):
    p = write(tmp_path, "a,b\n" + "1,2\n" * 9 + "3,?\n" + "5,6\n" * 3)
    error = assert_same_blocks(p, 4, has_header=True)
    assert error == (ValueError, f"{p}: non-numeric value '?' at row 9, column 1")


def test_iter_feature_blocks_converts_clean_blocks_in_one_call(tmp_path, monkeypatch):
    converted = []
    convert = dataset_module._convert_lines

    def spy(lines, width, cols):
        X = convert(lines, width, cols)
        converted.append(None if X is None else X.shape)
        return X

    monkeypatch.setattr(dataset_module, "_convert_lines", spy)
    p = write(tmp_path, "f,species,g\n" + "1.5,setosa,2\n" * 10)
    assert [b.shape for b in iter_feature_blocks(p, 4, True, "species")] == [(4, 2), (4, 2), (2, 2)]
    assert converted == [(3, 2), (4, 2), (2, 2)]  # the first row goes through the row parser
    converted.clear()
    p = write(tmp_path, "1,2\n3,4\n5,6\n7,8\n\n9,10\n11,12\n")
    assert len(list(iter_feature_blocks(p, 2))) == 3
    assert converted == [(1, 2), (2, 2), None]  # the row parser reads on from the declined block


NUMBERS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.9g}"),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["nan", "-Infinity", "+inf", "1e500", "-1e-400", " 7 ", "\t8", ".5", "5."]),
)
ODD_CELLS = st.sampled_from(["1_0", "١٢", "x", "", " ", '"3"', '"5,6"', "\x1c1", "1\x1f", "\x1e2"])
ODD_ROWS = ("blank", "spaces", "commas", "wider", "narrower", "shifted", "odd cell",
            "quoted newline")


@st.composite
def csv_files(draw):
    """(text, has_header, label_column): numeric rows with up to two odd ones among them."""
    width = draw(st.integers(1, 4))
    rows = [[draw(NUMBERS) for _ in range(width)] for _ in range(draw(st.integers(1, 12)))]
    how = draw(st.sampled_from(["none", "index", "negative", "name"]))
    has_header = how == "name" or draw(st.booleans())
    label_column = idx = None
    if how != "none":
        # loadtxt with usecols cannot see a missing last cell, so the last column comes up most
        idx = draw(st.sampled_from([width - 1, 0, width // 2]))
        label_column = {"index": idx, "negative": idx - width, "name": "label"}[how]
        for row in rows:
            row[idx] = draw(st.sampled_from(["setosa", " b ", "1", ""]))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(ODD_ROWS))
        # mostly after the first data row: that one always goes through the row parser
        at = draw(st.integers(0, len(rows) - 1) | st.integers(1, len(rows) - 1)) if len(rows) > 1 else 0
        row = rows[at]
        if kind in ("blank", "spaces", "commas"):
            rows.insert(at, {"blank": [], "spaces": ["  "], "commas": [""] * max(width, 2)}[kind])
        elif kind == "wider":
            row.append(draw(NUMBERS))
        elif kind == "narrower" and row:
            row.pop()
        elif kind == "shifted" and at + 1 < len(rows) and rows[at + 1]:
            row.append(rows[at + 1].pop())  # the same number of commas in all
        elif kind in ("odd cell", "quoted newline") and row:
            k = draw(st.sampled_from([c for c in range(len(row)) if c != idx] or [0]))
            row[k] = draw(ODD_CELLS) if kind == "odd cell" else f'"{row[k]}\n"'
    header = [f"c{k}" for k in range(width)]
    if how == "name":
        header[idx] = "label"
    lines = [",".join(row) for row in ([header] if has_header else []) + rows]
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    return text, has_header, label_column


@pytest.mark.filterwarnings("error")  # loadtxt warns on an all-blank block
@settings(max_examples=500, deadline=None)
@given(file=csv_files(), block_rows=st.integers(1, 4))
def test_iter_feature_blocks_matches_row_parser_property(tmp_path_factory, file, block_rows):
    text, has_header, label_column = file
    p = tmp_path_factory.mktemp("reader") / "data.csv"
    p.write_bytes(text.encode())
    assert_same_blocks(p, block_rows, has_header, label_column)


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(features=np.ones((2, 2)), labels=[1, 0])
    with pytest.raises(ValueError):
        Dataset(features=np.ones((2, 2)), labels=[-1, -1])
    with pytest.raises(ValueError):
        Dataset(features=np.ones((2, 2)), labels=[1])


def test_normalizer_two_point_symmetry():
    norm = fit_normalizer(np.array([[0.0], [2.0]]))
    assert norm.means[0] == 1.0 and norm.stddevs[0] == 1.0
    out = apply_normalizer(norm, np.array([[0.0], [2.0]]))
    assert out.ravel().tolist() == [-1.0, 1.0]


def test_normalizer_degenerate_column():
    norm = fit_normalizer(np.array([[5.0], [5.0], [5.0]]))
    out = apply_normalizer(norm, np.array([[5.0], [5.0], [5.0]]))
    assert np.array_equal(out, np.zeros((3, 1)))


def test_normalizer_matches_high_precision_oracle():
    # oracle: recompute mean/std with 50-digit arithmetic
    import mpmath

    mpmath.mp.dps = 50
    col = [1.0, 2.0, 3.0, 4.0]
    mean = sum(mpmath.mpf(v) for v in col) / 4
    var = sum((mpmath.mpf(v) - mean) ** 2 for v in col) / 4
    std = mpmath.sqrt(var)
    expected = [float((mpmath.mpf(v) - mean) / std) for v in col]

    norm = fit_normalizer(np.array(col)[:, None])
    got = apply_normalizer(norm, np.array(col)[:, None]).ravel()
    assert np.allclose(got, expected, atol=1e-12, rtol=0)


def test_normalizer_overflow_names_the_column():
    X = np.random.default_rng(5).normal(size=(6, 3))
    huge = X.copy()
    huge[:, 1] = 1e308  # the column sum overflows: an infinite mean
    spread = X.copy()
    spread[:, 2] = [1e200, -1e200] * 3  # finite mean, squared deviations overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^feature column 1 overflows the normalizer \(mean inf, "):
            fit_normalizer(huge)
        with pytest.raises(ValueError, match=r"^feature column 2 overflows the normalizer \(mean 0.0, stddev inf\)$"):
            fit_normalizer(spread)
        norm = fit_normalizer(X)
    assert norm.means.tobytes() == X.mean(axis=0).tobytes()
    assert norm.stddevs.tobytes() == X.std(axis=0).tobytes()


def test_normalizer_empty_matrix():
    with pytest.raises(ValueError):
        fit_normalizer(np.empty((0, 3)))


def test_apply_self_zscore():
    rng = np.random.default_rng(0)
    X = rng.normal(3.0, 2.5, size=(40, 3))
    out = apply_normalizer(fit_normalizer(X), X)
    assert np.abs(out.mean(axis=0)).max() < 1e-9
    assert np.abs(out.std(axis=0) - 1.0).max() < 1e-9


def test_apply_identity():
    norm = Normalizer(means=np.zeros(2), stddevs=np.ones(2))
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(apply_normalizer(norm, X), X)


def test_apply_heldout_manual():
    train = np.array([[0.0, 10.0], [2.0, 14.0], [4.0, 18.0]])
    norm = fit_normalizer(train)
    held = np.array([[1.0, 12.0]])
    mu, sd = train.mean(axis=0), train.std(axis=0)
    assert np.allclose(apply_normalizer(norm, held), (held - mu) / sd, atol=0, rtol=0)


def test_apply_dimension_mismatch():
    norm = fit_normalizer(np.ones((2, 2)) + np.arange(2))
    with pytest.raises(ValueError):
        apply_normalizer(norm, np.ones((2, 3)))


def test_plan_perfect_stratification():
    ds = Dataset(features=np.arange(10)[:, None] * 1.0,
                 labels=[1] * 5 + [-1] * 5)
    plan = plan_folds(ds, n_folds=5, n_runs=2, seed=0)
    for run in range(2):
        for fold in range(5):
            mask = plan.assignments[run] == fold
            assert np.sum(mask & (ds.labels == 1)) == 1
            assert np.sum(mask & (ds.labels == -1)) == 1


def test_plan_deterministic():
    ds = Dataset(features=np.arange(20)[:, None] * 1.0, labels=[1] * 12 + [-1] * 8)
    a = plan_folds(ds, 4, 3, seed=99)
    b = plan_folds(ds, 4, 3, seed=99)
    assert np.array_equal(a.assignments, b.assignments)
    c = plan_folds(ds, 4, 3, seed=100)
    assert not np.array_equal(a.assignments, c.assignments)


def test_plan_iris_fold_counts(iris, iris_plan):
    for run in range(iris_plan.n_runs):
        for fold in range(5):
            mask = iris_plan.assignments[run] == fold
            assert np.sum(mask & (iris.labels == 1)) == 10
            assert np.sum(mask & (iris.labels == -1)) == 20


def test_plan_small_class_errors():
    ds = Dataset(features=np.arange(6)[:, None] * 1.0, labels=[1, 1, 1, 1, -1, -1])
    with pytest.raises(ValueError, match="fewer than"):
        plan_folds(ds, n_folds=3, n_runs=1, seed=0)


def test_plan_zero_outliers_allowed():
    ds = Dataset(features=np.arange(6)[:, None] * 1.0, labels=[1] * 6)
    plan = plan_folds(ds, n_folds=3, n_runs=1, seed=0)
    assert sorted(np.bincount(plan.assignments[0]).tolist()) == [2, 2, 2]


def test_split_iris_sizes(iris, iris_plan):
    train_targets, validation, test = split_for_occ(iris, iris_plan, 0, 0)
    assert train_targets.shape == (40, 4)
    assert test.features.shape[0] == 30 and np.count_nonzero(test.labels == 1) == 10
    assert validation.features.shape[0] == 120 and np.count_nonzero(validation.labels == 1) == 40


def test_split_disjoint_by_index(iris, iris_plan):
    # iris itself contains duplicate feature rows, so disjointness is an
    # index-level property: the fold masks partition the rows
    for fold in range(5):
        _, validation, test = split_for_occ(iris, iris_plan, 1, fold)
        mask = iris_plan.assignments[1] == fold
        assert test.features.shape[0] == int(mask.sum())
        assert validation.features.shape[0] == int((~mask).sum())
        assert validation.features.shape[0] + test.features.shape[0] == iris.features.shape[0]


def test_split_disjoint_by_value():
    rng = np.random.default_rng(8)
    ds = Dataset(features=rng.normal(size=(24, 3)), labels=[1] * 12 + [-1] * 12)
    plan = plan_folds(ds, n_folds=3, n_runs=1, seed=0)
    for fold in range(3):
        train_targets, validation, test = split_for_occ(ds, plan, 0, fold)
        val_rows = {tuple(r) for r in validation.features}
        test_rows = {tuple(r) for r in test.features}
        train_rows = {tuple(r) for r in train_targets}
        assert not val_rows & test_rows
        assert not train_rows & test_rows
        assert train_rows <= val_rows  # training targets are scored in validation


def test_split_zero_outliers_flaggable():
    ds = Dataset(features=np.arange(8)[:, None] * 1.0, labels=[1] * 8)
    plan = plan_folds(ds, n_folds=2, n_runs=1, seed=1)
    train_targets, validation, test = split_for_occ(ds, plan, 0, 0)
    assert np.all(validation.labels == 1)
    assert train_targets.shape[0] == validation.features.shape[0]


def test_split_out_of_range(iris, iris_plan):
    with pytest.raises(IndexError):
        split_for_occ(iris, iris_plan, 5, 0)
    with pytest.raises(IndexError):
        split_for_occ(iris, iris_plan, 0, 5)


def test_plan_deterministic_across_processes(tmp_path, iris_path):
    # byte-identical fold plans from two fresh interpreter processes
    import subprocess
    import sys

    snippet = (
        "import hashlib; from lmkad import load_csv, plan_folds;"
        f"ds = load_csv(r'{iris_path}', label_column='species', target_label='setosa', has_header=True);"
        "plan = plan_folds(ds, 5, 5, seed=31337);"
        "print(hashlib.sha256(plan.assignments.tobytes()).hexdigest())"
    )
    digests = {
        subprocess.run([sys.executable, "-c", snippet], capture_output=True,
                       text=True, check=True).stdout.strip()
        for _ in range(2)
    }
    assert len(digests) == 1


@settings(max_examples=25, deadline=None)
@given(
    n_targets=st.integers(3, 20),
    n_outliers=st.integers(0, 20),
    n_folds=st.integers(2, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_plan_stratification_property(n_targets, n_outliers, n_folds, seed):
    if 0 < n_outliers < n_folds or n_targets < n_folds:
        return
    labels = [1] * n_targets + [-1] * n_outliers
    ds = Dataset(features=np.arange(len(labels))[:, None] * 1.0, labels=labels)
    plan = plan_folds(ds, n_folds=n_folds, n_runs=2, seed=seed)
    for run in range(2):
        for cls in (1, -1):
            counts = [
                int(np.sum((plan.assignments[run] == f) & (ds.labels == cls)))
                for f in range(n_folds)
            ]
            assert max(counts) - min(counts) <= 1
