import io
import json
import csv
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import IRIS_CSV
from lmkad import cli
from lmkad.cli import main
from lmkad.dataset import load_features_csv
from lmkad.evaluation import ClassifierConfig, CvResult
from lmkad.gating import GATING_KINDS
from lmkad.models import (BLOCK_ROWS, FAMILIES, LmkadConfig, ScoreBuffers, decision_values, load_model,
                          predict_batch)

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def fitted_model(tmp_path, iris_path):
    out = tmp_path / "model.json"
    code = run([
        "fit", "--data", iris_path, "--label-column", "species", "--target-label", "setosa",
        "--header", "--family", "ocsvm", "--kernels", "gauss:auto", "--nu", "0.1",
        "--seed", "7", "--out", out,
    ])
    assert code == 0
    return out


def test_fit_lmkad_end_to_end(tmp_path, iris_path, capsys):
    out = tmp_path / "m.json"
    code = run([
        "fit", "--data", iris_path, "--label-column", "species", "--target-label", "setosa",
        "--header", "--family", "lmkad", "--kernels", "gpl", "--gating", "sigmoid",
        "--nu", "0.1", "--seed", "7", "--out", out,
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "support vectors" in printed and "outer iterations" in printed
    assert re.search(r"^outer iterations: \d+ \(converged=(True|False)\), inner solves not converged: 0$",
                     printed, re.M)
    model = load_model(out)
    assert model.family == "lmkad"
    # iris-sized rounds compose Q whole
    rounds, n = model.report.iterations, model.n_train
    assert re.search(rf"^Q columns composed: {rounds * n} of {rounds * n}$", printed, re.M)


def test_fit_missing_file(tmp_path, capsys):
    code = run(["fit", "--data", tmp_path / "absent.csv", "--target-label", "x",
                "--family", "ocsvm", "--nu", "0.5", "--out", tmp_path / "m.json"])
    assert code == 1
    assert "absent.csv" in capsys.readouterr().err


def test_fit_infeasible_nu(tmp_path, iris_path, capsys):
    code = run(["fit", "--data", iris_path, "--label-column", "species",
                "--target-label", "setosa", "--header", "--family", "ocsvm",
                "--nu", "0", "--out", tmp_path / "m.json"])
    assert code == 1
    assert "infeasible nu" in capsys.readouterr().err


def test_predict_training_set(tmp_path, iris_path, fitted_model):
    preds = tmp_path / "preds.csv"
    code = run(["predict", "--model", fitted_model, "--data", iris_path,
                "--header", "--label-column", "species", "--out", preds])
    assert code == 0
    with open(preds, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 150
    labels = np.array([int(r["label"]) for r in rows])
    values = np.array([float(r["decision_value"]) for r in rows])
    assert set(labels) <= {1, -1}
    assert np.array_equal(labels, np.where(values >= 0, 1, -1))
    # setosa rows (first 50) are the training class: rejection bounded by nu-property
    rejected = np.mean(labels[:50] == -1)
    assert rejected <= 0.1 + 2 / np.sqrt(50)


def test_predict_corrupted_model_is_an_error_line(tmp_path, iris_path, fitted_model, capsys):
    # a kernel token of the wrong type once ended in an AttributeError traceback
    doc = json.loads(fitted_model.read_text())
    doc["kernel"] = None
    fitted_model.write_text(json.dumps(doc))
    code = run(["predict", "--model", fitted_model, "--data", iris_path,
                "--header", "--label-column", "species", "--out", tmp_path / "preds.csv"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {fitted_model}: kernel is not a kernel token\n"
    assert not (tmp_path / "preds.csv").exists()


def test_predict_empty_file(tmp_path, fitted_model):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    out = tmp_path / "preds.csv"
    assert run(["predict", "--model", fitted_model, "--data", empty, "--out", out]) == 0
    assert out.read_text() == "index,decision_value,label\n"


def assert_failed_predict_leaves_out_alone(tmp_path, model, data, capsys, message):
    out = tmp_path / "out" / "p.csv"
    out.parent.mkdir()
    assert run(["predict", "--model", model, "--data", data, "--out", out]) == 1
    assert message in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []  # no output, no leftover temp file

    out.write_bytes(b"earlier predictions\r\n")
    assert run(["predict", "--model", model, "--data", data, "--out", out]) == 1
    assert out.read_bytes() == b"earlier predictions\r\n"
    assert list(out.parent.iterdir()) == [out]


def test_predict_wrong_width(tmp_path, fitted_model, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,4\n")
    assert_failed_predict_leaves_out_alone(tmp_path, fitted_model, bad, capsys, "columns")


def test_predict_bad_row_in_second_block(tmp_path, fitted_model, capsys):
    bad_row = BLOCK_ROWS + 5
    lines = ["5.1,3.5,1.4,0.2"] * (BLOCK_ROWS + 10)
    lines[bad_row] = "5.1,3.5,x,0.2"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    message = f"non-numeric value 'x' at row {bad_row}, column 2"
    assert_failed_predict_leaves_out_alone(tmp_path, fitted_model, bad, capsys, message)


def _huge_cell_file(tmp_path, header=""):
    # a cell longer than csv.field_size_limit() (131,072 characters)
    path = tmp_path / "huge.csv"
    path.write_text(header + "5.1,3.5,1.4,0.2\n" + "5.1," + "1" * 200_000 + ",1.4,0.2\n")
    return path


def test_predict_field_over_csv_limit_fails_loudly(tmp_path, fitted_model, capsys):
    huge = _huge_cell_file(tmp_path)
    message = "error: field larger than field limit (131072)"
    assert_failed_predict_leaves_out_alone(tmp_path, fitted_model, huge, capsys, message)


def test_fit_field_over_csv_limit_fails_loudly(tmp_path, capsys):
    huge = _huge_cell_file(tmp_path, header="a,b,c,species\n")
    out = tmp_path / "out" / "m.json"
    out.parent.mkdir()
    code = run(["fit", "--data", huge, "--label-column", "species", "--target-label", "x",
                "--header", "--family", "ocsvm", "--nu", "0.5", "--out", out])
    assert code == 1
    assert "error: field larger than field limit (131072)" in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []


def test_predict_streams_in_blocks(tmp_path, fitted_model, capsys):
    # ~2.4 blocks with a header and the label in a middle column
    rows = np.random.default_rng(5).normal(loc=4.0, scale=2.0, size=(20_000, 4))
    data = tmp_path / "rows.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "species", "c", "d"])
        writer.writerows([*r[:2], "setosa", *r[2:]] for r in rows.tolist())
    out = tmp_path / "preds.csv"
    assert run(["predict", "--model", fitted_model, "--data", data, "--header",
                "--label-column", "species", "--out", out]) == 0
    assert f"wrote 20000 predictions to {out}" in capsys.readouterr().out
    expected = decision_values(load_model(fitted_model), rows)
    with open(out, newline="") as fh:
        written = list(csv.reader(fh))
    assert written[0] == ["index", "decision_value", "label"]
    assert [r[0] for r in written[1:]] == [str(i) for i in range(20_000)]
    assert [r[1] for r in written[1:]] == [f"{v:.12g}" for v in expected]
    assert [r[2] for r in written[1:]] == ["1" if v >= 0 else "-1" for v in expected]


def csv_writer_predictions(values):
    """The bytes of the ``csv.writer`` formulation of predict's output."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "decision_value", "label"])
    writer.writerows((i, f"{v:.12g}", 1 if v >= 0.0 else -1) for i, v in enumerate(values))
    return buf.getvalue().encode()


SPECIAL_VALUES = [-0.0, 0.0, float("nan"), 1e-300, 1e300, -1e300, float("inf"), float("-inf"),
                  5e-324, -2.5, 0.1 + 0.2, 123456789.123456789]


def test_predict_writes_csv_writer_bytes(tmp_path, fitted_model):
    rows = np.random.default_rng(8).normal(loc=4.0, scale=2.0, size=(BLOCK_ROWS + 40, 4))
    data = tmp_path / "rows.csv"
    np.savetxt(data, rows, fmt="%.9g", delimiter=",")
    out = tmp_path / "preds.csv"
    assert run(["predict", "--model", fitted_model, "--data", data, "--out", out]) == 0
    expected = decision_values(load_model(fitted_model), load_features_csv(data))
    assert out.read_bytes() == csv_writer_predictions(expected.tolist())


def test_block_formatter_writes_csv_writer_bytes():
    values = np.array(SPECIAL_VALUES)
    header = b"index,decision_value,label\n"
    assert header + cli._format_block(0, values).encode() == csv_writer_predictions(SPECIAL_VALUES)
    # a later block carries on the row index
    blocks = cli._format_block(0, values[:5]) + cli._format_block(5, values[5:])
    assert header + blocks.encode() == csv_writer_predictions(SPECIAL_VALUES)


def test_predict_worker_allocates_its_buffers_once(fitted_model, monkeypatch):
    model = load_model(fitted_model)
    allocated, used = [], []

    class CountedBuffers(ScoreBuffers):
        def __init__(self, *args):
            super().__init__(*args)
            allocated.append(self)

    def spy(model, X, buffers):
        used.append(buffers)
        return decision_values(model, X, buffers)

    monkeypatch.setattr(cli, "_scorer", None)
    monkeypatch.setattr(cli, "ScoreBuffers", CountedBuffers)
    monkeypatch.setattr(cli, "decision_values", spy)
    cli._start_scorer(model)
    rng = np.random.default_rng(9)
    for rows in (BLOCK_ROWS, 40):
        X = rng.normal(loc=4.0, scale=2.0, size=(rows, 4))
        assert np.array_equal(cli._score_block(X), decision_values(model, X))
    assert len(allocated) == 1 and used == allocated * 2


@pytest.fixture()
def worker_path(monkeypatch):
    """A multi-block predict scores in its worker, whatever this host's CPUs and start method."""
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: "fork")


def block_rows_csv(path, n_rows, width=4, bad_row=None):
    """``n_rows`` rows of ``width`` seeded features, with a non-numeric cell at ``bad_row``."""
    lines = [",".join(f"{v:.9g}" for v in row)
             for row in np.random.default_rng(n_rows).normal(4.0, 2.0, size=(n_rows, width))]
    if bad_row is not None:
        lines[bad_row] = "x" + lines[bad_row][lines[bad_row].index(","):]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("blocks", [2, 3])
def test_predict_first_scoring_error_beats_a_later_bad_row(tmp_path, fitted_model, capsys, worker_path, blocks):
    # three columns for a four-feature model: block 1 fails to score; the
    # reader fails in the last block, after a worker started for 3 blocks
    bad_row = (blocks - 1) * BLOCK_ROWS + 3
    data = block_rows_csv(tmp_path / "bad.csv", blocks * BLOCK_ROWS, width=3, bad_row=bad_row)
    assert_failed_predict_leaves_out_alone(tmp_path, fitted_model, data, capsys,
                                           "error: normalizer fitted on 4 columns, got 3\n")
    assert multiprocessing.active_children() == []


def test_predict_leaves_no_process_or_temp_file(tmp_path, fitted_model, capsys, worker_path):
    data = block_rows_csv(tmp_path / "rows.csv", 2 * BLOCK_ROWS + 7)
    out = tmp_path / "out" / "p.csv"
    out.parent.mkdir()
    assert run(["predict", "--model", fitted_model, "--data", data, "--out", out]) == 0
    assert list(out.parent.iterdir()) == [out] and multiprocessing.active_children() == []
    values = decision_values(load_model(fitted_model), load_features_csv(data))
    assert out.read_bytes() == csv_writer_predictions(values.tolist())

    bad = block_rows_csv(tmp_path / "bad.csv", 3 * BLOCK_ROWS, bad_row=2 * BLOCK_ROWS + 1)
    (tmp_path / "failed").mkdir()
    assert_failed_predict_leaves_out_alone(tmp_path / "failed", fitted_model, bad, capsys,
                                           f"non-numeric value 'x' at row {2 * BLOCK_ROWS + 1}, column 0")
    assert multiprocessing.active_children() == []


def test_predict_keeps_two_blocks_in_flight_in_one_worker(tmp_path, fitted_model, monkeypatch, worker_path):
    import concurrent.futures

    events, pools = [], []
    real_blocks, real_result = cli.iter_feature_blocks, concurrent.futures.Future.result

    def blocks(*args, **kwargs):
        for k, X in enumerate(real_blocks(*args, **kwargs)):
            events.append(f"read {k}")
            yield X

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            pools.append(kwargs)

        def submit(self, fn, X):
            future = super().submit(fn, X)
            future.block = sum(e.startswith("submit") for e in events)
            events.append(f"submit {future.block}")
            return future

        def shutdown(self, **kwargs):
            events.append(f"shutdown {kwargs}")
            super().shutdown(**kwargs)

    def result(future, timeout=None):
        events.append(f"collect {future.block}")
        return real_result(future, timeout)

    monkeypatch.setattr(cli, "iter_feature_blocks", blocks)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(concurrent.futures.Future, "result", result)
    data = block_rows_csv(tmp_path / "rows.csv", 3 * BLOCK_ROWS + 1)
    assert run(["predict", "--model", fitted_model, "--data", data, "--out", tmp_path / "p.csv"]) == 0
    assert [(kwargs["max_workers"], kwargs["initializer"]) for kwargs in pools] == [(1, cli._start_scorer)]
    # the worker scores block k while block k + 1 is read and block k - 1 written
    assert events == ["read 0", "read 1", "submit 0", "submit 1", "read 2", "collect 0",
                      "submit 2", "read 3", "collect 1", "submit 3", "collect 2", "collect 3",
                      "shutdown {'cancel_futures': True}"]


@pytest.mark.parametrize("rows", [1, BLOCK_ROWS])
def test_predict_of_one_block_starts_no_process(tmp_path, fitted_model, monkeypatch, rows):
    import concurrent.futures

    def no_pool(**kwargs):
        raise AssertionError("a one-block predict started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    data = block_rows_csv(tmp_path / "rows.csv", rows)
    out = tmp_path / "p.csv"
    assert run(["predict", "--model", fitted_model, "--data", data, "--out", out]) == 0
    values = decision_values(load_model(fitted_model), load_features_csv(data))
    assert out.read_bytes() == csv_writer_predictions(values.tolist())


def test_predict_scores_sigmoid_gates_in_the_parent_when_spawned(tmp_path):
    # a spawned worker would start a fresh interpreter per predict, so none is started
    model = Path(__file__).parent / "data" / "v1_lmkad.json"
    data = block_rows_csv(tmp_path / "rows.csv", BLOCK_ROWS + 3, width=3)
    argv = ["predict", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "spawned.csv")]
    code = (f"import multiprocessing, sys\nfrom lmkad import cli\nmultiprocessing.set_start_method('spawn')\n"
            f"assert cli.main({argv!r}) == 0\nassert 'concurrent.futures.process' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120, check=True)
    values = decision_values(load_model(model), load_features_csv(data))
    assert (tmp_path / "spawned.csv").read_bytes() == csv_writer_predictions(values.tolist())


@pytest.mark.parametrize("cpus, method", [(1, "fork"), (2, "spawn"), (2, "forkserver")],
                         ids=["one-cpu", "spawn", "forkserver"])
def test_predict_scores_in_the_parent_where_a_worker_does_not_pay(tmp_path, fitted_model, monkeypatch, capsys,
                                                                 cpus, method):
    import concurrent.futures

    def no_pool(**kwargs):
        raise AssertionError("a predict started a process pool where it does not pay")

    allocated, used = [], []

    class CountedBuffers(ScoreBuffers):
        def __init__(self, *args):
            super().__init__(*args)
            allocated.append(self)

    def spy(model, X, buffers=None):
        used.append(buffers)
        return decision_values(model, X, buffers)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: method)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli, "ScoreBuffers", CountedBuffers)
    monkeypatch.setattr(cli, "decision_values", spy)
    data = block_rows_csv(tmp_path / "rows.csv", 2 * BLOCK_ROWS + 7)
    out = tmp_path / "p.csv"
    assert run(["predict", "--model", fitted_model, "--data", data, "--out", out]) == 0
    values = decision_values(load_model(fitted_model), load_features_csv(data))
    assert out.read_bytes() == csv_writer_predictions(values.tolist())
    assert len(allocated) == 1 and used == allocated * 3  # one ScoreBuffers for every block

    # the same errors as the worker path: the first block's scoring error beats a later bad row
    bad = block_rows_csv(tmp_path / "bad.csv", 3 * BLOCK_ROWS, width=3, bad_row=2 * BLOCK_ROWS + 3)
    (tmp_path / "width").mkdir()
    assert_failed_predict_leaves_out_alone(tmp_path / "width", fitted_model, bad, capsys,
                                           "error: normalizer fitted on 4 columns, got 3\n")
    bad = block_rows_csv(tmp_path / "bad_row.csv", 3 * BLOCK_ROWS, bad_row=2 * BLOCK_ROWS + 1)
    (tmp_path / "row").mkdir()
    assert_failed_predict_leaves_out_alone(tmp_path / "row", fitted_model, bad, capsys,
                                           f"non-numeric value 'x' at row {2 * BLOCK_ROWS + 1}, column 0")


IRIS_SETOSA = {"path": str(IRIS_CSV), "label_column": "species", "target_label": "setosa", "header": True}


def benchmark_config(tmp_path, iris_path, classifiers, n_runs=1, grid=(0.1, 0.3)):
    config = {
        "seed": 11,
        "n_folds": 5,
        "n_runs": n_runs,
        "output_dir": str(tmp_path / "results"),
        "datasets": [{
            "name": "iris-setosa", "path": str(iris_path),
            "label_column": "species", "target_label": "setosa", "header": True,
        }],
        "classifiers": [dict(c, nu_grid=list(grid)) for c in classifiers],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def read_results(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_benchmark_single_cell(tmp_path, iris_path):
    config = benchmark_config(tmp_path, iris_path,
                              [{"name": "OCSVM(g)", "family": "ocsvm", "kernels": "gauss:auto"}],
                              grid=(0.1,))
    assert run(["benchmark", "--config", config, "--jobs", "1"]) == 0
    rows = read_results(tmp_path / "results" / "results.csv")
    assert len(rows) == 1
    assert rows[0]["dataset"] == "iris-setosa" and rows[0]["classifier"] == "OCSVM(g)"
    assert 0.0 <= float(rows[0]["mean_gmean"]) <= 1.0


def test_benchmark_rerun_byte_identical(tmp_path, iris_path):
    clfs = [{"name": "OCSVM(g)", "family": "ocsvm", "kernels": "gauss:auto"}]
    config = benchmark_config(tmp_path, iris_path, clfs)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["benchmark", "--config", config, "--output-dir", out1, "--jobs", "1"]) == 0
    assert run(["benchmark", "--config", config, "--output-dir", out2, "--jobs", "1"]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_benchmark_pool_matches_serial(tmp_path, iris_path):
    # one share (--jobs 1), shares of 2 and 1 cells (--jobs 2) and one cell
    # per share (--jobs 3) write the same bytes
    clfs = [
        {"name": "OCSVM(g)", "family": "ocsvm", "kernels": "gauss:auto"},
        {"name": "MKAD(gpl)", "family": "mkad", "kernels": "gpl"},
        {"name": "LMKAD(S_gpl)", "family": "lmkad", "kernels": "gpl", "gating": "sigmoid"},
    ]
    config = benchmark_config(tmp_path, iris_path, clfs)
    serial = tmp_path / "serial"
    assert run(["benchmark", "--config", config, "--output-dir", serial, "--jobs", "1"]) == 0
    assert len(read_results(serial / "results.csv")) == 3
    for jobs in (2, 3):
        pooled = tmp_path / f"pooled{jobs}"
        assert run(["benchmark", "--config", config, "--output-dir", pooled, "--jobs", jobs]) == 0
        assert (serial / "results.csv").read_bytes() == (pooled / "results.csv").read_bytes()
        assert (serial / "gmean_matrix.csv").read_bytes() == (pooled / "gmean_matrix.csv").read_bytes()


@pytest.mark.parametrize("gating_kind, loaded", [("sigmoid", True), ("softmax", False)])
def test_benchmark_imports_sigmoid_gates_before_the_pool_forks(tmp_path, iris_path, monkeypatch,
                                                                gating_kind, loaded):
    # the forked workers inherit scipy's expit instead of each importing it;
    # MKAD's trainer settings name a sigmoid gating too, but it has no gates
    import concurrent.futures

    from lmkad import gating

    monkeypatch.setattr(gating, "_expit", None)
    at_fork = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            at_fork.append(gating._expit is not None)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    clfs = [{"name": "MKAD(gpl)", "family": "mkad", "kernels": "gpl"},
            {"name": "LMKAD", "family": "lmkad", "kernels": "gpl", "gating": gating_kind, "max_outer": 2}]
    config = benchmark_config(tmp_path, iris_path, clfs, grid=(0.3,))
    assert run(["benchmark", "--config", config, "--jobs", "2"]) == 0
    assert at_fork == [loaded]


#: the normalizer's error for ``huge_setosa_file``'s target rows
HUGE_COLUMN_ERROR = "feature column 0 overflows the normalizer (mean inf, stddev inf)"


def huge_setosa_file(tmp_path, iris_path):
    """iris with a first feature of 1e308 in every setosa row: it loads, but the z-score mean overflows."""
    lines = [f"1e308{line[line.index(','):]}" if line.endswith("setosa") else line
             for line in iris_path.read_text().splitlines()]
    path = tmp_path / "iris_huge.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_benchmark_training_error_aborts(tmp_path, iris_path, capsys, jobs):
    # a copy of iris with two setosa rows loads and normalizes, but at two
    # folds each training share holds one target, too few for the gaussian
    # bandwidth, so the second dataset's cell (the second share at --jobs 2)
    # fails to train: the run stops with one error line and without CSVs
    lines = iris_path.read_text().splitlines()
    setosa = [line for line in lines if line.endswith("setosa")]
    few = tmp_path / "iris_two_setosa.csv"
    few.write_text("\n".join([line for line in lines if line not in setosa[2:]]) + "\n")
    path = benchmark_config(tmp_path, iris_path, [{"name": "OCSVM(g)", "family": "ocsvm", "kernels": "gauss:auto"}],
                            grid=(1.0,))  # nu * N >= 1 for a single training target
    config = json.loads(path.read_text())
    config["n_folds"] = 2
    config["datasets"].append(dict(config["datasets"][0], name="iris-two-setosa", path=str(few)))
    path.write_text(json.dumps(config))
    assert run(["benchmark", "--config", path, "--jobs", jobs]) == 1
    assert capsys.readouterr().err == "error: bandwidth heuristic needs at least 2 points\n"
    assert not list((tmp_path / "results").glob("*.csv"))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_benchmark_normalizer_overflow_names_the_file(tmp_path, iris_path, capsys, jobs):
    # a first feature of 1e308 in every setosa row loads, but its column sum
    # overflows the z-score mean: the run stops before training, naming the
    # file and the column, without CSVs
    broken = huge_setosa_file(tmp_path, iris_path)
    path = benchmark_config(tmp_path, iris_path, [{"name": "OCSVM(l)", "family": "ocsvm", "kernels": "linear"}])
    config = json.loads(path.read_text())
    config["datasets"].append(dict(config["datasets"][0], name="iris-huge", path=str(broken)))
    path.write_text(json.dumps(config))
    assert run(["benchmark", "--config", path, "--jobs", jobs]) == 1
    assert capsys.readouterr().err == f"error: {broken}: {HUGE_COLUMN_ERROR}\n"
    assert not list((tmp_path / "results").glob("*.csv"))


def test_fit_normalizer_overflow_names_the_file(tmp_path, iris_path, capsys):
    broken = huge_setosa_file(tmp_path, iris_path)
    out = tmp_path / "m.json"
    assert run(["fit", "--data", broken, "--label-column", "species", "--target-label", "setosa",
                "--header", "--family", "ocsvm", "--kernels", "linear", "--nu", "0.1", "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {broken}: {HUGE_COLUMN_ERROR}\n"
    assert not out.exists()


def test_benchmark_non_finite_cell_fails_at_load(tmp_path, iris_path, capsys):
    # an infinite feature is rejected when the data file is read, by file, row and column
    lines = iris_path.read_text().splitlines()
    lines[3] = "inf" + lines[3][lines[3].index(","):]
    broken = tmp_path / "iris_inf.csv"
    broken.write_text("\n".join(lines) + "\n")
    path = benchmark_config(tmp_path, broken, [{"name": "OCSVM(l)", "family": "ocsvm", "kernels": "linear"}])
    assert run(["benchmark", "--config", path, "--jobs", "1"]) == 1
    assert capsys.readouterr().err == f"error: {broken}: non-finite value 'inf' at row 2, column 0\n"
    assert not list((tmp_path / "results").glob("*.csv"))


def test_benchmark_shares_are_contiguous_and_even():
    cells = list(range(33))
    assert cli._shares(cells, 1) == [cells]
    halves = cli._shares(cells, 2)
    assert [len(s) for s in halves] == [16, 17] and sum(halves, []) == cells
    assert cli._shares(cells[:3], 3) == [[0], [1], [2]]


@pytest.mark.parametrize("cpus", [1, 2])
def test_benchmark_jobs_default_to_the_usable_cpus(tmp_path, iris_path, monkeypatch, cpus):
    # a process pinned to fewer CPUs than the machine has starts no more workers than it can run
    shares = []
    real = cli._shares
    monkeypatch.setattr(cli, "_shares", lambda cells, n: shares.append(n) or real(cells, n))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    clfs = [{"family": "ocsvm"}, {"family": "ocsvm", "kernels": "linear"}, {"family": "mkad", "kernels": "gpl"}]
    config = benchmark_config(tmp_path, iris_path, clfs, grid=(0.3,))
    assert run(["benchmark", "--config", config]) == 0
    assert shares == [cpus]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_benchmark_rejects_jobs_below_one(tmp_path, iris_path, capsys, jobs):
    config = benchmark_config(tmp_path, iris_path, [{"family": "ocsvm"}])
    with pytest.raises(SystemExit) as exc:
        run(["benchmark", "--config", config, "--jobs", jobs])
    assert exc.value.code == 2
    assert f"argument --jobs: must be at least 1, got {int(jobs)}" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_benchmark_all_cells_fail(tmp_path, iris_path, capsys):
    # nu*N < 1 on every fold (40 training targets), so every candidate is skipped
    clfs = [{"name": "broken", "family": "ocsvm", "kernels": "gauss:auto"}]
    config = benchmark_config(tmp_path, iris_path, clfs, grid=(0.001,))
    assert run(["benchmark", "--config", config, "--jobs", "1"]) == 1
    assert "failed" in capsys.readouterr().err


def test_benchmark_invalid_classifier_fails_loudly(tmp_path, iris_path, capsys):
    # two kernels under family=ocsvm is a config error, not a skipped candidate
    clfs = [{"name": "broken", "family": "ocsvm", "kernels": "gpl"}]
    config = benchmark_config(tmp_path, iris_path, clfs)
    assert run(["benchmark", "--config", config, "--jobs", "1"]) == 1
    assert "ocsvm takes exactly one kernel" in capsys.readouterr().err
    assert not (tmp_path / "results" / "results.csv").exists()


@pytest.mark.parametrize("section, entry, message", [
    ("classifiers", {"family": "lmkad", "gatng": "rbf", "learning-rate": 0.1},
     r"classifiers\[0\] has unknown key 'gatng'"),
    ("datasets", {"path": "x.csv", "target_label": "a", "headr": True}, r"datasets\[0\] has unknown key 'headr'"),
    ("datasets", {"target_label": "setosa"}, r"datasets\[0\] needs a 'path'$"),
    ("datasets", {"path": "x.csv"}, r"datasets\[0\] needs a 'target_label'$"),
    ("classifiers", {"name": "a", "kernels": "gpl"}, r"classifiers\[0\] needs a 'family'$"),
    ("classifiers", {"family": "lmkad", "gating": "rbff"}, r"classifiers\[0\]: unknown gating kind 'rbff'$"),
    # rho is always the margin mean: the key that once chose another rule is unknown
    ("classifiers", {"family": "ocsvm", "rho_mode": "margin"}, r"classifiers\[0\] has unknown key 'rho_mode'"),
    ("classifiers", {"family": "ocsvm", "inner_tol": 0}, r"classifiers\[0\]: inner_tol must be finite and > 0, got 0$"),
    ("classifiers", {"family": "lmkad", "learning_rate": float("inf")},
     r"classifiers\[0\]: learning_rate must be >= 0 and finite, got inf$"),
    ("classifiers", {"family": "ocsvm", "inner_tol": "1e-6"},
     r"classifiers\[0\]: inner_tol must be a real number, got '1e-6'$"),
    ("classifiers", {"family": "lmkad", "learning_rate": "20"},
     r"classifiers\[0\]: learning_rate must be a real number, got '20'$"),
    ("classifiers", {"family": "lmkad", "max_outer": None},
     r"classifiers\[0\]: max_outer must be an integer, got None$"),
    ("classifiers", {"family": "lmkad", "max_outer": 2.5},
     r"classifiers\[0\]: max_outer must be an integer, got 2\.5$"),
    # a null grid or entry raised a TypeError, a string was read digit by
    # digit, true trained at nu = 1, 0 and -0.5 were skipped on every fold,
    # and 2 and [] failed later without naming the classifier
    ("classifiers", {"family": "ocsvm", "nu_grid": None},
     r"classifiers\[0\]: nu_grid must be a list of numbers, got None$"),
    ("classifiers", {"family": "ocsvm", "nu_grid": "0.1"},
     r"classifiers\[0\]: nu_grid must be a list of numbers, got '0\.1'$"),
    ("classifiers", {"family": "ocsvm", "nu_grid": [0.1, None]},
     r"classifiers\[0\]: nu_grid\[1\]: must be a real number, got None$"),
    ("classifiers", {"family": "ocsvm", "nu_grid": [True]},
     r"classifiers\[0\]: nu_grid\[0\]: must be a real number, got True$"),
    ("classifiers", {"family": "ocsvm", "nu_grid": [0.1, 0]},
     r"classifiers\[0\]: nu_grid\[1\]: infeasible nu: 0 not in \(0, 1\]$"),
    ("classifiers", {"family": "ocsvm", "nu_grid": [0.1, -0.5]},
     r"classifiers\[0\]: nu_grid\[1\]: infeasible nu: -0\.5 not in \(0, 1\]$"),
    ("classifiers", {"family": "ocsvm", "nu_grid": [0.1, 2]},
     r"classifiers\[0\]: nu_grid\[1\]: infeasible nu: 2 not in \(0, 1\]$"),
    ("classifiers", {"family": "ocsvm", "nu_grid": []}, r"classifiers\[0\]: nu_grid is empty$"),
], ids=["classifier-key", "dataset-key", "no-path", "no-target", "no-family", "gating", "rho-mode", "inner-tol",
        "learning-rate", "inner-tol-string", "learning-rate-string", "max-outer-null", "max-outer-fraction",
        "nu-grid-null", "nu-grid-string", "nu-grid-null-entry", "nu-grid-bool", "nu-grid-zero", "nu-grid-negative",
        "nu-grid-above-1", "nu-grid-empty"])
def test_benchmark_config_entries_fail_early_by_name(tmp_path, iris_path, capsys, section, entry, message):
    config = benchmark_config(tmp_path, iris_path, [{"family": "ocsvm"}])
    doc = json.loads(config.read_text())
    doc[section] = [entry]
    config.write_text(json.dumps(doc))
    assert run(["benchmark", "--config", config, "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and len(err.splitlines()) == 1
    assert re.search(message, err.strip())
    assert not (tmp_path / "results" / "results.csv").exists()


@pytest.fixture()
def iris_on_stdin(iris_path):
    """File descriptor 0 reads the iris rows, as in ``lmkad benchmark < iris.csv``."""
    read, write = os.pipe()
    os.write(write, iris_path.read_bytes())  # smaller than a pipe's buffer
    os.close(write)
    saved = os.dup(0)
    os.dup2(read, 0)
    os.close(read)
    yield
    os.dup2(saved, 0)
    os.close(saved)


# Besides the key names and integers, each case below once ran: a
# non-string path was opened as a file descriptor (0 read the piped stdin
# as the data file and exited 0), "false" counted as a true header and
# dropped a data row, non-string output_dir and kernels raised TypeError or
# AttributeError tracebacks, and entries named alike wrote one row or
# column's Gmeans under both names.
@pytest.mark.parametrize("change, message", [
    ({"n_fold": 3}, r"config has unknown key 'n_fold' \(known: seed, n_folds, "),
    ({"n_folds": 2.7}, r"config: n_folds must be an integer, got 2\.7$"),
    ({"n_runs": True}, r"config: n_runs must be an integer, got True$"),
    ({"seed": "x"}, r"config: seed must be an integer, got 'x'$"),
    ({"output_dir": 5}, r"config: output_dir must be a string, got 5$"),
    ({"datasets": []}, r"config: datasets must be a non-empty list, got \[\]$"),
    ({"datasets": [{"path": 0, "target_label": "setosa"}]}, r"datasets\[0\]: path must be a string, got 0$"),
    ({"datasets": [{"path": 7, "target_label": "setosa"}]}, r"datasets\[0\]: path must be a string, got 7$"),
    ({"datasets": [dict(IRIS_SETOSA, header="false")]}, r"datasets\[0\]: header must be true or false, got 'false'$"),
    ({"datasets": [dict(IRIS_SETOSA, header=1)]}, r"datasets\[0\]: header must be true or false, got 1$"),
    ({"datasets": [dict(IRIS_SETOSA, name=5)]}, r"datasets\[0\]: name must be a string, got 5$"),
    ({"datasets": [dict(IRIS_SETOSA, target_label=None)]},
     r"datasets\[0\]: target_label must be a string or a number, got None$"),
    ({"datasets": [dict(IRIS_SETOSA, label_column=True)]},
     r"datasets\[0\]: label_column must be an integer or a string, got True$"),
    ({"datasets": [dict(IRIS_SETOSA, target_label=t) for t in ("setosa", "versicolor", "virginica")]},
     r"datasets\[0\] and datasets\[1\] are both named '[^']*iris\.csv'$"),
    ({"classifiers": [{"family": "ocsvm", "kernels": 5}]},
     r"classifiers\[0\]: kernels must be a string or a list of strings, got 5$"),
    ({"classifiers": [{"family": "ocsvm", "kernels": [5]}]}, r"classifiers\[0\]: kernel token must be a string, got 5$"),
    ({"classifiers": [{"family": "ocsvm", "name": 5}]}, r"classifiers\[0\]: name must be a string, got 5$"),
    ({"classifiers": [{"family": "ocsvm", "name": "x"}, {"family": "mkad", "kernels": "gpl", "name": "x"}]},
     r"classifiers\[0\] and classifiers\[1\] are both named 'x'$"),
    ({"classifiers": [{"family": "ocsvm"}, {"family": "ocsvm", "kernels": "linear"}, {"family": "ocsvm"}]},
     r"classifiers\[0\] and classifiers\[2\] are both named 'ocsvm\(gauss:auto\)'$"),
], ids=["unknown", "fraction", "bool", "string", "output-dir", "no-datasets", "path-stdin", "path-fd",
        "header-string", "header-int", "dataset-name", "target-null", "label-column-bool", "dataset-names-by-path",
        "kernels-int", "kernel-token-int", "classifier-name", "classifier-names", "classifier-names-by-default"])
def test_benchmark_config_top_level_keys_fail_early_by_name(tmp_path, iris_path, iris_on_stdin, monkeypatch, capsys,
                                                            change, message):
    def no_data(*args, **kwargs):
        raise AssertionError("a data file was read")

    monkeypatch.setattr(cli, "load_csv", no_data)
    config = benchmark_config(tmp_path, iris_path, [{"family": "ocsvm"}])
    config.write_text(json.dumps(dict(json.loads(config.read_text()), **change)))
    assert run(["benchmark", "--config", config, "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and len(err.splitlines()) == 1 and "Traceback" not in err
    assert re.search(message, err.strip())
    assert not (tmp_path / "results").exists()


def test_fit_defaults_are_the_trainers():
    args = cli.build_parser().parse_args(
        ["fit", "--data", "x.csv", "--target-label", "a", "--family", "lmkad", "--nu", "0.1", "--out", "m.json"])
    assert cli._trainer(vars(args)) == ClassifierConfig.trainer == LmkadConfig(nu=1.0)
    assert args.seed == 0


def test_fit_rho_mode_flag_is_a_usage_error(tmp_path, iris_path, capsys):
    # rho is always the margin mean: the flag that once chose another rule is unknown
    with pytest.raises(SystemExit) as exc:
        run(["fit", "--data", iris_path, "--label-column", "species", "--target-label", "setosa", "--header",
             "--family", "ocsvm", "--nu", "0.1", "--rho-mode", "margin", "--out", tmp_path / "m.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rho-mode margin" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_fit_choices_are_the_modules_names():
    fit = next(a for a in cli.build_parser()._actions if a.dest == "command").choices["fit"]
    choices = {a.dest: a.choices for a in fit._actions if a.choices}
    assert choices.keys() == {"family", "gating"}
    assert choices["family"] is FAMILIES and choices["gating"] is GATING_KINDS


def test_benchmark_requires_seed(tmp_path, iris_path, monkeypatch, capsys):
    # the config alone decides the results: an environment variable once supplied the seed
    monkeypatch.setenv("LMKAD_SEED", "11")
    config = json.loads(benchmark_config(tmp_path, iris_path,
                        [{"name": "a", "family": "ocsvm"}]).read_text())
    del config["seed"]
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps(config))
    assert run(["benchmark", "--config", path]) == 1
    assert capsys.readouterr().err == f"error: {path}: config needs a 'seed'\n"
    assert not (tmp_path / "results").exists()


def test_benchmark_iris_lmkad_beats_mkad(tmp_path, iris_path):
    from conftest import PROTOCOL_SEED

    clfs = [
        {"name": "OCSVM(g)", "family": "ocsvm", "kernels": "gauss:auto"},
        {"name": "MKAD(gpl)", "family": "mkad", "kernels": "gpl"},
        {"name": "LMKAD(S_gpl)", "family": "lmkad", "kernels": "gpl", "gating": "sigmoid"},
    ]
    config = benchmark_config(tmp_path, iris_path, clfs, n_runs=5,
                              grid=(0.02, 0.05, 0.1, 0.2, 0.3))
    cfg = json.loads(config.read_text())
    cfg["seed"] = PROTOCOL_SEED
    config.write_text(json.dumps(cfg))
    assert run(["benchmark", "--config", config, "--jobs", "1"]) == 0
    rows = {r["classifier"]: r for r in read_results(tmp_path / "results" / "results.csv")}
    assert float(rows["LMKAD(S_gpl)"]["mean_gmean"]) >= float(rows["MKAD(gpl)"]["mean_gmean"])
    for r in rows.values():
        assert np.isfinite(float(r["mean_gmean"])) and np.isfinite(float(r["mean_sv_pct"]))


def test_stats_on_reference_matrix(tmp_path, capsys):
    from importlib import resources

    fixture = resources.files("lmkad").joinpath("data/reference_gmeans.csv")
    out = tmp_path / "friedman.csv"
    assert run(["stats", "--results", fixture, "--out", out]) == 0
    printed = capsys.readouterr().out
    f_line = next(line for line in printed.splitlines() if line.startswith("f_stat"))
    f_val = float(f_line.split()[2])
    assert abs(f_val - 24.56) <= 0.05
    assert "df = (13, 312)" in f_line
    rows = out.read_text().splitlines()
    assert rows[0] == "chi_sq,f_stat,p_value,df1,df2,degenerate"


def test_benchmark_ranks_what_stats_reads_back(tmp_path, iris_path, monkeypatch):
    # Gmeans that tie at the 12 digits of gmean_matrix.csv but not in full
    # precision: the benchmark once ranked the full-precision means, so its
    # ranks and Friedman statistics disagreed with ``lmkad stats`` on its
    # own matrix
    means = {("iris-setosa", "A"): 0.5, ("iris-setosa", "B"): 0.5 + 1e-14,
             ("iris-versicolor", "A"): 0.7, ("iris-versicolor", "B"): 0.6}

    def fake_cells(cells):
        return [CvResult(cell.dataset.name, cell.config.name, means[cell.dataset.name, cell.config.name], 0.0, 50.0)
                for cell in cells]

    monkeypatch.setattr(cli, "cross_validate_many", fake_cells)
    config = benchmark_config(tmp_path, iris_path, [{"name": name, "family": "ocsvm"} for name in "AB"])
    doc = json.loads(config.read_text())
    doc["datasets"].append(dict(doc["datasets"][0], name="iris-versicolor", target_label="versicolor"))
    config.write_text(json.dumps(doc))
    assert run(["benchmark", "--config", config, "--jobs", "1"]) == 0
    results = tmp_path / "results"
    assert run(["stats", "--results", results / "gmean_matrix.csv", "--out", tmp_path / "stats.csv"]) == 0
    assert (results / "friedman.csv").read_bytes() == (tmp_path / "stats.csv").read_bytes()
    assert (results / "ranks.csv").read_bytes() == (tmp_path / "stats.ranks.csv").read_bytes()
    assert read_results(results / "ranks.csv") == [{"classifier": "A", "avg_rank": "1.25"},
                                                   {"classifier": "B", "avg_rank": "1.75"}]


def test_stats_identical_columns(tmp_path, capsys):
    p = tmp_path / "m.csv"
    p.write_text("dataset,A,B,C\nd1,0.5,0.5,0.9\nd2,0.7,0.7,0.2\nd3,0.6,0.6,0.1\n")
    assert run(["stats", "--results", p]) == 0
    printed = capsys.readouterr().out
    rank_a = next(l for l in printed.splitlines() if l.strip().startswith("A"))
    rank_b = next(l for l in printed.splitlines() if l.strip().startswith("B"))
    assert rank_a.split()[-1] == rank_b.split()[-1]


def test_stats_single_column(tmp_path, capsys):
    p = tmp_path / "m.csv"
    p.write_text("dataset,A\nd1,0.5\nd2,0.7\n")
    assert run(["stats", "--results", p]) == 1
    assert ">= 2 classifiers" in capsys.readouterr().err


def test_stats_malformed(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("just one line")
    assert run(["stats", "--results", p]) == 1


def test_stats_short_long_format_row_is_an_error_line(tmp_path, capsys):
    p = tmp_path / "results.csv"
    p.write_text("dataset,classifier,mean_gmean,std_gmean,mean_sv_pct\nd1,A,0.5,0,1\nd2,A\n")
    assert run(["stats", "--results", p]) == 1
    assert capsys.readouterr().err == f"error: {p}: row 1 has 2 cells, expected 5\n"


def test_stats_names_a_failed_cell(tmp_path, capsys):
    # lmkad benchmark writes nan for a failed cell; a pair that is absent is "incomplete"
    p = tmp_path / "results.csv"
    header = "dataset,classifier,mean_gmean,std_gmean,mean_sv_pct\n"
    p.write_text(header + "d1,A,0.5,0,1\nd1,B,nan,nan,nan\nd2,A,0.7,0,1\nd2,B,0.8,0,1\n")
    assert run(["stats", "--results", p]) == 1
    assert capsys.readouterr().err == f"error: {p}: row 1 has no score (mean_gmean is nan) for ('d1', 'B')\n"
    p.write_text(header + "d1,A,0.5,0,1\nd2,A,0.7,0,1\nd2,B,0.8,0,1\n")
    assert run(["stats", "--results", p]) == 1
    assert capsys.readouterr().err == f"error: {p}: incomplete dataset x classifier matrix\n"


def test_predict_names_a_missing_model_field(tmp_path, iris_path, fitted_model, capsys):
    doc = json.loads(fitted_model.read_text())
    del doc["sv_alpha"]
    fitted_model.write_text(json.dumps(doc))
    out = tmp_path / "pred.csv"
    assert run(["predict", "--model", fitted_model, "--data", iris_path, "--header",
                "--label-column", "species", "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {fitted_model}: sv_alpha is missing\n"
    assert not out.exists()


def test_help_and_unknown_flags(capsys):
    for sub in ("fit", "predict", "benchmark", "stats"):
        with pytest.raises(SystemExit) as exc:
            run([sub, "--help"])
        assert exc.value.code == 0
        capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["fit", "--no-such-flag"])
    assert exc.value.code == 2
