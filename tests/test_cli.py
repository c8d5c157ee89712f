import io
import json
import csv
import re

import numpy as np
import pytest

from lmkad import cli
from lmkad.cli import main
from lmkad.dataset import load_features_csv
from lmkad.evaluation import ClassifierConfig, CvResult
from lmkad.gating import GATING_KINDS
from lmkad.models import (BLOCK_ROWS, FAMILIES, LmkadConfig, ScoreBuffers, decision_values, load_model,
                          predict_batch)
from lmkad.solver import RHO_MODES


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


def test_fit_seed_from_env(tmp_path, iris_path, monkeypatch):
    monkeypatch.setenv("LMKAD_SEED", "123")
    out = tmp_path / "m.json"
    code = run(["fit", "--data", iris_path, "--label-column", "species",
                "--target-label", "setosa", "--header", "--family", "lmkad",
                "--kernels", "gpl", "--nu", "0.1", "--out", out])
    assert code == 0


@pytest.mark.parametrize("command", ["fit", "benchmark"])
def test_non_integer_seed_env_names_the_variable(tmp_path, iris_path, monkeypatch, capsys, command):
    monkeypatch.setenv("LMKAD_SEED", "x")
    if command == "fit":
        argv = ["fit", "--data", iris_path, "--label-column", "species", "--target-label", "setosa",
                "--header", "--family", "ocsvm", "--nu", "0.1", "--out", tmp_path / "m.json"]
    else:
        config = json.loads(benchmark_config(tmp_path, iris_path, [{"name": "a", "family": "ocsvm"}]).read_text())
        del config["seed"]
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(config))
        argv = ["benchmark", "--config", path]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: LMKAD_SEED must be an integer, got 'x'\n"
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "results").exists()


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


def test_predict_writes_csv_writer_bytes(tmp_path, fitted_model, monkeypatch):
    rows = np.random.default_rng(8).normal(loc=4.0, scale=2.0, size=(BLOCK_ROWS + 40, 4))
    data = tmp_path / "rows.csv"
    np.savetxt(data, rows, fmt="%.9g", delimiter=",")
    out = tmp_path / "preds.csv"
    assert run(["predict", "--model", fitted_model, "--data", data, "--out", out]) == 0
    expected = decision_values(load_model(fitted_model), load_features_csv(data))
    assert out.read_bytes() == csv_writer_predictions(expected.tolist())

    scored, buffers = [], []

    def special(model, X, block_buffers):
        buffers.append(block_buffers)
        scored.append(np.resize(SPECIAL_VALUES, len(X)))
        return scored[-1]

    monkeypatch.setattr(cli, "decision_values", special)
    assert run(["predict", "--model", fitted_model, "--data", data, "--out", out]) == 0
    assert [len(v) for v in scored] == [BLOCK_ROWS, 40]
    assert isinstance(buffers[0], ScoreBuffers) and buffers[1] is buffers[0]  # allocated once
    assert out.read_bytes() == csv_writer_predictions(np.concatenate(scored).tolist())


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
    ("classifiers", {"family": "ocsvm", "rho_mode": "mean"}, r"classifiers\[0\]: unknown rho mode 'mean'$"),
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
], ids=["classifier-key", "dataset-key", "no-path", "no-target", "no-family", "gating", "rho-mode", "inner-tol",
        "learning-rate", "inner-tol-string", "learning-rate-string", "max-outer-null", "max-outer-fraction"])
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


@pytest.mark.parametrize("change, message", [
    ({"n_fold": 3}, r"config has unknown key 'n_fold' \(known: seed, n_folds, "),
    ({"n_folds": 2.7}, r"'n_folds' must be an integer, got 2.7$"),
    ({"n_runs": True}, r"'n_runs' must be an integer, got True$"),
    ({"seed": "x"}, r"'seed' must be an integer, got 'x'$"),
], ids=["unknown", "fraction", "bool", "string"])
def test_benchmark_config_top_level_keys_fail_early_by_name(tmp_path, iris_path, capsys, change, message):
    config = benchmark_config(tmp_path, iris_path, [{"family": "ocsvm"}])
    config.write_text(json.dumps(dict(json.loads(config.read_text()), **change)))
    assert run(["benchmark", "--config", config, "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and len(err.splitlines()) == 1
    assert re.search(message, err.strip())
    assert not (tmp_path / "results").exists()


def test_fit_defaults_are_the_trainers():
    args = cli.build_parser().parse_args(
        ["fit", "--data", "x.csv", "--target-label", "a", "--family", "lmkad", "--nu", "0.1", "--out", "m.json"])
    assert cli._trainer(vars(args)) == ClassifierConfig.trainer == LmkadConfig(nu=1.0)


def test_fit_choices_are_the_modules_names():
    fit = next(a for a in cli.build_parser()._actions if a.dest == "command").choices["fit"]
    choices = {a.dest: a.choices for a in fit._actions if a.choices}
    assert choices.keys() == {"family", "gating", "rho_mode"}
    assert choices["family"] is FAMILIES and choices["gating"] is GATING_KINDS and choices["rho_mode"] is RHO_MODES


def test_benchmark_requires_seed(tmp_path, iris_path, monkeypatch, capsys):
    monkeypatch.delenv("LMKAD_SEED", raising=False)
    config = json.loads(benchmark_config(tmp_path, iris_path,
                        [{"name": "a", "family": "ocsvm"}]).read_text())
    del config["seed"]
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps(config))
    assert run(["benchmark", "--config", path]) == 1
    assert "seed" in capsys.readouterr().err


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
