"""Record the reference outputs that the benchmark's checks compare against.

Run from the checkout root, on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py [--only fit_n1000|score_100k|iris_cv]

It writes ``perfbench/reference/``: the final dual objective and SV count
of every ``fit_n1000`` input, the sha256 of the label column ``lmkad
predict`` writes for every ``score_100k`` input, and the ``results.csv`` and
``gmean_matrix.csv`` of the ``iris_cv`` protocol.
"""
import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# same BLAS threading as the timed runs, set before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402
from lmkad import cli, models  # noqa: E402


def record_fit() -> None:
    fits = []
    for i in range(w.FIT_FAMILY):
        config = w.fit_config(i)
        model = models.train_lmkad(w.fit_targets(i), w.KERNELS, config)
        fits.append({"objective": model.report.objective_trace[-1], "n_sv": models.sv_count(model)})
        print(f"fit {i}: {fits[-1]}", flush=True)
    doc = {"inner_tol": config.inner_tol, "fits": fits}
    (w.REFERENCE / "fit_n1000.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def record_score(tmp: Path) -> None:
    digests = []
    for i in range(w.SCORE_FAMILY):
        targets, rows = w.score_inputs(i)
        w.write_rows_csv(tmp / "rows.csv", rows)
        models.save_model(models.train_lmkad(targets, w.KERNELS, w.fit_config(i)), tmp / "model.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["predict", "--model", str(tmp / "model.json"),
                             "--data", str(tmp / "rows.csv"), "--out", str(tmp / "out.csv")])
        if code != 0:
            raise SystemExit(f"lmkad predict exited {code} on input {i}")
        digest, n_rows, nonfinite = w.read_predictions(tmp / "out.csv")
        if n_rows != w.SCORE_ROWS or nonfinite:
            raise SystemExit(f"input {i}: {n_rows} rows, {nonfinite} non-finite")
        digests.append(digest)
        print(f"score {i}: {digest}", flush=True)
    doc = {"label_sha256": digests}
    (w.REFERENCE / "score_100k.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def record_iris(tmp: Path) -> None:
    config_path = tmp / "iris_config.json"
    config_path.write_text(json.dumps(w.iris_config(tmp / "iris_out")) + "\n", encoding="utf-8")
    code, stderr = w.run_iris_protocol(config_path, tmp / "iris_out", w.IRIS_JOBS)
    if code != 0:
        raise SystemExit(f"lmkad benchmark exited {code}:\n{stderr}")
    dest = w.REFERENCE / "iris_cv"
    dest.mkdir(parents=True, exist_ok=True)
    for name in ("results.csv", "gmean_matrix.csv"):
        shutil.copyfile(tmp / "iris_out" / name, dest / name)
    print(f"iris: {len(w.SKIPPED_FOLD.findall(stderr))} skipped folds", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=("fit_n1000", "score_100k", "iris_cv"))
    args = parser.parse_args()
    w.REFERENCE.mkdir(exist_ok=True)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        if args.only in (None, "fit_n1000"):
            record_fit()
        if args.only in (None, "score_100k"):
            record_score(tmp)
        if args.only in (None, "iris_cv"):
            record_iris(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
