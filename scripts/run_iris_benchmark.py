#!/usr/bin/env python3
"""Run the repeated-CV benchmark on the bundled iris one-class views.

Builds an experiment config covering all three model families and the
three gating functions, runs it through the CLI benchmark command, and
prints the resulting rank statistics.  The config, the result CSVs and
the Friedman summary are written to the directory given by --output-dir.

Usage: python scripts/run_iris_benchmark.py --output-dir DIR [--jobs N] [--quick]
"""
import argparse
import json
import sys
from pathlib import Path

from lmkad.cli import main as lmkad_main

REPO = Path(__file__).resolve().parents[1]

NU_GRID = [0.02, 0.05, 0.1, 0.2, 0.3]


def classifier_rows(quick: bool):
    rows = [
        {"name": "OCSVM(g)", "family": "ocsvm", "kernels": "gauss:auto"},
        {"name": "OCSVM(p)", "family": "ocsvm", "kernels": "poly:q=2"},
        {"name": "OCSVM(l)", "family": "ocsvm", "kernels": "linear"},
        {"name": "MKAD(gpl)", "family": "mkad", "kernels": "gpl"},
        {"name": "MKAD(gpp)", "family": "mkad", "kernels": "gpp"},
    ]
    gatings = [("S", "sigmoid")] if quick else [("S", "sigmoid"), ("So", "softmax"), ("R", "rbf")]
    for tag, gating in gatings:
        for combo in ("gpl", "gpp"):
            rows.append({
                "name": f"LMKAD({tag}_{combo})",
                "family": "lmkad",
                "kernels": combo,
                "gating": gating,
            })
    for row in rows:
        row["nu_grid"] = NU_GRID
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", required=True, type=Path,
                        help="directory for the config, result CSVs and Friedman summary")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--quick", action="store_true",
                        help="sigmoid gating only and 2 runs instead of 5")
    args = parser.parse_args(argv)

    out_dir = args.output_dir
    config = {
        "seed": 20240811,
        "n_folds": 5,
        "n_runs": 2 if args.quick else 5,
        "output_dir": str(out_dir),
        "datasets": [
            {"name": f"iris-{target}", "path": str(REPO / "data" / "iris.csv"),
             "label_column": "species", "target_label": target, "header": True}
            for target in ("setosa", "versicolor", "virginica")
        ],
        "classifiers": classifier_rows(args.quick),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2) + "\n")
    print(f"config written to {cfg_path}")

    cli_args = ["benchmark", "--config", str(cfg_path)]
    if args.jobs is not None:
        cli_args += ["--jobs", str(args.jobs)]
    code = lmkad_main(cli_args)
    if code != 0:
        return code
    return lmkad_main(["stats", "--results", str(out_dir / "gmean_matrix.csv"),
                       "--out", str(out_dir / "friedman_summary.csv")])


if __name__ == "__main__":
    sys.exit(main())
