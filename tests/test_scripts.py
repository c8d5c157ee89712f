"""Smoke tests of the scripts under ``scripts/``: each runs in a fresh
interpreter, with its output under ``tmp_path``, and must exit 0 with the
files and lines its docstring promises."""
import csv
import runpy
import subprocess
import sys
from pathlib import Path

from conftest import REPO, child_env


def _run(script, *args, cwd):
    return subprocess.run([sys.executable, str(REPO / "scripts" / script), *args], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=300)


def test_code_lines(tmp_path):
    done = _run("code_lines.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    modules = sorted(p.name for p in (REPO / "src" / "lmkad").glob("*.py"))
    assert [name for _, name in rows] == modules + ["total"]
    counts = [int(count) for count, _ in rows]
    assert min(counts) > 0 and counts[-1] == sum(counts[:-1])
    assert list(tmp_path.iterdir()) == []  # it only prints
    code_lines = runpy.run_path(str(REPO / "scripts" / "code_lines.py"))["code_lines"]
    source = '"""Module\ndocstring."""\nx = 1  # a comment\n\n# a comment line\ndef f():\n    """Doc."""\n' \
             '    return (x,\n            """not a docstring""")\n'
    assert code_lines(source) == 4  # x = 1, def f():, and the two lines of the return


def test_reference_stats(tmp_path):
    done = _run("reference_stats.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "friedman over 25 datasets x 14 classifiers"
    assert "average ranks (best first):" in lines
    table = lines[lines.index("per-classifier aggregates over 25 datasets:") + 1 :]
    assert table[0].split() == ["classifier", "MGmean", "PMG"] and len(table) == 1 + 14
    assert list(tmp_path.iterdir()) == []  # it only prints


def test_run_iris_benchmark_quick(tmp_path):
    out = tmp_path / "out"
    done = _run("run_iris_benchmark.py", "--output-dir", str(out), "--quick", "--jobs", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    written = ["config.json", "results.csv", "gmean_matrix.csv", "ranks.csv", "friedman.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(written)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    with open(out / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 7  # iris views x (5 fixed-weight + 2 sigmoid LMKAD classifiers)
    assert (out / "friedman.csv").read_text().splitlines()[0] == "chi_sq,f_stat,p_value,df1,df2,degenerate"
    lines = done.stdout.splitlines()
    assert lines[0] == f"config written to {out / 'config.json'}"
    assert f"wrote {out / 'ranks.csv'} and {out / 'friedman.csv'}" in lines
    assert "friedman over 3 datasets x 7 classifiers" in lines
    ranks = lines[lines.index("average ranks (best first):") + 1 :]
    assert len(ranks) == 7 and not any(line.startswith("wrote") for line in ranks)
