"""The README's examples run as written, and the sizes it states are the code's."""
import argparse
import dataclasses
import math
import re
from pathlib import Path

import lmkad
from lmkad import cli, models, solver
from lmkad.evaluation import ClassifierConfig

REPO = Path(__file__).resolve().parents[1]


def _block(after: str, lang: str) -> str:
    """The first ``lang`` code block of the README after the line ``after``."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return readme.split(after, 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_benchmark_config_loads(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(_block("### Benchmark config grammar (JSON)", "json"))
    config = cli._load_experiment_config(path)
    classifiers = [cli._classifier_from_dict(spec) for spec in config["classifiers"]]
    assert [c.name for c, _ in classifiers] == ["OCSVM(g)", "LMKAD(S_gpl)"]
    assert classifiers[1][0].trainer == ClassifierConfig.trainer  # the example spells the defaults


def test_readme_config_grammar_states_the_key_table():
    grammar = (REPO / "README.md").read_text(encoding="utf-8").split("### Benchmark config grammar (JSON)", 1)[1]
    for heading, section in (("top-level", "config"), ("dataset", "datasets"), ("classifier", "classifiers")):
        table = grammar.split(f"| {heading} key | value | default |\n", 1)[1].split("\n\n", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \|$", table, re.MULTILINE)
        keys = cli.CONFIG_KEYS[section]
        assert [(key, what) for key, what, _ in rows] == [(key, what) for key, (what, _, _) in keys.items()]
        assert [key for key, _, default in rows if default == "required"] == [
            key for key, (_, _, default) in keys.items() if default is ...]


def test_readme_library_example_runs(monkeypatch, capsys):
    # its N = 200 fit runs lazy rounds, where a wrong Q makes SMO run on toward
    # its default cap of 100 N^2 steps: here it is capped at ~2x the most any
    # dual takes (623), which leaves its result as it is
    monkeypatch.chdir(REPO)
    train = lmkad.train_lmkad
    monkeypatch.setattr(lmkad, "train_lmkad", lambda X, kernels, config: train(
        X, kernels, dataclasses.replace(config, inner_max_iter=1500)))
    example = {}
    exec(_block("## Library use", "python"), example)
    gmean, sv_pct = map(float, capsys.readouterr().out.split())
    assert 0.0 <= gmean <= 1.0 and 0.0 < sv_pct <= 100.0
    assert example["model"].report.inner_nonconverged == 0


def test_readme_scoring_sizes_are_the_models():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    stated = dict((name, int(rows.replace(",", ""))) for rows, name
                  in re.findall(r"([\d,]+) rows\s+\(`lmkad\.models\.(\w+)`\)", readme))
    assert stated == {"BLOCK_ROWS": models.BLOCK_ROWS, "TILE_ROWS": models.TILE_ROWS}


def test_readme_names_the_trainer_settings_lmkad_fit_takes():
    readme = " ".join((REPO / "README.md").read_text(encoding="utf-8").split())
    unflagged, flags = re.search(r"`lmkad fit` takes all of them but `(\w+)` as flags \(([^)]*)\)", readme).groups()
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    taken = {a.dest: a.option_strings[0] for a in commands.choices["fit"]._actions if a.dest in cli._TRAINER_KEYS}
    assert set(re.findall(r"`(--[\w-]+)`", flags)) == set(taken.values())
    assert set(cli._TRAINER_KEYS) - set(taken) == {unflagged}


def test_readme_training_tiles_are_the_trainers():
    readme = " ".join((REPO / "README.md").read_text(encoding="utf-8").split())
    limit, kib = re.search(r"whole fits at a time up to N = (\d+) and (\d+) KiB tiles of a fit's rows above "
                           r"\(`lmkad\.models\.TRAIN_TILE_BYTES`\)", readme).groups()
    assert int(kib) * 2**10 == models.TRAIN_TILE_BYTES
    assert int(limit) == math.isqrt(models.TRAIN_TILE_BYTES // 8)  # the largest N whose N x N fits a tile
    lazy_n, rows = re.search(r"a warm round whose fits have N > (\d+) and whose group has fewer than "
                             r"`LOCKSTEP_MIN_ROWS` = (\d+) duals", readme).groups()
    assert int(lazy_n) == int(limit) and int(rows) == solver.LOCKSTEP_MIN_ROWS
    # what a lazy round composes, and that it writes nothing else into Q
    assert ("it composes the diagonal and the columns of the start's support, then each column as SMO first "
            "reads it, by the same arithmetic, and leaves Q's other entries as an earlier round left them, "
            "finite values that meet only zero multipliers") in readme
