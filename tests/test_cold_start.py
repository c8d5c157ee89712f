"""What a fresh interpreter loads.  scipy is imported only where a sigmoid
gate or the Friedman test needs it, and the process pool only by a
``lmkad benchmark`` run that uses one or a ``lmkad predict`` of more than
one block where its worker pays (two usable CPUs, the ``fork`` start
method); these tests check module contents (``sys.modules``), not import
time."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

V1_DIR = Path(__file__).parent / "data"

#: printed last by every probe: the loaded modules these tests care about
REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m == "concurrent.futures.process")))
"""

FIT = """
import numpy as np
from lmkad import LmkadConfig, train_lmkad
X = np.random.default_rng(0).normal(size=(20, 3))
train_lmkad(X, "gpl", LmkadConfig(nu=0.3, gating_kind="{kind}", max_outer=3))
"""


def loaded_by(code: str) -> list[str]:
    out = subprocess.run([sys.executable, "-c", code + REPORT], env=child_env(), capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def predict_code(stem: str, tmp_path, n_rows: int = 2) -> str:
    rows = tmp_path / "rows.csv"
    rows.write_text("0.5,1.0,-1.0\n2.0,0.0,0.5\n" * (n_rows // 2) + "0.5,1.0,-1.0\n" * (n_rows % 2))
    argv = ["predict", "--model", str(V1_DIR / f"v1_{stem}.json"), "--data", str(rows),
            "--out", str(tmp_path / "out.csv")]
    return f"from lmkad import cli\nassert cli.main({argv!r}) == 0\n"


@pytest.mark.parametrize("code", [
    "import lmkad",
    "import lmkad.cli",
    FIT.format(kind="softmax"),
    FIT.format(kind="rbf"),
], ids=["import-lmkad", "import-cli", "softmax-fit", "rbf-fit"])
def test_cold_start_loads_neither_scipy_nor_the_pool(code):
    assert loaded_by(code) == []


@pytest.mark.parametrize("stem", ["ocsvm", "mkad", "lmkad_softmax", "lmkad_rbf"])
def test_predict_without_sigmoid_gates_loads_no_scipy(tmp_path, stem):
    assert loaded_by(predict_code(stem, tmp_path)) == []


@pytest.mark.parametrize("code", [
    FIT.format(kind="sigmoid"),
    "from lmkad import friedman_test\nfriedman_test([[0.9, 0.8], [0.7, 0.6], [0.5, 0.6]])\n",
], ids=["sigmoid-fit", "friedman-test"])
def test_sigmoid_gates_and_the_friedman_test_load_scipy_special(code):
    assert "scipy.special" in loaded_by(code)


def test_sigmoid_model_loads_scipy_special_before_scoring(tmp_path):
    # the import lands in load_model, ahead of the first block's buffers
    code = ("import sys\nfrom lmkad import load_model\nload_model(%r)\n"
            "assert 'scipy.special' in sys.modules\n" % str(V1_DIR / "v1_lmkad.json"))
    assert "scipy.special" in loaded_by(code + predict_code("lmkad", tmp_path))


def test_predict_of_two_blocks_loads_the_pool(tmp_path):
    import multiprocessing

    from lmkad.cli import usable_cpus
    from lmkad.dataset import BLOCK_ROWS

    worker = usable_cpus() >= 2 and multiprocessing.get_start_method() == "fork"
    expected = ["concurrent.futures.process"] if worker else []
    assert loaded_by(predict_code("ocsvm", tmp_path, BLOCK_ROWS + 1)) == expected


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs a settable CPU affinity")
def test_predict_of_two_blocks_pinned_to_one_cpu_loads_no_pool(tmp_path):
    from lmkad.dataset import BLOCK_ROWS

    pin = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    assert loaded_by(pin + predict_code("ocsvm", tmp_path, BLOCK_ROWS + 1)) == []
