import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # shared test helpers (qp_oracle)

from lmkad import load_csv, plan_folds

REPO = Path(__file__).resolve().parents[1]
IRIS_CSV = REPO / "data" / "iris.csv"

#: fold-plan seed shared by the protocol-level tests
PROTOCOL_SEED = 20240811


def child_env(*paths) -> dict:
    """This process's environment for a child interpreter, with ``src`` and
    ``paths`` put first on its ``PYTHONPATH``, so the child imports this
    checkout's lmkad whether or not it is installed."""
    entries = [str(REPO / "src"), *map(str, paths), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, entries)))


@pytest.fixture(scope="session")
def iris_path():
    return IRIS_CSV


@pytest.fixture(scope="session")
def iris():
    return load_csv(IRIS_CSV, label_column="species", target_label="setosa",
                    has_header=True, name="iris-setosa")


@pytest.fixture(scope="session")
def iris_plan(iris):
    return plan_folds(iris, n_folds=5, n_runs=5, seed=PROTOCOL_SEED)
