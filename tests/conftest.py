import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qsd_sr import ModelParams, build_solution
from qsd_sr.checks import REFERENCE_TABLE  # noqa: F401  golden data, mu = 1


@pytest.fixture(scope="session")
def sol_mu1_A20():
    return build_solution(ModelParams(mu=1.0, A=20.0))


@pytest.fixture(scope="session")
def params_mu1_A20():
    return ModelParams(mu=1.0, A=20.0)
