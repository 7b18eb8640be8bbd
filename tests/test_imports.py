"""The core package and the table/pdf/cdf/approx commands need neither
scipy nor, at import, numpy; the oracle names load on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsd_sr
from qsd_sr import oracle

SRC = str(Path(qsd_sr.__file__).resolve().parents[1])


def run_without_scipy(code):
    """Run ``code`` in a fresh interpreter in which ``import scipy`` fails."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    script = "import sys\nsys.modules['scipy'] = None\n" + code
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_loads_neither_scipy_nor_numpy():
    proc = run_without_scipy(
        "import qsd_sr\n"
        "assert 'numpy' not in sys.modules, 'import qsd_sr loaded numpy'\n"
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["table"],
    ["pdf", "--grid", "50"],
    ["cdf", "--grid", "50"],
    ["approx", "--grid", "50"],
], ids=["table", "pdf", "cdf", "approx"])
def test_command_runs_without_scipy(argv):
    proc = run_without_scipy(
        "from qsd_sr.cli import main\n"
        f"sys.exit(main({argv + ['--out', os.devnull]!r}))\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    for name in qsd_sr.__all__:
        assert getattr(qsd_sr, name) is not None, name
    assert qsd_sr.sturm_liouville_eigen is oracle.sturm_liouville_eigen


def test_star_import():
    namespace = {}
    exec("from qsd_sr import *", namespace)
    assert set(qsd_sr.__all__) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        qsd_sr.no_such_name
