"""The package never needs scipy, and the core needs no numpy at import:
every command, ``validate --skip mc`` included, and the oracles run with
scipy blocked; the numpy oracles' names load on first access, and only the
``sl`` and ``mc`` suites of ``validate`` load numpy.  The import and the CSV
commands load none of dataclasses, inspect or json either."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsd_sr
from qsd_sr import checks, oracle

SRC = str(Path(qsd_sr.__file__).resolve().parents[1])


def run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports the package from SRC."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def run_without_scipy(code):
    """Run ``code`` in a fresh interpreter in which ``import scipy`` fails."""
    return run_fresh("import sys\nsys.modules['scipy'] = None\n" + code)


def test_cold_start_loads_no_unneeded_module():
    # modules are counted from after start-up, since site hooks may preload some
    proc = run_fresh(
        "import os, sys\n"
        "before = set(sys.modules)\n"
        "import qsd_sr\n"
        "added = set(sys.modules) - before\n"
        "assert not added & {'dataclasses', 'inspect', 'json'}, sorted(added)\n"
        "from qsd_sr.cli import main\n"
        "for argv in (['table'], ['pdf', '--grid', '50'], ['cdf', '--grid', '50'],\n"
        "             ['approx', '--grid', '50']):\n"
        "    assert main(argv + ['--out', os.devnull]) == 0, argv\n"
        "added = set(sys.modules) - before\n"
        "assert not added & {'dataclasses', 'inspect', 'json', 'numpy'}, sorted(added)\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_validate_with_every_suite_skipped_loads_no_numpy():
    # the checks run at fixed settings, so nothing is checked before a suite runs
    proc = run_fresh(
        "import os, sys\n"
        "before = set(sys.modules)\n"
        "from qsd_sr.cli import main\n"
        "argv = ['validate', '--out', os.devnull]\n"
        "for group in ('exact', 'identities', 'sl', 'mc'):\n"
        "    argv += ['--skip', group]\n"
        "assert main(argv) == 0\n"
        "assert 'numpy' not in set(sys.modules) - before\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_validate_without_monte_carlo_loads_no_thread_pool():
    # nor does the simulator: it runs on the calling thread
    proc = run_fresh(
        "import os, sys, threading\n"
        "before = set(sys.modules)\n"
        "from qsd_sr.cli import main\n"
        "assert main(['validate', '--skip', 'mc', '--out', os.devnull]) == 0\n"
        "from qsd_sr import ModelParams, simulate_killed_sr\n"
        "simulate_killed_sr(ModelParams(1.0, 20.0), r=5.0, dt=1e-2, T=1.0, n_paths=100, seed=1)\n"
        "assert 'concurrent.futures' not in set(sys.modules) - before\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_pure_python_suites_run_with_numpy_blocked():
    # the quadrature rule and the identity residuals live in checks, not in
    # the numpy oracles
    proc = run_fresh(
        "import os, sys\n"
        "before = set(sys.modules)\n"
        "sys.modules['numpy'] = None\n"
        "from qsd_sr.cli import main\n"
        "code = main(['validate', '--skip', 'sl', '--skip', 'mc', '--out', os.devnull])\n"
        "added = {m for m in set(sys.modules) - before if sys.modules[m] is not None}\n"
        "assert not any(m.split('.')[0] == 'numpy' for m in added), sorted(added)\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_import_loads_neither_scipy_nor_numpy():
    proc = run_without_scipy(
        "import qsd_sr, qsd_sr.checks\n"
        "assert 'numpy' not in sys.modules, 'import qsd_sr or qsd_sr.checks loaded numpy'\n"
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["table"],
    ["pdf", "--grid", "50"],
    ["cdf", "--grid", "50"],
    ["approx", "--grid", "50"],
    ["validate", "--skip", "mc"],  # exit 0: every check passed
], ids=["table", "pdf", "cdf", "approx", "validate"])
def test_command_runs_without_scipy(argv):
    proc = run_without_scipy(
        "from qsd_sr.cli import main\n"
        f"sys.exit(main({argv + ['--out', os.devnull]!r}))\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_simulation_runs_without_scipy():
    proc = run_without_scipy(
        "from qsd_sr import ModelParams, simulate_killed_sr\n"
        "law = simulate_killed_sr(ModelParams(1.0, 20.0), r=5.0, dt=1e-2, T=1.0, n_paths=100, seed=1)\n"
        "assert law.n_survivors > 0\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    for name in qsd_sr.__all__:
        assert getattr(qsd_sr, name) is not None, name
    assert qsd_sr.sturm_liouville_eigen is oracle.sturm_liouville_eigen
    for name in ("index_derivative_check", "integral_identity_check", "norm_identity_check"):
        assert getattr(qsd_sr, name) is getattr(checks, name), name


def test_lazy_names_are_the_oracle_names():
    assert qsd_sr._ORACLE_NAMES == tuple(oracle.__all__)


def test_star_import():
    namespace = {}
    exec("from qsd_sr import *", namespace)
    assert set(qsd_sr.__all__) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        qsd_sr.no_such_name
