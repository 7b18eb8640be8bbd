import json

import numpy as np
import pytest

from qsd_sr import checks, cli
from qsd_sr.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_default_run(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].startswith("A,neg_lambda")
        row20 = next(l for l in lines if l.startswith("20,"))
        assert row20.split(",")[1] == "0.058856148622"
        assert row20.split(",")[2] == "0.050000000000"
        assert row20.split(",")[3] == "0.059819055496"
        assert row20.split(",")[4] == "0.058817735494"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--A", "20", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["columns"][0] == "A"
        assert doc["rows"][0][1] == pytest.approx(0.058856148622, abs=1e-12)

    def test_single_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--A", "10000")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "0.000100139278"

    def test_impossible_tolerance(self, capsys, monkeypatch):
        # a golden eigenvalue moved by 1e-8, 100 times GOLDEN_TOL[0]; lam
        # depends on mu^2 alone, so mu = -1 is held to the mu = 1 table
        ref = checks.REFERENCE_TABLE[20]
        monkeypatch.setitem(checks.REFERENCE_TABLE, 20,
                            (f"{float(ref[0]) + 1e-8:.12f}", *ref[1:]))
        for mu in ("1", "-1"):
            code, _, err = run_cli(capsys, "table", "--mu", mu)
            assert code == EXIT_MISMATCH, mu
            assert err.startswith("mismatch at A=20: computed 0.058856148622, "
                                  "reference 0.058856158622")

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--bogus"])
        assert exc.value.code == EXIT_USAGE

    def test_zero_drift_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["pdf", "--mu", "0"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["table", "--mu", "nan"],
        ["table", "--mu", "inf"],
        ["pdf", "--A", "inf"],
        ["pdf", "--A", "nan"],
        ["pdf", "--grid", "1"],
        ["cdf", "--xmin", "5", "--xmax", "1"],
        ["validate", "--A", "5", "--format", "csv"],
        ["validate", "--mu", "2"],
        ["pdf", "--A", "5", "--A", "7"],
        ["cdf", "--A", "5", "--A", "7"],
        ["approx", "--A", "5", "--A", "7"],
        ["pdf", "--tol", "0"],
        ["pdf", "--tol", "1e-13"],
        ["cdf", "--tol", "1e-13"],
        ["approx", "--tol", "1e-13"],
        ["table", "--A", "20", "--A", "0.3"],
        # the checks run at the fixed settings of qsd_sr.checks, so no option
        # sets them, not even to their own values
        ["table", "--tol", "1e-10"],
        ["validate", "--paths", "200000"],
        ["validate", "--dt", "0.001"],
        ["validate", "--horizon", "18"],
        ["validate", "--seed", "20260810"],
    ], ids=["mu-nan", "mu-inf", "A-inf", "A-nan", "grid-1", "xmin-above-xmax",
            "validate-A-format", "validate-mu", "pdf-A-twice", "cdf-A-twice",
            "approx-A-twice", "pdf-tol-0", "pdf-tol", "cdf-tol", "approx-tol",
            "table-below-domain", "table-tol", "validate-paths", "validate-dt",
            "validate-horizon", "validate-seed"])
    def test_bad_arguments_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE


class TestGridCommands:
    def test_pdf_grid(self, capsys):
        code, out, _ = run_cli(capsys, "pdf", "--mu", "1", "--A", "20", "--grid", "1000")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "x,q"
        assert len(lines) == 1001
        first_q = float(lines[1].split(",")[1])
        last_q = float(lines[-1].split(",")[1])
        assert first_q == 0.0
        assert abs(last_q) < 1e-9

    def test_cdf_grid_json_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "cdf.json"
        code, _, _ = run_cli(
            capsys, "cdf", "--mu", "1", "--A", "20", "--grid", "64",
            "--format", "json", "--out", str(out_file),
        )
        assert code == EXIT_OK
        doc = json.loads(out_file.read_text())
        assert doc["columns"] == ["x", "Q"]
        assert len(doc["rows"]) == 64
        assert doc["rows"][-1][1] == 1.0
        qs = [r[1] for r in doc["rows"]]
        assert all(b >= a for a, b in zip(qs, qs[1:]))

    def test_approx_error_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys, "approx", "--mu", "1", "--A", "20", "--grid", "120",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header == ["x", "q", "q_approx1", "q_approx2", "q_approx3",
                          "abs_err1", "abs_err2", "abs_err3"]
        rows = [list(map(float, l.split(","))) for l in lines[1:]]
        max_err = [max(r[5 + k] for r in rows) for k in range(3)]
        assert max_err[2] < max_err[0]
        assert max_err[1] < max_err[0]

    def test_approx_warns_when_an_order_is_unavailable(self, capsys):
        # at A = 3 the quadratic truncation has no real root
        code, out, err = run_cli(capsys, "approx", "--A", "3", "--grid", "50")
        assert code == EXIT_OK
        assert "warning: order-2 approximation unavailable" in err
        assert out.split("\n")[0] == "x,q,q_approx1,q_approx3,abs_err1,abs_err3"

    def test_approx_columns_match_single_order_runs(self, capsys):
        # all orders share one expansion per x, and each column is written
        # exactly as a run of its order alone writes it
        _, out, _ = run_cli(capsys, "approx", "--mu", "1.1", "--A", "40")
        rows = [l.split(",") for l in out.strip().split("\n")]
        for k in (1, 2, 3):
            _, single, _ = run_cli(capsys, "approx", "--mu", "1.1", "--A", "40", "--order", str(k))
            single_rows = [l.split(",") for l in single.strip().split("\n")]
            assert single_rows[0][2] == f"q_approx{k}"
            col = rows[0].index(f"q_approx{k}")
            assert [r[col] for r in rows] == [r[2] for r in single_rows], k

    def test_mode_ordering_across_drifts(self, capsys):
        # larger drift pushes the bulk of the law toward the origin
        modes = []
        for mu in ("0.5", "1", "1.5"):
            _, out, _ = run_cli(capsys, "pdf", "--mu", mu, "--A", "20", "--grid", "2000")
            rows = [l.split(",") for l in out.strip().split("\n")[1:]]
            qs = np.array([float(r[1]) for r in rows])
            xs = np.array([float(r[0]) for r in rows])
            modes.append(xs[int(np.argmax(qs))])
        assert modes[0] > modes[1] > modes[2]

    @pytest.mark.parametrize("command", ["pdf", "cdf", "approx"])
    def test_below_checked_domain_is_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--mu", "2", "--A", "0.1"])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "below the checked domain" in captured.err

    @pytest.mark.parametrize("command", ["table", "pdf", "cdf", "approx"])
    def test_above_checked_domain_is_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--A", "1e10"])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "above the checked domain" in captured.err

    def test_byte_identical_reruns(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "pdf", "--mu", "1.5", "--A", "50", "--grid", "333", "--out", str(f1))
        run_cli(capsys, "pdf", "--mu", "1.5", "--A", "50", "--grid", "333", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("command", ["table", "pdf", "approx", "validate"])
    @pytest.mark.parametrize("target", ["missing_dir", "dir"])
    def test_unwritable_out_is_usage_error(self, capsys, monkeypatch, tmp_path, command,
                                           target):
        # reported before any computation: none of the computing entry
        # points is reached, and no traceback is printed
        def no_computation(*args):
            raise AssertionError("computed before checking --out")

        monkeypatch.setattr(cli, "neg_lambda_row", no_computation)
        monkeypatch.setattr(cli.qsd, "build_solution", no_computation)
        for group in checks.SUITES:
            monkeypatch.setitem(checks.SUITES, group, no_computation)
        out = tmp_path / "missing" / "x.csv" if target == "missing_dir" else tmp_path
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"qsd-sr: error: cannot write --out {out}: ")
        assert "Traceback" not in captured.err


class TestValidate:
    def test_fast_suites_pass(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "validate", "--skip", "mc", "--skip", "sl", "--out", str(out_file),
        )
        assert code == EXIT_OK
        report = json.loads(out_file.read_text())
        assert report["n_failed"] == 0
        statuses = {c["status"] for c in report["checks"]}
        assert statuses <= {"pass", "skipped"}
        skipped = [c for c in report["checks"] if c["status"] == "skipped"]
        assert {c["group"] for c in skipped} == {"mc", "sl"}

    def test_fast_checks_pinned(self, capsys):
        # every check of validate --skip mc, in order and with its tolerance,
        # so that none is dropped or loosened
        code, out, _ = run_cli(capsys, "validate", "--skip", "mc")
        assert code == EXIT_OK
        got = [(c["name"], c["group"], c["tolerance"], c["status"])
               for c in json.loads(out)["checks"]]
        exact = [(f"{n}_A{a}", t) for a in (20, 30, 40, 50, 100, 500, 1000, 10000)
                 for n, t in (("eigenvalue", 1e-10), ("lambda_order1", 1e-9),
                              ("lambda_order2", 1e-9), ("lambda_order3", 1e-9))]
        exact += [(f"{n}_mu{mu}_A{a}", t) for mu in ("0.5", "1.0", "1.5") for a in (5, 20, 100)
                  for n, t in (("normalization", 1e-10), ("boundary_flux", 3e-12))]
        identities = [(f"integral_identity_{bz}", 1e-10)
                      for bz in ("b0.2_z1.0", "b0.5_z2.0", "b0.25j_z0.5")]
        identities += [(f"index_derivative_k{k}_x{x}", 3e-13)
                       for k in (1, 2, 3) for x in ("0.5", "2", "10")]
        identities += [("meijer_g_tail_form_x2", 1e-11)]
        sl = [("sl_eigenvalue_relative", 1e-4), ("sl_density_sup_deviation", 1e-4),
              ("norm_identity_relative", 5e-12)]
        want = [(n, group, t, "pass")
                for group, named in (("exact", exact), ("identities", identities), ("sl", sl))
                for n, t in named]
        assert got == want + [("mc", "mc", None, "skipped")]

    def test_validate_usage_error(self):
        # validate's golden tolerance is fixed in qsd_sr.checks
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--tol", "1e-10"])
        assert exc.value.code == EXIT_USAGE

    def test_sl_suite(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--skip", "mc", "--skip", "exact",
                               "--skip", "identities")
        assert code == EXIT_OK
        report = json.loads(out)
        names = {c["name"] for c in report["checks"] if c["status"] == "pass"}
        assert "sl_eigenvalue_relative" in names
        assert "sl_density_sup_deviation" in names
