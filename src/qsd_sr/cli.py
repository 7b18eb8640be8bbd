"""Command-line interface.

Subcommands::

    qsd-sr table     reference eigenvalue table with order-1/2/3 approximations
    qsd-sr pdf       tabulate the exact density on a grid
    qsd-sr cdf       tabulate the exact distribution function on a grid
    qsd-sr approx    tabulate exact vs approximate densities and their errors
    qsd-sr validate  run the verification suites and emit a JSON report

Artifacts are CSV (comma separated, header row, LF endings, '.' decimal
point) or JSON; numbers carry 17 significant digits so artifacts re-parse to
the emitted values.  Identical configurations (including seeds) produce
byte-identical output.

Exit codes: 0 success, 1 computational failure, 2 validation mismatch,
64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import asymptotics, qsd
from .eigensolver import _check_domain, dominant_eigenvalue
from .errors import DomainError, QsdError, ThresholdTooSmallError
from .specfun import ModelParams, exp_scaled_e1, meijer_g_special

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_MISMATCH = 2
EXIT_USAGE = 64

# Reference values for mu = 1, twelve decimals: negated dominant eigenvalue
# and its order-1/2/3 approximations, used as golden regression data.
REFERENCE_TABLE = {
    20: ("0.058856148622", "0.05", "0.059819055496", "0.058817735494"),
    30: ("0.037786534271", "0.033333333333", "0.03811217223", "0.03777661428"),
    40: ("0.027727324417", "0.025", "0.027880519395", "0.027723505394"),
    50: ("0.02186160095", "0.02", "0.021947421685", "0.02185977578"),
    100: ("0.010563106075", "0.01", "0.010577520296", "0.010562921283"),
    500: ("0.002033066472", "0.002", "0.002033295282", "0.002033065611"),
    1000: ("0.0010095172", "0.001", "0.001009554734", "0.001009517118"),
    10000: ("0.000100139278", "0.0001", "0.000100139359", "0.000100139278"),
}
DEFAULT_THRESHOLDS = tuple(REFERENCE_TABLE)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text, out_path):
    """Write an artifact to ``out_path``, or to stdout when it is not set."""
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_table(columns, rows, fmt, out_path, warnings=()):
    if fmt == "json":
        doc = {"columns": list(columns), "rows": [[float(v) for v in r] for r in rows]}
        if warnings:
            doc["warnings"] = list(warnings)
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in r) for r in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, out_path)


def _neg_lambda_row(params):
    """[-lam, -lam*, -lam**, -lam***] at ``params``; nan for an order whose
    truncation has no admissible root."""
    row = [-dominant_eigenvalue(params).lam]
    for lambda_order in asymptotics.LAMBDA_BY_ORDER.values():
        try:
            row.append(-lambda_order(params))
        except ThresholdTooSmallError:
            row.append(math.nan)
    return row


def cmd_table(args) -> int:
    rows = []
    mismatches = []
    for p in args.params:
        row = _neg_lambda_row(p)
        rows.append((p.A, *row))
        key = int(p.A) if float(p.A).is_integer() else None
        if args.mu == 1.0 and key in REFERENCE_TABLE:
            ref = float(REFERENCE_TABLE[key][0])
            if abs(row[0] - ref) > args.tol:
                mismatches.append((p.A, row[0], ref))
    columns = ["A", "neg_lambda", "neg_lambda_order1", "neg_lambda_order2",
               "neg_lambda_order3"]
    if args.format == "json":
        doc = {"columns": columns,
               "rows": [[r[0]] + [None if math.isnan(v) else round(v, 12) for v in r[1:]]
                        for r in rows]}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        for r in rows:
            lines.append(",".join([f"{r[0]:g}"] + [f"{v:.12f}" for v in r[1:]]))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    if mismatches:
        for a, got, ref in mismatches:
            print(f"mismatch at A={a:g}: computed {got:.12f}, reference {ref:.12f}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# grid command -> (exact-law function, column name)
_LAW = {"pdf": (qsd.pdf, "q"), "cdf": (qsd.cdf, "Q")}


def cmd_law(args) -> int:
    fn, column = _LAW[args.command]
    sol = qsd.build_solution(args.params[0])
    rows = [(x, fn(x, sol)) for x in args.xs]
    _write_table(("x", column), rows, args.format, args.out)
    return EXIT_OK


def cmd_approx(args) -> int:
    params = args.params[0]
    sol = qsd.build_solution(params)
    orders = (args.order,) if args.order else (1, 2, 3)
    approx = {}
    warnings = []
    for k in orders:
        try:
            approx[k] = asymptotics.build_approx(params, k)
        except ThresholdTooSmallError as exc:
            warnings.append(f"order-{k} approximation unavailable: {exc}")
    columns = ["x", "q"]
    for k in sorted(approx):
        columns.append(f"q_approx{k}")
    for k in sorted(approx):
        columns.append(f"abs_err{k}")
    rows = []
    for x in args.xs:
        q = qsd.pdf(x, sol)
        qa = [approx[k].pdf(x) for k in sorted(approx)]
        rows.append((x, q, *qa, *[abs(q - v) for v in qa]))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    _write_table(columns, rows, args.format, args.out, warnings=warnings)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------

def _check(name, group, residual, tolerance, detail=""):
    status = "pass" if residual <= tolerance else "fail"
    return {
        "name": name,
        "group": group,
        "status": status,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "detail": detail,
    }


def _validate_exact(tol):
    from scipy.integrate import quad

    checks = []
    names = ("eigenvalue", "lambda_order1", "lambda_order2", "lambda_order3")
    for a, refs in REFERENCE_TABLE.items():
        row = _neg_lambda_row(ModelParams(mu=1.0, A=float(a)))
        for name, val, ref, t in zip(names, row, refs, (tol, 1e-9, 1e-9, 1e-9)):
            checks.append(_check(f"{name}_A{a}", "exact", abs(val - float(ref)), t))
    for mu in (0.5, 1.0, 1.5):
        for a in (5.0, 20.0, 100.0):
            p = ModelParams(mu=mu, A=a)
            sol = qsd.build_solution(p)
            total, _ = quad(lambda x: qsd.pdf(x, sol), 0.0, a, epsabs=1e-11, epsrel=1e-10, limit=300)
            checks.append(_check(f"normalization_mu{mu}_A{a:g}", "exact", abs(total - 1.0), 1e-8))
            flux = qsd.boundary_flux_identity(sol)
            checks.append(
                _check(
                    f"boundary_flux_mu{mu}_A{a:g}",
                    "exact",
                    abs(flux - sol.se.lam) / abs(sol.se.lam),
                    1e-5,
                )
            )
    return checks


def _validate_identities():
    from scipy.integrate import quad

    from . import oracle

    checks = []
    for b, z in ((0.2, 1.0), (0.5, 2.0), (0.25j, 0.5)):
        res = oracle.integral_identity_check(b, z)
        checks.append(_check(f"integral_identity_b{b}_z{z}", "identities", res, 1e-8))
    for k in (1, 2, 3):
        for x in (0.5, 2.0, 10.0):
            res = oracle.index_derivative_check(k, x)
            checks.append(_check(f"index_derivative_k{k}_x{x:g}", "identities", res, 1e-5))
    x = 2.0
    alt, _ = quad(lambda y: exp_scaled_e1(y) / y, x, math.inf, epsabs=1e-12, epsrel=1e-11)
    checks.append(_check("meijer_g_tail_form_x2", "identities", abs(meijer_g_special(x) - alt), 1e-9))
    return checks


def _validate_sl(n_grid=20000):
    from . import oracle

    p = ModelParams(mu=1.0, A=20.0)
    sol = qsd.build_solution(p)
    grid_sol = oracle.sturm_liouville_eigen(p, n_grid)
    lam_err = abs(grid_sol.lambda_hat - sol.se.lam) / abs(sol.se.lam)
    checks = [_check("sl_eigenvalue_relative", "sl", lam_err, 1e-4)]
    step = max(1, grid_sol.grid.size // 2000)
    dev = max(
        abs(qsd.pdf(float(x), sol) - float(qh))
        for x, qh in zip(grid_sol.grid[::step], grid_sol.q_hat[::step])
    )
    checks.append(_check("sl_density_sup_deviation", "sl", dev, 1e-4))
    checks.append(_check("norm_identity_relative", "sl", oracle.norm_identity_check(p, sol.se), 1e-4))
    return checks


# the Monte-Carlo suite's model and headstart
_MC_PARAMS, _MC_HEADSTART = ModelParams(mu=1.0, A=20.0), 5.0


def _validate_mc(args):
    from . import oracle

    sol = qsd.build_solution(_MC_PARAMS)
    law = oracle.simulate_killed_sr(_MC_PARAMS, r=_MC_HEADSTART, dt=args.dt, T=args.horizon,
                                    n_paths=args.paths, seed=args.seed)
    ks = _ks_distance(law.samples, sol)
    checks = [
        _check(
            "mc_ks_distance",
            "mc",
            ks,
            0.01,
            detail=f"{law.n_survivors} survivors of {law.n_paths_total}",
        )
    ]
    return checks


def _ks_distance(samples, sol):
    n = samples.size
    cdf_vals = [qsd.cdf(float(v), sol) for v in samples]
    d = 0.0
    for i, c in enumerate(cdf_vals):
        d = max(d, abs((i + 1) / n - c), abs(i / n - c))
    return d


def cmd_validate(args) -> int:
    skip = set(args.skip or ())
    checks = []
    suites = (
        ("exact", lambda: _validate_exact(args.tol)),
        ("identities", _validate_identities),
        ("sl", _validate_sl),
        ("mc", lambda: _validate_mc(args)),
    )
    for group, runner in suites:
        if group in skip:
            checks.append(
                {"name": group, "group": group, "status": "skipped", "residual": None,
                 "tolerance": None, "detail": "skipped by request"}
            )
            continue
        checks.extend(runner())
    failed = [c for c in checks if c["status"] == "fail"]
    report = {
        "config": {
            "tol": args.tol,
            "paths": args.paths,
            "dt": args.dt,
            "horizon": args.horizon,
            "seed": args.seed,
            "skip": sorted(skip),
        },
        "checks": checks,
        "n_failed": len(failed),
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    if failed:
        for c in failed:
            print(
                f"FAIL {c['name']}: residual {c['residual']:.3e} > tol {c['tolerance']:.3e}",
                file=sys.stderr,
            )
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_common(sp, model=True):
    if model:
        sp.add_argument("--mu", type=float, default=1.0, help="post-change drift (nonzero)")
        sp.add_argument("--A", type=float, action="append",
                        help="detection threshold (repeatable for table)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", type=str, default=None, help="output path (default: stdout)")


def _add_golden_tol(sp):
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="largest accepted deviation of the eigenvalue from the golden table")


def build_parser() -> _Parser:
    ap = _Parser(prog="qsd-sr", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="eigenvalue table with order-1/2/3 approximations")
    _add_common(t)
    _add_golden_tol(t)
    t.set_defaults(fn=cmd_table, default_A=DEFAULT_THRESHOLDS)

    for name, fn in (("pdf", cmd_law), ("cdf", cmd_law), ("approx", cmd_approx)):
        sp = sub.add_parser(name, help=f"tabulate {name} on a grid")
        _add_common(sp)
        sp.add_argument("--grid", type=int, default=1000, help="number of grid points")
        sp.add_argument("--xmin", type=float, default=None)
        sp.add_argument("--xmax", type=float, default=None)
        if name == "approx":
            sp.add_argument("--order", type=int, choices=(1, 2, 3), default=None,
                            help="single approximation order (default: all three)")
        sp.set_defaults(fn=fn, default_A=(20.0,))

    v = sub.add_parser("validate", help="run verification suites")
    _add_common(v, model=False)
    _add_golden_tol(v)
    v.add_argument("--skip", action="append", choices=("exact", "identities", "sl", "mc"),
                   help="suite to skip (repeatable)")
    v.add_argument("--seed", type=int, default=20260810)
    v.add_argument("--paths", type=int, default=200000)
    v.add_argument("--dt", type=float, default=1e-3)
    v.add_argument("--horizon", type=float, default=18.0)
    v.set_defaults(fn=cmd_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    grid = "grid" in args
    if "tol" in args and not (args.tol >= 0.0 and math.isfinite(args.tol)):
        ap.error(f"--tol must be a nonnegative finite number, got {args.tol}")
    try:
        if "mu" in args:  # every command but validate
            thresholds = args.A or args.default_A
            if grid and len(thresholds) > 1:
                ap.error(f"--A may be given only once for {args.command}")
            args.params = [ModelParams(mu=args.mu, A=a) for a in thresholds]
            for p in args.params:
                _check_domain(p)
        else:
            from .oracle import _check_mc_args

            _check_mc_args(_MC_PARAMS, _MC_HEADSTART, args.dt, args.horizon, args.paths,
                           args.seed)
    except DomainError as exc:
        ap.error(str(exc))
    if grid:
        xmin = 0.0 if args.xmin is None else args.xmin
        xmax = args.params[0].A if args.xmax is None else args.xmax
        if not (args.grid >= 2 and -math.inf < xmin < xmax < math.inf):
            ap.error(f"bad grid specification [{xmin}, {xmax}] with {args.grid} points")
        args.xs = [xmin + (xmax - xmin) * i / (args.grid - 1) for i in range(args.grid)]
    try:
        return args.fn(args)
    except QsdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
