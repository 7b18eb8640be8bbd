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

validate runs every check at the fixed settings of qsd_sr.checks (golden
tolerances, Monte-Carlo seed, paths, step and horizon): it can skip a suite
but not change what a check means.

Exit codes: 0 success, 1 computational failure, 2 validation mismatch,
64 usage error (an unwritable --out path too, found before any computing).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import asymptotics, qsd
from .checks import (GOLDEN_TOL, MC_DT, MC_HORIZON, MC_PATHS, MC_SEED, REFERENCE_TABLE, SUITES,
                     golden_comparison, neg_lambda_row)
from .eigensolver import _check_domain
from .errors import DomainError, QsdError, ThresholdTooSmallError
from .specfun import ModelParams

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_MISMATCH = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_table(columns, rows, fmt, out, warnings=()):
    if fmt == "json":
        import json
        doc = {"columns": list(columns), "rows": [[float(v) for v in r] for r in rows]}
        if warnings:
            doc["warnings"] = list(warnings)
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in r) for r in rows]
        text = "\n".join(lines) + "\n"
    out.write(text)


def cmd_table(args) -> int:
    rows = []
    mismatches = []
    for p in args.params:
        row = neg_lambda_row(p)
        rows.append((p.A, *row))
        golden = golden_comparison(p, row)
        if golden and golden[0][1] > GOLDEN_TOL[0]:
            mismatches.append((p.A, row[0], golden[0][0]))
    columns = ["A", "neg_lambda", *(f"neg_lambda_order{k}" for k in asymptotics.LAMBDA_BY_ORDER)]
    if args.format == "json":
        import json
        doc = {"columns": columns,
               "rows": [[r[0]] + [None if math.isnan(v) else round(v, 12) for v in r[1:]]
                        for r in rows]}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        for r in rows:
            lines.append(",".join([f"{r[0]:g}"] + [f"{v:.12f}" for v in r[1:]]))
        text = "\n".join(lines) + "\n"
    args.out.write(text)
    for a, got, ref in mismatches:
        print(f"mismatch at A={a:g}: computed {got:.12f}, reference {ref:.12f}", file=sys.stderr)
    return EXIT_MISMATCH if mismatches else EXIT_OK


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
    orders = (args.order,) if args.order else asymptotics.LAMBDA_BY_ORDER
    approx = []
    warnings = []
    for k in orders:
        try:
            approx.append(asymptotics.build_approx(params, k))
        except ThresholdTooSmallError as exc:
            warnings.append(f"order-{k} approximation unavailable: {exc}")
    columns = ["x", "q", *(f"q_approx{a.order}" for a in approx),
               *(f"abs_err{a.order}" for a in approx)]
    rows = []
    for x in args.xs:
        q = qsd.pdf(x, sol)
        qa = asymptotics.approx_pdfs(approx, x)
        rows.append((x, q, *qa, *[abs(q - v) for v in qa]))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    _write_table(columns, rows, args.format, args.out, warnings=warnings)
    return EXIT_OK


def cmd_validate(args) -> int:
    import json
    skip = set(args.skip or ())
    checks = []
    for group, suite in SUITES.items():
        if group in skip:
            checks.append({"name": group, "group": group, "status": "skipped", "residual": None,
                           "tolerance": None, "detail": "skipped by request"})
        else:
            checks.extend(suite())
    failed = [c for c in checks if c["status"] == "fail"]
    config = {"tol": GOLDEN_TOL[0], "paths": MC_PATHS, "dt": MC_DT, "horizon": MC_HORIZON,
              "seed": MC_SEED}
    report = {"config": {**config, "skip": sorted(skip)}, "checks": checks, "n_failed": len(failed)}
    args.out.write(json.dumps(report, indent=2) + "\n")
    for c in failed:
        print(f"FAIL {c['name']}: residual {c['residual']:.3e} > tol {c['tolerance']:.3e}",
              file=sys.stderr)
    return EXIT_MISMATCH if failed else EXIT_OK


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


def build_parser() -> _Parser:
    ap = _Parser(prog="qsd-sr", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="eigenvalue table with order-1/2/3 approximations")
    _add_common(t)
    t.set_defaults(fn=cmd_table, default_A=tuple(REFERENCE_TABLE))

    for name, fn in (("pdf", cmd_law), ("cdf", cmd_law), ("approx", cmd_approx)):
        sp = sub.add_parser(name, help=f"tabulate {name} on a grid")
        _add_common(sp)
        sp.add_argument("--grid", type=int, default=1000, help="number of grid points")
        sp.add_argument("--xmin", type=float, default=None)
        sp.add_argument("--xmax", type=float, default=None)
        if name == "approx":
            sp.add_argument("--order", type=int, choices=tuple(asymptotics.LAMBDA_BY_ORDER),
                            help="single approximation order (default: all three)")
        sp.set_defaults(fn=fn, default_A=(20.0,))

    v = sub.add_parser("validate", help="run verification suites")
    _add_common(v, model=False)
    v.add_argument("--skip", action="append", choices=tuple(SUITES),
                   help="suite to skip (repeatable)")
    v.set_defaults(fn=cmd_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    grid = "grid" in args
    if "mu" in args:  # every command but validate
        thresholds = args.A or args.default_A
        if grid and len(thresholds) > 1:
            ap.error(f"--A may be given only once for {args.command}")
        try:
            args.params = [ModelParams(mu=args.mu, A=a) for a in thresholds]
            for p in args.params:
                _check_domain(p)
        except DomainError as exc:
            ap.error(str(exc))
    if grid:
        xmin = 0.0 if args.xmin is None else args.xmin
        xmax = args.params[0].A if args.xmax is None else args.xmax
        if not (args.grid >= 2 and -math.inf < xmin < xmax < math.inf):
            ap.error(f"bad grid specification [{xmin}, {xmax}] with {args.grid} points")
        args.xs = [xmin + (xmax - xmin) * i / (args.grid - 1) for i in range(args.grid)]
    try:  # opened before any computation, so a bad path costs none
        args.out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        ap.error(f"cannot write --out {args.out}: {exc.strerror}")
    try:
        return args.fn(args)
    except QsdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    finally:
        if args.out is not sys.stdout:
            args.out.close()


if __name__ == "__main__":
    sys.exit(main())
