"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop from one client: the next task starts when
the previous one has returned.  Work is cut into rounds, each a fixed unit
drawn from the workload seed and the round index, so the same seed always
gives the same inputs.  ``round(k, tracer)`` runs round ``k`` and yields one
:class:`Task` per unit of user work, with its latency and the checks it
failed; the runner may do its own work between tasks.  Only calls into
``qsd_sr`` are timed; checks run outside the timed region.

law-grid     one task = one exact law (solve, pdf and cdf on the CLI's
             1000-point grid, mode, 20 moments) for a distinct c = mu^2 A.
             Exercises W at many z for one index; the grid loops and the
             mode dominate.
eigen-sweep  one task = one ``qsd-sr table`` row (exact eigenvalue plus the
             order-1/2/3 approximations) over a geometric mu x A design in
             which each c recurs about 4.4 times.  Exercises W at one z for
             about 100 indices; the eigen-scan dominates.
mc-oracle    one task = one Monte-Carlo batch at the criterion-9 arguments,
             its KS distance to the exact cdf, and one grid eigenproblem.
             The only workload where random draws and workers matter.
cli-cold     one task = one fresh ``python -m qsd_sr.cli`` process
             (table, pdf, approx, validate --skip mc in turn).  Start-up
             and the quadrature-based approximate grid dominate.
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from speed import ColdStartGauge, SpeedGauge

from qsd_sr import (
    ModelParams,
    ThresholdTooSmallError,
    build_approx,
    build_solution,
    cdf,
    dominant_eigenvalue,
    eigen_bracket,
    lambda_order1,
    lambda_order2,
    lambda_order3,
    mode,
    moments,
    pdf,
    simulate_killed_sr,
    sturm_liouville_eigen,
)
from qsd_sr import cli as qsd_cli

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "_out"

# The benchmark's own copy of the golden table (mu = 1, twelve decimals):
# A -> (-lambda, -lambda_order1, -lambda_order2, -lambda_order3).  Kept here
# so that a change to the program's copy cannot move the expected values.
GOLDEN = {
    20.0: (0.058856148622, 0.05, 0.059819055496, 0.058817735494),
    30.0: (0.037786534271, 0.033333333333, 0.03811217223, 0.03777661428),
    40.0: (0.027727324417, 0.025, 0.027880519395, 0.027723505394),
    50.0: (0.02186160095, 0.02, 0.021947421685, 0.02185977578),
    100.0: (0.010563106075, 0.01, 0.010577520296, 0.010562921283),
    500.0: (0.002033066472, 0.002, 0.002033295282, 0.002033065611),
    1000.0: (0.0010095172, 0.001, 0.001009554734, 0.001009517118),
    10000.0: (0.000100139278, 0.0001, 0.000100139359, 0.000100139278),
}
GOLDEN_TOL = (1e-10, 1e-9, 1e-9, 1e-9)
# Orders 2 and 3 exist at every golden row, and the c they fail at only
# shrinks as c grows, so a ThresholdTooSmallError at c >= 20 is a failure.
TOO_SMALL_C_MAX = 20.0
GRID_POINTS = 1000  # the CLI's default --grid
GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0

# salts keep the workloads' random streams apart for one seed
_SALT = {"law-grid": 1, "eigen-sweep": 2, "mc-oracle": 3, "cli-cold": 4}


@dataclass
class Task:
    latency_s: float
    problems: list = field(default_factory=list)


def _rng(name, seed, *keys):
    return np.random.default_rng([_SALT[name], seed, *keys])


def cli_grid(A, n=GRID_POINTS):
    """The grid ``qsd-sr pdf --grid n`` writes, point for point."""
    return [0.0 + (A - 0.0) * i / (n - 1) for i in range(n)]


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


def _check_golden_row(A, values, problems, golden=GOLDEN):
    """``values`` are (-lam, -lam1, -lam2, -lam3) as the program gave them."""
    for k, (got, ref, tol) in enumerate(zip(values, golden[A], GOLDEN_TOL)):
        if not abs(got - ref) <= tol:
            problems.append(f"golden A={A:g} column {k}: {got!r} vs {ref!r} (tol {tol:g})")


def _table_row(p, tr):
    """One ``qsd-sr table`` row: the exact eigenvalue and the three
    approximations, None where an order raises ThresholdTooSmallError."""
    with tr.span("eigensolver.dominant_eigenvalue") as sp:
        eig = dominant_eigenvalue(p)
        sp.set(iterations=eig.iterations)
    with tr.span("asymptotics.lambda_order1"):
        l1 = lambda_order1(p)
    approx = []
    for order, fn in ((2, lambda_order2), (3, lambda_order3)):
        with tr.span(f"asymptotics.lambda_order{order}"):
            try:
                approx.append(fn(p))
            except ThresholdTooSmallError:
                approx.append(None)
    return eig, l1, approx[0], approx[1]


def _check_table_row(p, row, problems, golden=GOLDEN):
    eig, l1, l2, l3 = row
    br = eigen_bracket(p)
    if not (br.lo <= eig.lam <= br.hi):
        problems.append(f"lam {eig.lam!r} outside bracket [{br.lo!r}, {br.hi!r}]")
    if l1 != -1.0 / p.A:
        problems.append(f"order-1 {l1!r} != -1/A")
    c = p.mu2 * p.A
    for order, lk in ((2, l2), (3, l3)):
        if lk is None and c >= TOO_SMALL_C_MAX:
            problems.append(f"order {order} raised ThresholdTooSmallError at c={c:g}")
    if p.mu == 1.0 and p.A in golden:
        if l2 is None or l3 is None:
            problems.append(f"golden A={p.A:g}: an approximation is missing")
        else:
            _check_golden_row(p.A, (-eig.lam, -l1, -l2, -l3), problems, golden)


class LawGrid:
    """Exact laws at seeded (mu, A), mu log-uniform in [0.5, 2] and A
    log-uniform in [5, 2000], so c = mu^2 A lies in [1.25, 8000].

    Cost depends on c alone and grows steeply at large c (the mode rescans),
    so each round of 21 laws draws log c stratified (one point in each of 21
    equal-probability strata of its trapezoidal law) and then log mu from its
    law given c.  The pair keeps exactly the independent log-uniform law,
    while every round holds the same mix of cheap and expensive laws.  The
    place inside each stratum steps by the golden ratio from round to round
    (from a seeded start), so a run's rounds together fill every stratum
    evenly and its latency percentiles sit at nearly the same c each run."""

    name = "law-grid"
    GAUGE = SpeedGauge
    TASKS_PER_ROUND = 21
    LOG_A = (math.log(5.0), math.log(2000.0))
    LOG_MU2 = (2.0 * math.log(0.5), 2.0 * math.log(2.0))

    def __init__(self, seed):
        self.seed = seed

    @classmethod
    def log_c_quantile(cls, u):
        """Inverse cdf of log c = log A + log mu^2, a sum of two uniforms."""
        w1 = cls.LOG_A[1] - cls.LOG_A[0]
        w2 = cls.LOG_MU2[1] - cls.LOG_MU2[0]
        lo = cls.LOG_A[0] + cls.LOG_MU2[0]
        if w2 > w1:
            w1, w2 = w2, w1
        corner = w2 / (2.0 * w1)
        if u <= corner:
            t = math.sqrt(2.0 * w1 * w2 * u)
        elif u <= 1.0 - corner:
            t = u * w1 + 0.5 * w2
        else:
            t = w1 + w2 - math.sqrt(2.0 * w1 * w2 * (1.0 - u))
        return lo + t

    def params(self, k):
        n = self.TASKS_PER_ROUND
        start = _rng(self.name, self.seed).random(n)
        rng = _rng(self.name, self.seed, k)
        out = []
        for i in rng.permutation(n):
            log_c = self.log_c_quantile((i + (start[i] + k * GOLDEN_RATIO) % 1.0) / n)
            # given c, log mu^2 is uniform on the part of its range that
            # keeps log A = log c - log mu^2 inside [5, 2000]
            lo = max(self.LOG_MU2[0], log_c - self.LOG_A[1])
            hi = min(self.LOG_MU2[1], log_c - self.LOG_A[0])
            log_mu2 = lo + (hi - lo) * rng.random()
            out.append(ModelParams(mu=math.exp(0.5 * log_mu2), A=math.exp(log_c - log_mu2)))
        return out

    def round(self, k, tr):
        for p in self.params(k):
            yield self._task(p, tr)

    traced_round = round

    def _task(self, p, tr):
        xs = cli_grid(p.A)
        t0 = time.perf_counter()
        try:
            with tr.span("qsd.build_solution"):
                sol = build_solution(p)
            with tr.span("qsd.pdf_points", points=len(xs)):
                q = [pdf(x, sol) for x in xs]
            with tr.span("qsd.cdf_points", points=len(xs)):
                Q = [cdf(x, sol) for x in xs]
            with tr.span("qsd.mode"):
                m = mode(sol)
            with tr.span("qsd.moments"):
                ms = moments(sol, 20)
        except Exception as exc:  # a failed task is counted, the run goes on
            return Task(time.perf_counter() - t0, [_error(exc)])
        task = Task(time.perf_counter() - t0)
        self.check(p, sol, xs, q, Q, m, ms, task.problems)
        return task

    @staticmethod
    def check(p, sol, xs, q, Q, m, ms, problems):
        A = p.A
        if cdf(A, sol) != 1.0 or not abs(Q[-1] - 1.0) <= 1e-9:
            problems.append(f"cdf(A) = {cdf(A, sol)!r}, grid end {Q[-1]!r}")
        # 1e-12 of slack: just below A the closed form rounds to 1 + 2e-16
        if not all(-1e-12 <= v <= 1.0 + 1e-12 for v in Q):
            problems.append(f"cdf leaves [0, 1]: min {min(Q)!r}, max {max(Q)!r}")
        if any(b < a - 1e-12 for a, b in zip(Q, Q[1:])):
            problems.append("cdf decreases on the grid")
        qmax = max(q)
        if not qmax > 0.0 or min(q) < -1e-12 * qmax:
            problems.append(f"pdf negative: min {min(q)!r}, max {qmax!r}")
        if not 0.0 < m < A:
            problems.append(f"mode {m!r} not interior to (0, {A!r})")
        elif pdf(m, sol) < qmax * (1.0 - 1e-12):
            problems.append(f"pdf(mode) {pdf(m, sol)!r} below grid maximum {qmax!r}")
        lam = sol.se.lam
        if not abs(ms[1] - (A + 1.0 / lam)) <= 1e-9 * A:
            problems.append(f"M1 {ms[1]!r} != A + 1/lam {A + 1.0 / lam!r}")
        br = eigen_bracket(p)
        if not br.lo <= lam <= br.hi:
            problems.append(f"lam {lam!r} outside bracket [{br.lo!r}, {br.hi!r}]")

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class EigenSweep:
    """Seeded studies: mu = mu0 2^(i/2), i = 0..6, and A = A0 2^(j/4),
    j = 0..39, with mu0 log-uniform in [0.5, 1) and A0 in [5, 10).  So
    c = mu0^2 A0 2^((4i + j)/4) takes 64 values, each about 4.4 times, and a
    continuous random c0 = mu0^2 A0 keeps studies from sharing any c.  Round
    0 adds the eight golden mu = 1 rows once.  Checks: golden rows; the
    scaling law lam(mu, A) = mu^2 lam(1, c) across points sharing c (also for
    orders 2 and 3, which depend on c alone); lam(1, c) increasing in c."""

    name = "eigen-sweep"
    GAUGE = SpeedGauge
    SCALE_RTOL = 1e-9

    def __init__(self, seed, golden=None):
        self.seed = seed
        self.golden = GOLDEN if golden is None else golden

    def points(self, k):
        rng = _rng(self.name, self.seed, k)
        mu0 = 0.5 * 2.0 ** rng.random()
        A0 = 5.0 * 2.0 ** rng.random()
        pts = [(4 * i + j, ModelParams(mu=mu0 * 2.0 ** (i / 2), A=A0 * 2.0 ** (j / 4)))
               for i in range(7) for j in range(40)]
        pts = [pts[j] for j in rng.permutation(len(pts))]
        if k == 0:
            pts += [(None, ModelParams(mu=1.0, A=a)) for a in self.golden]
        return pts

    def round(self, k, tr):
        groups = {}
        for key, p in self.points(k):
            t0 = time.perf_counter()
            try:
                row = _table_row(p, tr)
            except Exception as exc:  # a failed task is counted, the run goes on
                yield Task(time.perf_counter() - t0, [_error(exc)])
                continue
            task = Task(time.perf_counter() - t0)
            yield task
            _check_table_row(p, row, task.problems, self.golden)
            if key is not None:
                groups.setdefault(key, []).append((p, row, task))
        # marks tasks already handed out; the runner counts failures only
        # after the round has ended
        self._check_scaling(groups)

    traced_round = round

    def _check_scaling(self, groups):
        reduced = []
        for key in sorted(groups):
            members = groups[key]
            for col in range(4):
                if col == 1:
                    continue  # order 1 is -1/A, checked per task
                values = [row[col].lam if col == 0 else row[col] for _, row, _ in members]
                if any(v is None for v in values):
                    if not all(v is None for v in values):
                        for _, _, task in members:
                            task.problems.append(f"c-group {key}: order {col} raises for some points only")
                    continue
                scaled = [v / p.mu2 for v, (p, _, _) in zip(values, members)]
                ref = scaled[0]
                for s, (_, _, task) in zip(scaled, members):
                    if not abs(s - ref) <= self.SCALE_RTOL * abs(ref):
                        task.problems.append(
                            f"c-group {key} column {col}: lam/mu^2 {s!r} vs {ref!r}")
                if col == 0:
                    reduced.append((key, ref, members))
        for (k1, r1, _), (k2, r2, members) in zip(reduced, reduced[1:]):
            if not r2 > r1:
                for _, _, task in members:
                    task.problems.append(f"lam(1, c) not increasing between c-groups {k1} and {k2}")

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class McOracle:
    """One grid eigenproblem with 2e5 nodes, then the criterion-9 arguments
    (mu = 1, A = 20, r = 5, dt = 1e-3, T = 18) with 10k paths per task and a
    per-task seed drawn from the workload seed, and the KS distance of the
    survivors to the exact cdf.

    KS must stay below the DKW bound for the survivor count at alpha = 1e-6
    per task.  With several tasks in each of hundreds of runs, alpha = 1e-3
    would flag a correct program now and then; 1e-6 keeps the chance of a
    false alarm over a whole campaign below one in a thousand and still
    fails any cdf or simulator defect that shifts the law by more than a few
    percent."""

    name = "mc-oracle"
    GAUGE = SpeedGauge
    PARAMS = ModelParams(mu=1.0, A=20.0)
    HEADSTART, DT, HORIZON = 5.0, 1e-3, 18.0
    PATHS = 10_000
    SL_NODES = 200_000
    KS_ALPHA = 1e-6
    SL_RTOL = 1e-4

    def __init__(self, seed):
        self.seed = seed
        self.sol = build_solution(self.PARAMS)

    def mc_seed(self, k):
        return int(_rng(self.name, self.seed, k).integers(2**62))

    def round(self, k, tr):
        p = self.PARAMS
        n_steps = int(round(self.HORIZON / self.DT))
        t0 = time.perf_counter()
        try:
            # the grid eigenproblem goes first: its BLAS worker threads keep
            # spinning on the other core for a while after it returns, and
            # would slow the speed gauge's reference run after the task
            with tr.span("oracle.sturm_liouville_eigen", nodes=self.SL_NODES):
                grid_sol = sturm_liouville_eigen(p, self.SL_NODES)
            with tr.span("oracle.simulate_killed_sr", paths=self.PATHS, steps=n_steps) as sp:
                law = simulate_killed_sr(p, r=self.HEADSTART, dt=self.DT, T=self.HORIZON,
                                         n_paths=self.PATHS, seed=self.mc_seed(k))
                sp.set(survivors=law.n_survivors)
            with tr.span("qsd.cdf_points", points=law.samples.size):
                cdf_vals = [cdf(float(v), self.sol) for v in law.samples]
        except Exception as exc:  # a failed task is counted, the run goes on
            yield Task(time.perf_counter() - t0, [_error(exc)])
            return
        task = Task(time.perf_counter() - t0)
        n = law.samples.size
        c = np.asarray(cdf_vals)
        i = np.arange(1, n + 1)
        ks = float(max(np.max(np.abs(i / n - c)), np.max(np.abs((i - 1) / n - c))))
        dkw = math.sqrt(math.log(2.0 / self.KS_ALPHA) / (2.0 * n))
        if not ks < dkw:
            task.problems.append(f"KS {ks:.4g} >= DKW bound {dkw:.4g} for {n} survivors")
        lam = self.sol.se.lam
        rel = abs(grid_sol.lambda_hat - lam) / abs(lam)
        if not rel <= self.SL_RTOL:
            task.problems.append(f"SL eigenvalue relative error {rel:.3g}")
        yield task

    traced_round = round

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cli_env():
    """Environment for a CLI child: the package from ``src`` (it is not
    installed), nothing else changed."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, timeout=120.0):
    """Run ``argv`` to completion; return (seconds from spawn to exit, exit
    code, combined output, peak RSS of the child in MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    # os.wait4 gives this child's own peak RSS but takes no timeout
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return elapsed, proc.returncode, out.decode(errors="replace"), usage.ru_maxrss / 1024.0


def warm_up_cli(workdir):
    """One untimed CLI run, so that bytecode compilation of the package is
    not timed."""
    _, code, text, _ = run_child([sys.executable, "-m", "qsd_sr.cli", "table",
                                  "--out", str(workdir / "warm.csv")])
    if code != 0:
        raise RuntimeError(f"warm-up CLI run failed with exit code {code}: {text}")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class CliCold:
    """Fresh-process CLI runs, round-robin over ``table``, ``pdf --grid
    1000``, ``approx --grid 1000`` and ``validate --skip mc``, each writing
    with ``--out`` to a file.  pdf and approx take a seeded (mu, A), mu
    log-uniform in [0.8, 1.25] and A in [20, 80], where every approximation
    order exists.  The traced run replays the same commands' library calls
    in this process instead, so that they can be given spans."""

    name = "cli-cold"
    GAUGE = ColdStartGauge
    COMMANDS = ("table", "pdf", "approx", "validate")

    def __init__(self, seed):
        self.seed = seed
        self.workdir = None  # where the commands write; the runner sets it
        self.child_rss_mb = 0.0

    def params(self, k):
        u = _rng(self.name, self.seed, k).random(2)
        return ModelParams(mu=float(0.8 * 1.5625 ** u[0]), A=float(20.0 * 4.0 ** u[1]))

    def argv(self, command, p):
        if command == "table":
            return ["table"]
        if command == "validate":
            return ["validate", "--skip", "mc"]
        return [command, "--mu", repr(p.mu), "--A", repr(p.A), "--grid", str(GRID_POINTS)]

    def round(self, k, tr):
        p = self.params(k)
        outputs = {}
        for command in self.COMMANDS:
            out = self.workdir / f"{command}.out"
            argv = [sys.executable, "-m", "qsd_sr.cli", *self.argv(command, p), "--out", str(out)]
            try:
                elapsed, code, text, rss = run_child(argv)
            except (OSError, subprocess.SubprocessError) as exc:
                yield Task(0.0, [_error(exc)])
                continue
            self.child_rss_mb = max(self.child_rss_mb, rss)
            task = Task(elapsed)
            if code != 0:
                task.problems.append(f"{command}: exit code {code}: {text.strip()[-300:]}")
            else:
                try:
                    outputs[command] = self.check(command, p, out, outputs, task.problems)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    task.problems.append(f"{command}: unreadable output: {_error(exc)}")
            yield task

    def check(self, command, p, path, outputs, problems):
        if command == "validate":
            with open(path) as fh:
                report = json.load(fh)
            if report["n_failed"] != 0:
                problems.append(f"validate: n_failed = {report['n_failed']}")
            if not any(c["status"] == "pass" for c in report["checks"]):
                problems.append("validate: no check passed")
            return report
        header, rows = read_csv(path)
        if command == "table":
            by_a = {float(r[0]): [float(v) for v in r[1:]] for r in rows}
            for a in GOLDEN:
                if a not in by_a:
                    problems.append(f"table: no row for A={a:g}")
                else:
                    _check_golden_row(a, by_a[a], problems)
            return by_a
        vals = np.array([[float(v) for v in r] for r in rows])
        xs = np.array(cli_grid(p.A))
        if vals.shape[0] != GRID_POINTS or not np.array_equal(vals[:, 0], xs):
            problems.append(f"{command}: grid differs from the requested one")
            return rows
        q = vals[:, 1]
        if q.min() < -1e-12 * q.max():
            problems.append(f"{command}: negative density {q.min()!r}")
        mass = float(np.trapezoid(q, xs))
        if not abs(mass - 1.0) <= 1e-3:
            problems.append(f"{command}: density integrates to {mass!r}")
        if command == "approx":
            want = ["x", "q", "q_approx1", "q_approx2", "q_approx3",
                    "abs_err1", "abs_err2", "abs_err3"]
            if header != want:
                problems.append(f"approx: columns {header}")
                return rows
            if "pdf" in outputs and [r[1] for r in rows] != [r[1] for r in outputs["pdf"]]:
                problems.append("approx: exact column differs from the pdf command's")
            err = np.abs(q[:, None] - vals[:, 2:5])
            if not np.allclose(err, vals[:, 5:8], rtol=1e-12, atol=1e-300):
                problems.append("approx: abs_err columns are not |q - q_approx|")
            for j in range(3):
                m = float(np.trapezoid(vals[:, 2 + j], xs))
                if not abs(m - 1.0) <= 0.05:
                    problems.append(f"approx: order-{j + 1} density integrates to {m!r}")
        return rows

    def traced_round(self, k, tr):
        """The library calls the four commands make, in this process."""
        p = self.params(k)
        t0 = time.perf_counter()
        try:
            rows = {a: _table_row(ModelParams(mu=1.0, A=a), tr) for a in GOLDEN}
        except Exception as exc:  # a failed task is counted, the run goes on
            yield Task(time.perf_counter() - t0, [_error(exc)])
        else:
            task = Task(time.perf_counter() - t0)
            for a, row in rows.items():
                _check_table_row(ModelParams(mu=1.0, A=a), row, task.problems)
            yield task

        xs = cli_grid(p.A)
        for command in ("pdf", "approx"):
            t0 = time.perf_counter()
            try:
                with tr.span("qsd.build_solution"):
                    sol = build_solution(p)
                with tr.span("qsd.pdf_points", points=len(xs)):
                    q = [pdf(x, sol) for x in xs]
                approx = []
                if command == "approx":
                    for order in (1, 2, 3):
                        with tr.span("asymptotics.build_approx", order=order):
                            ap = build_approx(p, order)
                        with tr.span(f"asymptotics.approx{order}_pdf_points", points=len(xs)):
                            approx.append([ap.pdf(x) for x in xs])
            except Exception as exc:  # a failed task is counted, the run goes on
                yield Task(time.perf_counter() - t0, [_error(exc)])
                continue
            task = Task(time.perf_counter() - t0)
            for dens in [q, *approx]:
                mass = float(np.trapezoid(dens, xs))
                tol = 1e-3 if dens is q else 0.05
                if not abs(mass - 1.0) <= tol:
                    task.problems.append(f"{command}: density integrates to {mass!r}")
            yield task

        out = self.workdir / "validate.json"
        t0 = time.perf_counter()
        try:
            with tr.span("cli.main", command="validate"):
                code = qsd_cli.main(["validate", "--skip", "mc", "--out", str(out)])
            task = Task(time.perf_counter() - t0)
            if code != 0:
                task.problems.append(f"validate: exit code {code}")
            else:
                self.check("validate", p, out, {}, task.problems)
        except Exception as exc:  # a failed task is counted, the run goes on
            task = Task(time.perf_counter() - t0, [_error(exc)])
        yield task

    def peak_rss_mb(self):
        return self.child_rss_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (LawGrid, EigenSweep, McOracle, CliCold)}
