"""Per-layer numbers for the traced run.

Three kinds of measurement feed the ``per_layer`` metrics:

* spans the traced workload recorded around its own calls into each module;
* for a span name the workload never opens (law-grid never calls the
  eigensolver directly, for instance), a small fallback probe on fixed
  inputs that opens it, so every traced run reports every layer metric;
* fixed-argument kernel probes (one per Whittaker branch, gamma, E1, G, L)
  and the CLI start-up split, which no workload reaches directly.
"""

from __future__ import annotations

import statistics
import sys
import time

from qsd_sr import (
    ModelParams,
    WhittakerIndex,
    build_approx,
    build_solution,
    cdf,
    exp_integral_e1,
    gamma_cx,
    lower_bound_l,
    meijer_g_special,
    mode,
    moments,
    pdf,
    simulate_killed_sr,
    sturm_liouville_eigen,
    whittaker_w_scaled,
)
from qsd_sr import cli as qsd_cli

from workloads import GOLDEN, GRID_POINTS, McOracle, _table_row, cli_grid, run_child

# Fixed arguments, one per branch of whittaker_w_scaled: the Kummer series
# with real and with imaginary index, the Richardson extrapolation near
# b = 0, and the large-z asymptotic series.  E1, G and L are probed at
# x = 0.1 = 2/(mu^2 A) for c = 20, where the asymptotics evaluate them.
_W_REAL, _W_IMAG, _W_B0 = WhittakerIndex(1, 0.3), WhittakerIndex(1, 0.4j), WhittakerIndex(1, 0.0)
KERNELS = {
    "specfun.w_series_real_us": lambda: whittaker_w_scaled(_W_REAL, 2.0),
    "specfun.w_series_imag_us": lambda: whittaker_w_scaled(_W_IMAG, 2.0),
    "specfun.w_b0_us": lambda: whittaker_w_scaled(_W_B0, 2.0),
    "specfun.w_asym_us": lambda: whittaker_w_scaled(_W_REAL, 40.0),
    "specfun.gamma_cx_us": lambda: gamma_cx(0.3 + 0.7j),
    "specfun.e1_us": lambda: exp_integral_e1(0.1),
    "specfun.g_us": lambda: meijer_g_special(0.1),
    "specfun.l_us": lambda: lower_bound_l(0.1),
}


def per_call_us(fn, repeats=7, min_batch_s=0.02):
    """Median over ``repeats`` batches of the time per call, each batch
    long enough (``min_batch_s``) for the clock to be irrelevant."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        n *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def kernel_metrics():
    return {name: (per_call_us(fn), "us") for name, fn in KERNELS.items()}


def startup_metrics(reps=5):
    """Fresh-interpreter start, ``import numpy`` and ``import qsd_sr``
    (numpy and scipy included), interleaved; imports are net of the bare
    interpreter's median."""
    argvs = {
        "interp": [sys.executable, "-c", "pass"],
        "numpy": [sys.executable, "-c", "import numpy"],
        "qsd_sr": [sys.executable, "-c", "import qsd_sr"],
    }
    times = {k: [] for k in argvs}
    for _ in range(reps):
        for k, argv in argvs.items():
            elapsed, code, text, _ = run_child(argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} failed: {text}")
            times[k].append(elapsed)
    med = {k: statistics.median(v) for k, v in times.items()}
    return {
        "cli.interp_start_s": (med["interp"], "s"),
        "cli.import_numpy_s": (med["numpy"] - med["interp"], "s"),
        "cli.import_qsd_sr_s": (med["qsd_sr"] - med["interp"], "s"),
    }


def cli_main_metrics(workdir, reps=3):
    """Warm, in-process ``qsd_sr.cli.main(argv)`` for the four commands."""
    out = str(workdir / "main.out")
    argvs = {
        "table": ["table"],
        "pdf": ["pdf", "--grid", str(GRID_POINTS)],
        "approx": ["approx", "--grid", str(GRID_POINTS)],
        "validate": ["validate", "--skip", "mc"],
    }
    result = {}
    for name, argv in argvs.items():
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            code = qsd_cli.main([*argv, "--out", out])
            samples.append(time.perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"qsd_sr.cli.main({argv}) returned {code}")
        result[f"cli.main_ms.{name}"] = (statistics.median(samples) * 1e3, "ms")
    return result


# Fallback probes: each opens the spans named with it, on fixed inputs.

def _probe_law(tr):
    for c in (2.0, 20.0, 200.0, 2000.0):
        p = ModelParams(mu=1.0, A=c)
        xs = cli_grid(p.A)
        with tr.span("qsd.build_solution"):
            sol = build_solution(p)
        with tr.span("qsd.pdf_points", points=len(xs)):
            [pdf(x, sol) for x in xs]
        with tr.span("qsd.cdf_points", points=len(xs)):
            [cdf(x, sol) for x in xs]
        with tr.span("qsd.mode"):
            mode(sol)
        with tr.span("qsd.moments"):
            moments(sol, 20)


def _probe_eigen(tr):
    for a in GOLDEN:
        _table_row(ModelParams(mu=1.0, A=a), tr)


def _probe_approx(tr):
    p = ModelParams(mu=1.0, A=20.0)
    xs = cli_grid(p.A)
    for order in (1, 2, 3):
        ap = build_approx(p, order)
        with tr.span(f"asymptotics.approx{order}_pdf_points", points=len(xs)):
            [ap.pdf(x) for x in xs]


def _probe_oracle(tr):
    # a tenth of the mc-oracle horizon keeps the probe near one second
    mc = McOracle
    paths, horizon = 2000, mc.HORIZON / 10.0
    steps = int(round(horizon / mc.DT))
    with tr.span("oracle.simulate_killed_sr", paths=paths, steps=steps) as sp:
        law = simulate_killed_sr(mc.PARAMS, r=mc.HEADSTART, dt=mc.DT, T=horizon,
                                 n_paths=paths, seed=1)
        sp.set(survivors=law.n_survivors)
    with tr.span("oracle.sturm_liouville_eigen", nodes=mc.SL_NODES):
        sturm_liouville_eigen(mc.PARAMS, mc.SL_NODES)


FALLBACKS = (
    (_probe_law, ("qsd.build_solution", "qsd.pdf_points", "qsd.cdf_points", "qsd.mode",
                  "qsd.moments")),
    (_probe_eigen, ("eigensolver.dominant_eigenvalue", "asymptotics.lambda_order2",
                    "asymptotics.lambda_order3")),
    (_probe_approx, tuple(f"asymptotics.approx{k}_pdf_points" for k in (1, 2, 3))),
    (_probe_oracle, ("oracle.simulate_killed_sr", "oracle.sturm_liouville_eigen")),
)


def run_fallbacks(tr):
    """Run each fallback probe whose spans the workload did not open;
    return the names of the probes that ran."""
    ran = []
    missing = [(fn, names) for fn, names in FALLBACKS if not all(tr.has(n) for n in names)]
    tr.source, tr.enabled = "probe", True
    for fn, _ in missing:
        with tr.span("probe", probe=fn.__name__):
            fn(tr)
        ran.append(fn.__name__)
    tr.enabled = False
    return ran


def span_metrics(tr):
    def attr_median(name, key):
        return statistics.median(s["attrs"][key] for s in tr.select(name))

    mode_ms = sorted(d * 1e3 for d in tr.durations("qsd.mode"))
    mc = tr.select("oracle.simulate_killed_sr")
    m = {
        "eigensolver.solve_ms": (tr.median("eigensolver.dominant_eigenvalue", 1e3), "ms"),
        "eigensolver.w_evals_per_solve": (attr_median("eigensolver.dominant_eigenvalue", "iterations"), "count"),
        "qsd.build_solution_ms": (tr.median("qsd.build_solution", 1e3), "ms"),
        "qsd.pdf_us_per_point": (tr.per_unit("qsd.pdf_points", "points", 1e6), "us"),
        "qsd.cdf_us_per_point": (tr.per_unit("qsd.cdf_points", "points", 1e6), "us"),
        "qsd.moments_us": (tr.median("qsd.moments", 1e6), "us"),
        "qsd.mode_ms_p50": (percentile(mode_ms, 50), "ms"),
        "qsd.mode_ms_p90": (percentile(mode_ms, 90), "ms"),
        "asymptotics.lambda_order2_us": (tr.median("asymptotics.lambda_order2", 1e6), "us"),
        "asymptotics.lambda_order3_us": (tr.median("asymptotics.lambda_order3", 1e6), "us"),
        "oracle.mc_s": (tr.median("oracle.simulate_killed_sr"), "s"),
        "oracle.mc_path_steps_per_s": (statistics.median(
            s["attrs"]["paths"] * s["attrs"]["steps"] / (s["end"] - s["start"]) for s in mc), "1/s"),
        "oracle.mc_survivors": (attr_median("oracle.simulate_killed_sr", "survivors"), "count"),
        "oracle.sl_ms": (tr.median("oracle.sturm_liouville_eigen", 1e3), "ms"),
        "oracle.sl_ns_per_node": (tr.per_unit("oracle.sturm_liouville_eigen", "nodes", 1e9), "ns"),
    }
    for k in (1, 2, 3):
        m[f"asymptotics.approx{k}_pdf_us_per_point"] = (
            tr.per_unit(f"asymptotics.approx{k}_pdf_points", "points", 1e6), "us")
    return m


def percentile(values, q):
    """Linear-interpolation percentile of a non-empty sequence."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)
