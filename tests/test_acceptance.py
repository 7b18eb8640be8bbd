"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest -s`` to see them on success).

Criteria 1, 2, 6 and 8 and the boundary flux of criterion 4 assert on the
results of the check registry behind ``qsd-sr validate``: each holds the
residuals to its own tolerance and requires the registry's to be no looser."""

import time

import numpy as np
from scipy.integrate import quad

from conftest import REFERENCE_TABLE
from oracles import count_slope_sign_changes, ks_distance, two_sample_ks
from qsd_sr import (
    ModelParams,
    WhittakerIndex,
    build_solution,
    cdf,
    dominant_eigenvalue,
    eigen_bracket,
    lambda_order1,
    lambda_order2,
    lambda_order3,
    moments,
    pdf,
    simulate_killed_sr,
    variance,
    whittaker_expansion3,
    whittaker_w,
)
from qsd_sr.checks import SUITES
from qsd_sr.eigensolver import _index_b

GRID_POINTS = 10_000
EXACT_LAW_SWEEP = [(mu, A) for mu in (0.5, 1.0, 1.5) for A in (5.0, 20.0, 100.0)]


def report(criterion, failures, elapsed, budget, detail=""):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({elapsed:.1f}s/{budget:.0f}s) {detail}")
    assert not failures, failures
    assert elapsed <= budget, f"{criterion} exceeded runtime budget: {elapsed:.1f}s"


def registry_failures(group, names, tol):
    """Run the registry's ``group`` suite and hold the residuals and the
    tolerances of its checks ``names`` to ``tol``: (failures, worst residual)."""
    checks = {c["name"]: c for c in SUITES[group]()}
    found = [checks.get(n, {"name": n, "residual": np.nan, "tolerance": np.nan}) for n in names]
    failures = [f"{c['name']}: residual {c['residual']:.3e}, registry tolerance "
                f"{c['tolerance']:g}, limit {tol:g}"
                for c in found if not (c["residual"] <= tol and c["tolerance"] <= tol)]
    return failures, max(c["residual"] for c in found)


def test_criterion_1_eigenvalue_table():
    t0 = time.perf_counter()
    failures, worst = registry_failures(
        "exact", [f"eigenvalue_A{A}" for A in REFERENCE_TABLE], 1e-10)
    report("1 (eigenvalue table, 1e-10)", failures, time.perf_counter() - t0, 10.0,
           f"worst {worst:.2e}")


def test_criterion_2_approximation_table():
    t0 = time.perf_counter()
    failures, worst = registry_failures(
        "exact", [f"lambda_order{k}_A{A}" for A in REFERENCE_TABLE for k in (1, 2, 3)], 1e-9)
    report("2 (approximation table, 1e-9)", failures, time.perf_counter() - t0, 5.0,
           f"worst {worst:.2e}")


def test_criterion_3_accuracy_ordering():
    t0 = time.perf_counter()
    failures = []
    for A, refs in REFERENCE_TABLE.items():
        p = ModelParams(mu=1.0, A=float(A))
        lam = dominant_eigenvalue(p).lam
        errs = [abs(lam - lo) for lo in (lambda_order1(p), lambda_order2(p), lambda_order3(p))]
        if not errs[2] <= errs[1] <= errs[0]:
            failures.append(f"A={A}: error ordering violated {errs}")
    report("3 (accuracy ordering)", failures, time.perf_counter() - t0, 10.0)


def test_criterion_4_exact_law_properties():
    t0 = time.perf_counter()
    failures = []
    for mu, A in EXACT_LAW_SWEEP:
        tag = f"mu={mu},A={A:g}"
        sol = build_solution(ModelParams(mu=mu, A=A))
        total, _ = quad(lambda x: pdf(x, sol), 0.0, A, epsabs=1e-11, epsrel=1e-11, limit=400)
        if abs(total - 1.0) > 1e-8:
            failures.append(f"{tag}: normalization off by {abs(total - 1.0):.2e}")
        if cdf(A, sol) != 1.0:
            failures.append(f"{tag}: cdf(A) != 1")
        xs = np.linspace(0.0, A, GRID_POINTS)
        cdf_vals = [cdf(float(x), sol) for x in xs]
        if not all(b >= a for a, b in zip(cdf_vals, cdf_vals[1:])):
            failures.append(f"{tag}: cdf not monotone")
        pdf_vals = [pdf(float(x), sol) for x in xs]
        if not all(v > 0.0 for v in pdf_vals[1:-1] if v != 0.0):
            failures.append(f"{tag}: negative density inside the support")
        interior = [pdf(float(x), sol) for x in np.linspace(0.05 * A, 0.95 * A, 100)]
        if min(interior) <= 0.0:
            failures.append(f"{tag}: density vanishes inside the support")
        if count_slope_sign_changes(pdf_vals) != 1:
            failures.append(
                f"{tag}: {count_slope_sign_changes(pdf_vals)} slope sign changes"
            )
    failures += registry_failures(
        "exact", [f"boundary_flux_mu{mu}_A{A:g}" for mu, A in EXACT_LAW_SWEEP], 1e-5)[0]
    report("4 (exact-law properties)", failures, time.perf_counter() - t0, 60.0)


def test_criterion_5_moments():
    t0 = time.perf_counter()
    failures = []
    sol = build_solution(ModelParams(mu=1.0, A=20.0))
    lam, A = sol.se.lam, 20.0
    ms = moments(sol, 20)
    for n in range(1, 21):
        resid = ms[n] * (0.5 * n * (n - 1) - lam) + n * ms[n - 1] + lam * A**n
        if abs(resid) > 1e-12 * abs(lam) * A**n:
            failures.append(f"recurrence residual at n={n}: {resid:.2e}")
    if abs(ms[1] - (A + 1.0 / lam)) > 1e-12 * abs(ms[1]):
        failures.append("first moment closed form")
    if abs((ms[2] - ms[1] ** 2) - variance(sol)) > 1e-11 * abs(variance(sol)):
        failures.append("variance closed form")
    if variance(sol) < 0.0:
        failures.append("negative variance")
    br = eigen_bracket(sol.params)
    if not (br.lo <= lam <= br.hi):
        failures.append("eigenvalue outside the variance bracket")
    for n in range(1, 6):
        mq, _ = quad(lambda x: x**n * pdf(x, sol), 0.0, A, epsabs=1e-12, epsrel=1e-10, limit=400)
        if abs(ms[n] - mq) / abs(mq) > 1e-6:
            failures.append(f"moment {n} vs quadrature: {abs(ms[n] - mq) / abs(mq):.2e}")
    report("5 (moments)", failures, time.perf_counter() - t0, 30.0)


def test_criterion_6_index_derivative_identities():
    t0 = time.perf_counter()
    failures, _ = registry_failures(
        "identities", [f"index_derivative_k{k}_x{x:g}" for k in (1, 2, 3) for x in (0.5, 2.0, 10.0)],
        1e-5)
    report("6 (index-derivative identities)", failures, time.perf_counter() - t0, 30.0)


def test_criterion_7_expansion_order():
    t0 = time.perf_counter()
    p = ModelParams(mu=1.0, A=20.0)
    x = 10.0

    def err(lam):
        exact = whittaker_w(WhittakerIndex(1, _index_b(lam, 1.0)), 2.0 / x)
        return abs(whittaker_expansion3(x, lam, p) - exact)

    ratio = err(-0.01) / err(-0.005)
    failures = [] if 8.0 <= ratio <= 32.0 else [f"error ratio {ratio:.2f} outside [8, 32]"]
    report("7 (fourth-order truncation scaling)", failures, time.perf_counter() - t0,
           30.0, f"ratio {ratio:.1f}")


def test_criterion_8_discretized_oracle_agreement():
    t0 = time.perf_counter()
    failures, worst = registry_failures(
        "sl", ["sl_eigenvalue_relative", "sl_density_sup_deviation"], 1e-4)
    report("8 (discretized eigenproblem oracle)", failures, time.perf_counter() - t0,
           60.0, f"worst of eigenvalue and density sup {worst:.1e}")


def test_criterion_9_monte_carlo():
    t0 = time.perf_counter()
    failures = []
    p = ModelParams(mu=1.0, A=20.0)
    sol = build_solution(p)

    laws = {
        r: simulate_killed_sr(p, r=r, dt=1e-3, T=18.0, n_paths=200_000, seed=20260810 + int(r))
        for r in (0.0, 5.0, 15.0)
    }
    ks = ks_distance(laws[5.0].samples, lambda v: cdf(v, sol))
    if ks > 0.01:
        failures.append(f"KS distance {ks:.4f} > 0.01")
    pair_stats = {}
    for ra, rb in ((0.0, 5.0), (0.0, 15.0), (5.0, 15.0)):
        d2 = two_sample_ks(laws[ra].samples, laws[rb].samples)
        pair_stats[(ra, rb)] = d2
        if d2 > 0.01:
            failures.append(f"headstart dependence r={ra} vs r={rb}: KS {d2:.4f} > 0.01")

    lam = sol.se.lam
    horizons = (12.0, 15.0, 18.0)
    counts = [
        simulate_killed_sr(p, r=5.0, dt=1e-3, T=t, n_paths=100_000, seed=77).n_survivors
        for t in horizons
    ]
    slope = float(np.polyfit(horizons, np.log(counts), 1)[0])
    if abs(slope - lam) / abs(lam) > 0.1:
        failures.append(f"survivor-decay slope {slope:.4f} vs eigenvalue {lam:.4f}")

    elapsed = time.perf_counter() - t0
    report(
        "9 (Monte-Carlo agreement)", failures, elapsed, 300.0,
        f"KS {ks:.4f}, pairwise max {max(pair_stats.values()):.4f}, "
        f"decay slope {slope:.4f} vs {lam:.4f}",
    )
