"""The checks behind ``qsd-sr validate``, each written once.

:data:`SUITES` maps each group to its suite, in report order: ``exact`` (the
golden table :data:`REFERENCE_TABLE` at mu = 1, then normalization and
boundary flux on a (mu, A) sweep), ``identities`` (the integral identity
behind the cdf, the index-derivative identities and the tail form of ``G``),
``sl`` (the discretized eigenproblem) and ``mc`` (the Monte-Carlo KS
distance).  A suite takes no arguments: every setting a check depends on is
a constant here, which no option can change.  It yields report entries, each
passing when its residual is at most its tolerance.  The oracles, and numpy
with them, load only when a suite runs.
"""

from __future__ import annotations

import math

from . import asymptotics, qsd
from .eigensolver import dominant_eigenvalue
from .errors import ThresholdTooSmallError
from .specfun import ModelParams, exp_scaled_e1, meijer_g_special

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

# largest accepted deviation from the golden table, per column of
# neg_lambda_row: the eigenvalue, then its order-1/2/3 approximations
GOLDEN_TOL = (1e-10, 1e-9, 1e-9, 1e-9)

# the Monte-Carlo suite's model, headstart, seed, paths, step and horizon; its
# KS bound 0.01 fits the ~62k survivors (an exact simulator fails it w.p. 8e-6)
MC_PARAMS, MC_HEADSTART = ModelParams(mu=1.0, A=20.0), 5.0
MC_SEED, MC_PATHS, MC_DT, MC_HORIZON = 20260810, 200000, 1e-3, 18.0


def neg_lambda_row(params):
    """[-lam, -lam*, -lam**, -lam***] at ``params``; nan for an order whose
    truncation has no admissible root."""
    row = [-dominant_eigenvalue(params).lam]
    for lambda_order in asymptotics.LAMBDA_BY_ORDER.values():
        try:
            row.append(-lambda_order(params))
        except ThresholdTooSmallError:
            row.append(math.nan)
    return row


def golden_comparison(params, row):
    """(reference, |value - reference|) for each value of a
    :func:`neg_lambda_row` at ``params``; empty where the golden table has no
    row.  The table is at mu = 1 and lam depends on mu^2 alone, so it
    applies whenever mu^2 == 1."""
    refs = REFERENCE_TABLE.get(params.A) if params.mu2 == 1.0 else None
    return [(float(r), abs(v - float(r))) for v, r in zip(row, refs or ())]


def _check(name, group, residual, tolerance, detail=""):
    """One report entry: ``pass`` when ``residual <= tolerance``."""
    return {
        "name": name,
        "group": group,
        "status": "pass" if residual <= tolerance else "fail",
        "residual": float(residual),
        "tolerance": float(tolerance),
        "detail": detail,
    }


def _exact():
    from . import oracle

    names = ("eigenvalue", "lambda_order1", "lambda_order2", "lambda_order3")
    for a in REFERENCE_TABLE:
        p = ModelParams(mu=1.0, A=float(a))
        golden = golden_comparison(p, neg_lambda_row(p))
        for name, (_, dev), tol in zip(names, golden, GOLDEN_TOL):
            yield _check(f"{name}_A{a}", "exact", dev, tol)
    for mu in (0.5, 1.0, 1.5):
        for a in (5.0, 20.0, 100.0):
            sol = qsd.build_solution(ModelParams(mu=mu, A=a))
            total, _ = oracle._quad(lambda x: qsd.pdf(x, sol), 0.0, a, epsabs=1e-11, epsrel=1e-10)
            yield _check(f"normalization_mu{mu}_A{a:g}", "exact", abs(total - 1.0), 1e-8)
            flux = qsd.boundary_flux_identity(sol)
            yield _check(f"boundary_flux_mu{mu}_A{a:g}", "exact",
                         abs(flux - sol.se.lam) / abs(sol.se.lam), 1e-5)


def _identities():
    from . import oracle

    for b, z in ((0.2, 1.0), (0.5, 2.0), (0.25j, 0.5)):
        yield _check(f"integral_identity_b{b}_z{z}", "identities",
                     oracle.integral_identity_check(b, z), 1e-8)
    for k in (1, 2, 3):
        for x in (0.5, 2.0, 10.0):
            yield _check(f"index_derivative_k{k}_x{x:g}", "identities",
                         oracle.index_derivative_check(k, x), 1e-5)
    x = 2.0
    alt, _ = oracle._quad(lambda y: exp_scaled_e1(y) / y, x, math.inf, epsabs=1e-12, epsrel=1e-11)
    yield _check("meijer_g_tail_form_x2", "identities", abs(meijer_g_special(x) - alt), 1e-9)


def _sl():
    from . import oracle

    p = ModelParams(mu=1.0, A=20.0)
    sol = qsd.build_solution(p)
    grid_sol = oracle.sturm_liouville_eigen(p, 20000)
    lam_err = abs(grid_sol.lambda_hat - sol.se.lam) / abs(sol.se.lam)
    yield _check("sl_eigenvalue_relative", "sl", lam_err, 1e-4)
    step = max(1, grid_sol.grid.size // 2000)
    dev = max(
        abs(qsd.pdf(float(x), sol) - float(qh))
        for x, qh in zip(grid_sol.grid[::step], grid_sol.q_hat[::step])
    )
    yield _check("sl_density_sup_deviation", "sl", dev, 1e-4)
    yield _check("norm_identity_relative", "sl", oracle.norm_identity_check(p, sol.se), 1e-4)


def _mc():
    from . import oracle

    sol = qsd.build_solution(MC_PARAMS)
    law = oracle.simulate_killed_sr(MC_PARAMS, r=MC_HEADSTART, dt=MC_DT, T=MC_HORIZON,
                                    n_paths=MC_PATHS, seed=MC_SEED)
    yield _check("mc_ks_distance", "mc", _ks_distance(law.samples, sol), 0.01,
                 detail=f"{law.n_survivors} survivors of {law.n_paths_total}")


def _ks_distance(samples, sol):
    n = samples.size
    cdf_vals = [qsd.cdf(float(v), sol) for v in samples]
    d = 0.0
    for i, c in enumerate(cdf_vals):
        d = max(d, abs((i + 1) / n - c), abs(i / n - c))
    return d


# group -> suite, in report order
SUITES = {"exact": _exact, "identities": _identities, "sl": _sl, "mc": _mc}
