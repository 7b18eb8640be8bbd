"""The checks behind ``qsd-sr validate``, each written once.

:data:`SUITES` maps each group to its suite, in report order: ``exact`` (the
golden table :data:`REFERENCE_TABLE` at mu = 1, then normalization and
boundary flux on a (mu, A) sweep), ``identities`` (the integral identity
behind the cdf, the index-derivative identities and the tail form of ``G``),
``sl`` (the discretized eigenproblem) and ``mc`` (the Monte-Carlo KS
distance).  A suite takes no arguments: every setting a check depends on is
a constant here, which no option can change.  It yields report entries, each
passing when its residual is at most its tolerance.  The residuals are here
too: the tanh-sinh rule :func:`_quad` and the three identity checks are pure
Python, so only the ``sl`` and ``mc`` suites load :mod:`qsd_sr.oracle`, and
numpy with it.
"""

from __future__ import annotations

import math

from . import asymptotics, qsd
from .eigensolver import EigenResult, dominant_eigenvalue
from .errors import ConvergenceError, DomainError, ThresholdTooSmallError
from .specfun import (ModelParams, WhittakerIndex, _index_derivative, exp_scaled_e1,
                      meijer_g_special, speed_density, whittaker_w, whittaker_w_scaled)

__all__ = ["integral_identity_check", "index_derivative_check", "norm_identity_check"]

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


# Tanh-sinh quadrature: nodes t = k h on [-QUAD_T_MAX, QUAD_T_MAX], where the
# weights fall to ~1e-36; h halves from 1 for at most QUAD_LEVELS levels
# (2049 nodes at the last).
QUAD_T_MAX = 4
QUAD_LEVELS = 8


def _quad(f, a, b, epsabs, epsrel):
    """Integral of ``f`` over [a, b] (``b = inf`` allowed) by the tanh-sinh
    rule (Takahasi and Mori, Publ. RIMS 9, 1974); returns ``(value, error)``.

    The node of parameter t sits at unit-interval position s with
    ``s = 1 / (e^{-2u} + 1)`` and ``1 - s = 1 / (e^{2u} + 1)``,
    ``u = (pi/2) sinh t``, both computed directly so no node rounds onto an
    end of a finite interval; ``b = inf`` maps s to ``a + s / (1 - s)``.  The
    step halves until two successive sums differ by at most
    ``max(epsabs, epsrel |value|)``, which is the returned error.  Raises
    :class:`ConvergenceError` when the deepest level misses the tolerance or
    the integrand does not vanish at the truncated ends.
    """
    infinite = math.isinf(b)
    if not (math.isfinite(a) and a < b):
        raise DomainError(f"need finite a < b, got [{a}, {b}]")

    def term(t):
        u = 0.5 * math.pi * math.sinh(t)
        s, s_c = 1.0 / (math.exp(-2.0 * u) + 1.0), 1.0 / (math.exp(2.0 * u) + 1.0)
        w = math.pi * math.cosh(t) * s * s_c  # ds/dt
        if infinite:
            return w / (s_c * s_c) * f(a + s / s_c)
        x = a + (b - a) * s if s <= 0.5 else b - (b - a) * s_c
        return w * (b - a) * f(x)

    level0 = [term(float(k)) for k in range(-QUAD_T_MAX, QUAD_T_MAX + 1)]
    total = math.fsum(level0)
    h, value = 1.0, total
    for level in range(QUAD_LEVELS):
        h *= 0.5
        steps = round(QUAD_T_MAX / h)
        total += math.fsum(term(k * h) for k in range(1 - steps, steps, 2))
        value, err = h * total, abs(h * total - value)
        tol = max(epsabs, epsrel * abs(value))
        if level >= 2 and err <= tol:
            if max(abs(level0[0]), abs(level0[-1])) > tol:
                raise ConvergenceError(
                    f"integrand does not vanish at the ends of [{a}, {b}]: "
                    f"{level0[0]:.3g}, {level0[-1]:.3g}"
                )
            return value, err
    raise ConvergenceError(
        f"tanh-sinh quadrature on [{a}, {b}] changed by {err:.3g} at step {h:g}"
    )


def integral_identity_check(b: complex, z: float) -> float:
    """Quadrature residual of the identity

        int_1^inf t^-1 e^{-z t/2} W_{1,b}(z t) dt = e^{-z/2} W_{0,b}(z)

    for finite z > 0 and admissible b.  Returns the absolute residual."""
    if not (0.0 < z < math.inf):
        raise DomainError(f"z must be finite and positive, got {z}")
    idx1 = WhittakerIndex(1, b)

    lhs, _ = _quad(
        lambda t: whittaker_w(idx1, z * t) * math.exp(-0.5 * z * t) / t,
        1.0,
        math.inf,
        epsabs=1e-12,
        epsrel=1e-10,
    )
    rhs = math.exp(-0.5 * z) * whittaker_w(WhittakerIndex(0, b), z)
    return abs(lhs - rhs)


def index_derivative_check(k: int, x: float) -> float:
    """Relative residual of the closed-form k-th b-derivative of W_{1,b}(x)
    at b = 1/2 against the kernel's own index derivative, the terms of its
    trapezoid sum differentiated in b.  Both are compared without their
    common factor e^{-x/2}, so the residual stays defined where that factor
    underflows."""
    closed = asymptotics._index_derivative_scaled(k, x)
    # W_{1,b}(x) = e^{-x/2} x * scaled W_{1,b}(x)
    kernel = x * _index_derivative(WhittakerIndex(1, 0.5), x, k).real
    return abs(kernel - closed) / abs(closed)


def norm_identity_check(params: ModelParams, se: EigenResult) -> float:
    """Relative residual of the eigenfunction-norm identity

        int_0^A m(x) phi(x, lam)^2 dx
            = (mu^2/2) [d/dlam W_{1,xi(lam)/2}(z_A)] [d/du W_{1,xi(lam)/2}(u)|_{u=z_A}]

    with the eigenfunction constant fixed to 1 and z_A = 2/(mu^2 A).  The
    mu^2/2 factor is the Jacobian of the substitution u = 2/(mu^2 x); its
    presence is cross-validated by the implicit-differentiation identity
    d(lam)/dA = (2/(mu^2 A^2)) (dW/du) / (dW/dlam).  Both derivative factors
    are exact: d/dlam is the kernel's index derivative times
    db/dlam = 1/(mu^2 b), and d/du W_1 = ((u/2 - 1) W_1 - W_2)/u (DLMF
    §13.15)."""
    mu2, A = params.mu2, params.A
    z_a = 2.0 / (mu2 * A)
    idx = WhittakerIndex(1, se.b)

    # the eigenfunction phi(x, lam) = exp(z/2) z^-1 W_{1,b}(z), z = 2/(mu^2 x),
    # with the index built once for every quadrature node
    norm2, _ = _quad(
        lambda x: speed_density(x, params) * whittaker_w_scaled(idx, 2.0 / (mu2 * x)) ** 2,
        0.0,
        A,
        epsabs=1e-12,
        epsrel=1e-10,
    )

    # W_1 = e^{-z/2} z * scaled W_1; real also for imaginary b
    d_lam = math.exp(-0.5 * z_a) * z_a * (_index_derivative(idx, z_a, 1) / (mu2 * se.b)).real
    w2 = whittaker_w(WhittakerIndex(2, se.b), z_a)
    d_u = ((0.5 * z_a - 1.0) * whittaker_w(idx, z_a) - w2) / z_a

    rhs = 0.5 * mu2 * d_lam * d_u
    return abs(norm2 - rhs) / abs(norm2)


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
    names = ("eigenvalue", "lambda_order1", "lambda_order2", "lambda_order3")
    for a in REFERENCE_TABLE:
        p = ModelParams(mu=1.0, A=float(a))
        golden = golden_comparison(p, neg_lambda_row(p))
        for name, (_, dev), tol in zip(names, golden, GOLDEN_TOL):
            yield _check(f"{name}_A{a}", "exact", dev, tol)
    for mu in (0.5, 1.0, 1.5):
        for a in (5.0, 20.0, 100.0):
            sol = qsd.build_solution(ModelParams(mu=mu, A=a))
            total, _ = _quad(lambda x: qsd.pdf(x, sol), 0.0, a, epsabs=1e-11, epsrel=1e-10)
            yield _check(f"normalization_mu{mu}_A{a:g}", "exact", abs(total - 1.0), 1e-10)
            flux = qsd.boundary_flux_identity(sol)
            yield _check(f"boundary_flux_mu{mu}_A{a:g}", "exact",
                         abs(flux - sol.se.lam) / abs(sol.se.lam), 3e-12)


def _identities():
    for b, z in ((0.2, 1.0), (0.5, 2.0), (0.25j, 0.5)):
        yield _check(f"integral_identity_b{b}_z{z}", "identities",
                     integral_identity_check(b, z), 1e-10)
    for k in (1, 2, 3):
        for x in (0.5, 2.0, 10.0):
            yield _check(f"index_derivative_k{k}_x{x:g}", "identities",
                         index_derivative_check(k, x), 3e-13)
    x = 2.0
    alt, _ = _quad(lambda y: exp_scaled_e1(y) / y, x, math.inf, epsabs=1e-12, epsrel=1e-11)
    yield _check("meijer_g_tail_form_x2", "identities", abs(meijer_g_special(x) - alt), 1e-11)


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
    yield _check("norm_identity_relative", "sl", norm_identity_check(p, sol.se), 5e-12)


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
