"""Independent verification machinery.

None of the code here reuses the closed-form law beyond the special-function
kernel it is checking against:

* a self-adjoint finite-volume discretization of the eigenvalue problem
  (d/dx)[p(x) phi'(x)] = lam m(x) phi(x), p(x) = (mu^2/2) x^2 m(x), with
  zero flux on the first cell face and a Dirichlet condition at A, solved as
  a symmetric tridiagonal eigenproblem by inverse iteration with odd-even
  cyclic reduction,
* a Monte-Carlo simulator of the killed diffusion dR = dt + mu R dB that
  advances all paths as one array on one seeded stream, and
* quadrature residuals for the integral identity behind the cdf formula and
  for the eigenfunction-norm identity (tanh-sinh rule, :func:`_quad`), and a
  finite-difference residual for the index-derivative identities behind the
  large-threshold expansion.

Everything here needs numpy and nothing else.
"""

from __future__ import annotations

import math
from collections import namedtuple
from numbers import Integral

import numpy as np

from .asymptotics import index_derivative_identity
from .eigensolver import EigenResult, _index_b
from .errors import ConvergenceError, DomainError, NoSurvivorsError
from .specfun import (
    ModelParams,
    WhittakerIndex,
    speed_density,
    whittaker_w,
    whittaker_w_scaled,
)

__all__ = [
    "GridSolution",
    "EmpiricalLaw",
    "sturm_liouville_eigen",
    "simulate_killed_sr",
    "integral_identity_check",
    "index_derivative_check",
    "norm_identity_check",
]

# The grid is truncated where exp(-2/(mu^2 x)) falls below exp(-80): the
# discarded probability mass is ~1e-35 while the symmetrized tridiagonal
# matrix stays well scaled (deeper truncation poisons the factorization
# with subnormal-range blocks).
_LEFT_EXPONENT_CAP = 80.0

# Monte Carlo: noise is drawn in blocks of at most this many float32 normals
# (1 MB), so the constant fixes the draw layout and every sample.
MC_BLOCK = 2**18


class GridSolution(namedtuple("GridSolution", "grid lambda_hat q_hat")):
    """Discretized eigenpair: abscissae, eigenvalue estimate, and the
    normalized density values m(x) phi(x) / integral."""

    __slots__ = ()


class EmpiricalLaw(namedtuple("EmpiricalLaw", "samples n_survivors n_paths_total")):
    """The surviving simulated paths at the horizon, conditional on
    survival: their sorted values (for ECDF/KS use) and how many of the
    paths survived."""

    __slots__ = ()


def _cr_factor(d, e):
    """Odd-even cyclic reduction of the symmetric positive definite
    tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``.

    Each level eliminates the odd unknowns from the even equations; this is
    Cholesky on the red-black permuted matrix, so every Schur complement
    stays positive definite and no pivoting is needed (Buzbee, Golub and
    Nielson, SIAM J. Numer. Anal. 7(4), 1970).  Returns the per-level
    multipliers ``(r, l, 1/d_odd)`` and the last 1x1 pivot."""
    levels = []
    while d.size > 1:
        d_odd = d[1::2]
        r = e[0::2] / d_odd  # even 2k from its right neighbour 2k+1
        l = e[1::2] / d_odd[: e.size // 2]  # even 2k+2 from its left neighbour 2k+1
        d_even = d[0::2].copy()
        d_even[: r.size] -= r * e[0::2]
        d_even[1:] -= l * e[1::2]
        e = -r[: l.size] * e[1::2]
        d = d_even
        levels.append((r, l, 1.0 / d_odd))
    return levels, d[0]


def _cr_solve(factor, f):
    """Solve with a :func:`_cr_factor` factorization."""
    levels, pivot = factor
    odds = []
    for r, l, _ in levels:
        f_odd, f = f[1::2], f[0::2].copy()
        f[: r.size] -= r * f_odd
        f[1:] -= l * f_odd[: l.size]
        odds.append(f_odd)
    x = f / pivot
    for (r, l, inv_d), f_odd in zip(reversed(levels), reversed(odds)):
        x_odd = f_odd * inv_d - r * x[: r.size]
        x_odd[: l.size] -= l * x[1:]
        full = np.empty(x.size + x_odd.size)
        full[0::2], full[1::2] = x, x_odd
        x = full
    return x


# Inverse iteration stops once no entry of the max-normalized vector moves by
# more than SL_TOL.  It contracts by lam1/lam2 per step, at worst 0.41 at
# c = C_MIN (30 steps; 11 at c = 20), so the cap is never reached in the domain.
SL_TOL = 1e-12
SL_MAX_ITER = 100


def _lowest_eigenvector(d, e):
    """Unit eigenvector of the smallest eigenvalue of the symmetric positive
    definite tridiagonal matrix (diagonal ``d``, negative off-diagonal
    ``e``), by inverse iteration from the ones vector.  The inverse of such
    a matrix is positive, so every iterate and the eigenvector are positive
    and the start overlaps it.  Raises :class:`ConvergenceError` after
    SL_MAX_ITER steps."""
    factor = _cr_factor(d, e)
    v = np.ones(d.size)
    for _ in range(SL_MAX_ITER):
        y = _cr_solve(factor, v)
        y /= y.max()
        change = float(np.max(np.abs(y - v)))
        v = y
        if change <= SL_TOL:
            return v / np.linalg.norm(v)
    raise ConvergenceError(
        f"inverse iteration moved the eigenvector by {change:.3g} after {SL_MAX_ITER} steps"
    )


def sturm_liouville_eigen(params: ModelParams, n_grid: int) -> GridSolution:
    """First-principles eigenpair of the killed generator.

    Discretizes the self-adjoint form on the graded grid x_i = A (i/n)^2
    (refined near 0 where the speed density vanishes super-exponentially),
    eliminates the Dirichlet node at A, and finds the eigenvector of the
    algebraically largest eigenvalue of the symmetric tridiagonal problem by
    inverse iteration (:func:`_lowest_eigenvector`).  The eigenvalue is read
    from the generalized Rayleigh quotient of the converged vector, which is
    accurate to the square of the vector's error.
    """
    if n_grid < 100:
        raise DomainError(f"n_grid must be at least 100, got {n_grid}")
    mu2, A = params.mu2, params.A
    i = np.arange(1, n_grid + 1, dtype=float)
    x = A * (i / n_grid) ** 2
    x = x[x >= 2.0 / (mu2 * _LEFT_EXPONENT_CAP)]
    if x.size < 50:
        raise ConvergenceError("grid too coarse after left truncation")
    nodes = x[:-1]  # interior nodes; x[-1] = A carries the Dirichlet condition
    dens = 2.0 / (mu2 * nodes * nodes) * np.exp(-2.0 / (mu2 * nodes))

    faces = 0.5 * (x[1:] + x[:-1])
    steps = x[1:] - x[:-1]
    pf = np.exp(-2.0 / (mu2 * faces)) / steps  # p(face)/h, p = e^{-2/(mu^2 x)}

    widths = np.empty(nodes.size)
    widths[0] = faces[0] - (x[0] - 0.5 * (x[1] - x[0]))
    widths[1:] = faces[1:] - faces[:-1]

    # the flux-difference stiffness K (zero flux through the left face of
    # cell 0) is negative definite; the top eigenvector of the pencil (K, M)
    # is M^-1/2 times the lowest one of -M^-1/2 K M^-1/2
    mass = dens * widths
    scale = 1.0 / np.sqrt(mass)
    neg_diag = pf.copy()
    neg_diag[1:] += pf[:-1]
    phi = _lowest_eigenvector(neg_diag * scale * scale, -pf[:-1] * scale[:-1] * scale[1:]) * scale

    # Rayleigh quotient with phi^T K phi in its energy form
    # -sum_i pf_i (phi_{i+1} - phi_i)^2 (phi = 0 at A): a sum of like-signed
    # terms, where expanding K phi cancels to ~eps ||K|| / |lam| (2e-8 at 2e5 nodes)
    lam_hat = float(-(pf @ np.diff(phi, append=0.0) ** 2) / (phi @ (mass * phi)))
    if not math.isfinite(lam_hat) or lam_hat > 0.0:
        raise ConvergenceError(f"discretized eigenvalue not converged: {lam_hat}")

    q_hat = dens * phi
    if q_hat[int(np.argmax(np.abs(q_hat)))] < 0.0:
        q_hat = -q_hat
    # report the Dirichlet node explicitly: q(A) = 0 is imposed, not solved
    grid = np.append(nodes, x[-1])
    q_hat = np.append(q_hat, 0.0)
    q_hat = q_hat / np.trapezoid(q_hat, grid)
    return GridSolution(grid=grid, lambda_hat=lam_hat, q_hat=q_hat)


def _check_mc_args(params, r, dt, T, n_paths, seed) -> int:
    """Raise DomainError for arguments simulate_killed_sr cannot run; else return n_steps."""
    if not (0.0 <= r < params.A):
        raise DomainError(f"headstart must lie in [0, A), got {r}")
    if not (0.0 < dt and 10.0 * dt < T and math.isfinite(T / dt)):
        raise DomainError(f"need finite dt > 0 and horizon T > 10 dt, got dt={dt}, T={T}")
    if not all(isinstance(v, Integral) for v in (n_paths, seed)) or n_paths < 1 or seed < 0:
        raise DomainError(f"need integers n_paths >= 1 and seed >= 0, got {n_paths!r}, {seed!r}")
    return int(round(T / dt))


def _survivors(rng, params, r, dt, n_paths, n_steps):
    """All paths advance as one float32 array R on the normals of ``rng``,
    drawn k = MC_BLOCK // R.size steps at a time; a running maximum kills at
    the end of each block every path that reached A at any grid step of it.
    Per-step rounding (~1e-7 relative) is far below the statistical
    tolerances this simulator serves."""
    c, dt32, A32 = np.float32(params.mu * math.sqrt(dt)), np.float32(dt), np.float32(params.A)
    R = np.full(n_paths, np.float32(r))
    while n_steps and R.size:
        k = max(1, min(n_steps, MC_BLOCK // R.size))
        F = rng.standard_normal((k, R.size), dtype=np.float32)
        F *= c
        F += 1  # F = 1 + mu sqrt(dt) xi in place: the block is the only buffer
        M = R.copy()  # a headstart at or above A dies with the first block
        for f in F:
            R *= f
            R += dt32
            np.maximum(M, R, out=M)
        R = R[M < A32]
        n_steps -= k
    return R.astype(np.float64)


def simulate_killed_sr(
    params: ModelParams,
    r: float,
    dt: float,
    T: float,
    n_paths: int,
    seed: int,
) -> EmpiricalLaw:
    """Euler-Maruyama simulation of the killed diffusion.

    Paths follow R_{k+1} = R_k + dt + mu R_k sqrt(dt) xi_k and are killed on
    the first step that reaches the threshold; the conditional law of the
    survivors at the horizon is returned as the sorted sample values.  All
    paths share the stream ``np.random.default_rng(seed)`` drawn in blocks
    of MC_BLOCK normals, so the result is reproducible bit-for-bit for a
    given seed.
    """
    n_steps = _check_mc_args(params, r, dt, T, n_paths, seed)
    survivors = _survivors(np.random.default_rng(seed), params, r, dt, n_paths, n_steps)
    if survivors.size == 0:
        raise NoSurvivorsError(
            f"no surviving paths at horizon T={T} (n_paths={n_paths}); "
            "increase n_paths or reduce T"
        )
    return EmpiricalLaw(samples=np.sort(survivors), n_survivors=int(survivors.size),
                        n_paths_total=n_paths)


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

    for z > 0 and admissible b.  Returns the absolute residual."""
    if z <= 0.0:
        raise DomainError(f"z must be positive, got {z}")
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
    at b = 1/2 (:func:`index_derivative_identity`) against centered finite
    differences in b with steps 1e-2 and 5e-3, combined by Richardson
    extrapolation."""
    closed = index_derivative_identity(k, x)

    def stencil(h):
        w = [whittaker_w(WhittakerIndex(1, 0.5 + j * h), x) for j in (-2, -1, 0, 1, 2)]
        if k == 1:
            return (w[3] - w[1]) / (2.0 * h)
        if k == 2:
            return (w[3] - 2.0 * w[2] + w[1]) / (h * h)
        return (w[4] - 2.0 * w[3] + 2.0 * w[1] - w[0]) / (2.0 * h**3)

    d1, d2 = stencil(1e-2), stencil(1e-2 / 2.0)
    numeric = (4.0 * d2 - d1) / 3.0
    return abs(numeric - closed) / abs(closed)


def norm_identity_check(params: ModelParams, se: EigenResult, h_scale: float = 1e-6) -> float:
    """Relative residual of the eigenfunction-norm identity

        int_0^A m(x) phi(x, lam)^2 dx
            = (mu^2/2) [d/dlam W_{1,xi(lam)/2}(z_A)] [d/du W_{1,xi(lam)/2}(u)|_{u=z_A}]

    with the eigenfunction constant fixed to 1 and z_A = 2/(mu^2 A).  The
    mu^2/2 factor is the Jacobian of the substitution u = 2/(mu^2 x); its
    presence is cross-validated by the implicit-differentiation identity
    d(lam)/dA = (2/(mu^2 A^2)) (dW/du) / (dW/dlam).  Both derivative factors
    are centered finite differences with step ``h_scale`` times the natural
    scale of each variable."""
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

    def w_of_lambda(lam):
        return whittaker_w(WhittakerIndex(1, _index_b(lam, mu2)), z_a)

    h_lam = h_scale * max(abs(se.lam), 1e-3)
    d_lam = (w_of_lambda(se.lam + h_lam) - w_of_lambda(se.lam - h_lam)) / (2.0 * h_lam)

    h_u = h_scale * z_a
    d_u = (whittaker_w(idx, z_a + h_u) - whittaker_w(idx, z_a - h_u)) / (2.0 * h_u)

    rhs = 0.5 * mu2 * d_lam * d_u
    return abs(norm2 - rhs) / abs(norm2)
