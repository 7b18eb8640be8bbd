"""Independent verification machinery.

None of the code here reuses the closed-form law beyond the special-function
kernel it is checking against:

* a self-adjoint finite-volume discretization of the eigenvalue problem
  (d/dx)[p(x) phi'(x)] = lam m(x) phi(x), p(x) = (mu^2/2) x^2 m(x), with
  zero flux on the first cell face and a Dirichlet condition at A, solved as
  a symmetric tridiagonal eigenproblem,
* a Monte-Carlo simulator of the killed diffusion dR = dt + mu R dB that
  advances all paths as one array on one seeded stream, and
* quadrature residuals for the integral identity behind the cdf formula and
  for the eigenfunction-norm identity, and a finite-difference residual for
  the index-derivative identities behind the large-threshold expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from .asymptotics import index_derivative_identity
from .errors import ConvergenceError, DomainError, NoSurvivorsError
from .specfun import (
    ModelParams,
    SpectralIndex,
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
# (1 MB), so the constant fixes the draw layout and every sample; the
# empirical law is histogrammed on this many equal bins over [0, A].
MC_BLOCK = 2**18
MC_BINS = 200


@dataclass(frozen=True)
class GridSolution:
    """Discretized eigenpair: abscissae, eigenvalue estimate, and the
    normalized density values m(x) phi(x) / integral."""

    grid: np.ndarray
    lambda_hat: float
    q_hat: np.ndarray


@dataclass(frozen=True)
class EmpiricalLaw:
    """Histogram/ECDF of the surviving simulated paths at the horizon,
    conditional on survival."""

    bin_edges: np.ndarray
    bin_masses: np.ndarray
    n_paths_total: int
    n_survivors: int
    seed: int
    headstart: float
    horizon: float
    dt: float
    samples: np.ndarray  # sorted survivor values, for ECDF/KS use


def sturm_liouville_eigen(params: ModelParams, n_grid: int) -> GridSolution:
    """First-principles eigenpair of the killed generator.

    Discretizes the self-adjoint form on the graded grid x_i = A (i/n)^2
    (refined near 0 where the speed density vanishes super-exponentially),
    eliminates the Dirichlet node at A, and solves the symmetric tridiagonal
    problem for the algebraically largest eigenvalue.  The eigenvalue is
    read from the generalized Rayleigh quotient of the converged vector,
    which avoids the eps * ||T|| floor of the bisection eigensolver.
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

    # flux-difference stiffness (zero flux through the left face of cell 0)
    diag = np.empty(nodes.size)
    diag[0] = -pf[0]
    diag[1:] = -(pf[1:] + pf[:-1])
    off = pf[: nodes.size - 1]
    mass = dens * widths

    scale = 1.0 / np.sqrt(mass)
    d_sym = diag * scale * scale
    e_sym = off * scale[:-1] * scale[1:]
    m = d_sym.size
    try:
        vals, vecs = eigh_tridiagonal(d_sym, e_sym, select="i", select_range=(m - 1, m - 1))
    except Exception as exc:  # pragma: no cover
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc
    phi = vecs[:, 0] * scale

    k_phi = diag * phi
    k_phi[:-1] += off * phi[1:]
    k_phi[1:] += off * phi[:-1]
    lam_hat = float((phi @ k_phi) / (phi @ (mass * phi)))
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
    survivors at the horizon is returned as a histogram plus the sorted
    sample values.  All paths share the stream ``np.random.default_rng(seed)``
    drawn in blocks of MC_BLOCK normals, so the result is reproducible
    bit-for-bit for a given seed.
    """
    n_steps = _check_mc_args(params, r, dt, T, n_paths, seed)
    survivors = _survivors(np.random.default_rng(seed), params, r, dt, n_paths, n_steps)
    if survivors.size == 0:
        raise NoSurvivorsError(
            f"no surviving paths at horizon T={T} (n_paths={n_paths}); "
            "increase n_paths or reduce T"
        )
    edges = np.linspace(0.0, params.A, MC_BINS + 1)
    counts, _ = np.histogram(survivors, bins=edges)
    return EmpiricalLaw(
        bin_edges=edges,
        bin_masses=counts / survivors.size,
        n_paths_total=n_paths,
        n_survivors=int(survivors.size),
        seed=seed,
        headstart=r,
        horizon=T,
        dt=dt,
        samples=np.sort(survivors),
    )


def integral_identity_check(b: complex, z: float) -> float:
    """Quadrature residual of the identity

        int_1^inf t^-1 e^{-z t/2} W_{1,b}(z t) dt = e^{-z/2} W_{0,b}(z)

    for z > 0 and admissible b.  Returns the absolute residual."""
    if z <= 0.0:
        raise DomainError(f"z must be positive, got {z}")
    idx1 = WhittakerIndex(1, b)

    lhs, _ = quad(
        lambda t: whittaker_w(idx1, z * t) * math.exp(-0.5 * z * t) / t,
        1.0,
        math.inf,
        epsabs=1e-12,
        epsrel=1e-10,
        limit=300,
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


def norm_identity_check(params: ModelParams, se: SpectralIndex, h_scale: float = 1e-6) -> float:
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
    norm2, _ = quad(
        lambda x: speed_density(x, params) * whittaker_w_scaled(idx, 2.0 / (mu2 * x)) ** 2,
        0.0,
        A,
        epsabs=1e-12,
        epsrel=1e-10,
        limit=300,
    )

    def w_of_lambda(lam):
        se_h = SpectralIndex.from_lambda(lam, params.mu)
        return whittaker_w(WhittakerIndex(1, se_h.b), z_a)

    h_lam = h_scale * max(abs(se.lam), 1e-3)
    d_lam = (w_of_lambda(se.lam + h_lam) - w_of_lambda(se.lam - h_lam)) / (2.0 * h_lam)

    h_u = h_scale * z_a
    d_u = (whittaker_w(idx, z_a + h_u) - whittaker_w(idx, z_a - h_u)) / (2.0 * h_u)

    rhs = 0.5 * mu2 * d_lam * d_u
    return abs(norm2 - rhs) / abs(norm2)
