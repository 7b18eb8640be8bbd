"""The numpy oracles.

None of the code here reuses the closed-form law or its special-function
kernel:

* a self-adjoint finite-volume discretization of the eigenvalue problem
  (d/dx)[p(x) phi'(x)] = lam m(x) phi(x), p(x) = (mu^2/2) x^2 m(x), with
  zero flux on the first cell face and a Dirichlet condition at A, solved as
  a symmetric tridiagonal eigenproblem by inverse iteration with odd-even
  cyclic reduction, and
* a Monte-Carlo simulator of the killed diffusion dR = dt + mu R dB that
  splits the paths into MC_STREAMS parts, each advanced as one array on its
  own seeded substream in its own thread.

Everything here needs numpy and nothing else.  The pure-Python quadrature
and identity residuals live in :mod:`qsd_sr.checks`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from numbers import Integral

import numpy as np

from .errors import ConvergenceError, DomainError, NoSurvivorsError
from .specfun import ModelParams

__all__ = [
    "GridSolution",
    "EmpiricalLaw",
    "sturm_liouville_eigen",
    "simulate_killed_sr",
]

# The grid is truncated where exp(-2/(mu^2 x)) falls below exp(-80): the
# discarded probability mass is ~1e-35 while the symmetrized tridiagonal
# matrix stays well scaled (deeper truncation poisons the factorization
# with subnormal-range blocks).
_LEFT_EXPONENT_CAP = 80.0

# Monte Carlo: the paths are split into MC_STREAMS parts, each on its own
# substream of the seed, and each part draws its noise in blocks of at most
# MC_BLOCK // MC_STREAMS float32 normals (1 MB in all).  Both are constants,
# not the core count, so they fix the draw layout and every sample.
MC_BLOCK = 2**18
MC_STREAMS = 2


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
    if not (isinstance(n_grid, Integral) and n_grid >= 100):
        raise DomainError(f"n_grid must be an integer of at least 100, got {n_grid!r}")
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


def _advance(rng, R, c, dt32, A32, n_steps, buf):
    """Advance the float32 paths R (in place) on the normals of ``rng``,
    drawn into ``buf`` k = buf.size // R.size steps at a time; a running
    maximum kills at the end of each block every path that reached A at any
    grid step of it.  Returns the survivors.  Per-step rounding (~1e-7
    relative) is far below the statistical tolerances this simulator
    serves."""
    M = np.empty_like(R)
    while n_steps and R.size:
        k = max(1, min(n_steps, buf.size // R.size))
        F = buf[: k * R.size].reshape(k, R.size)
        rng.standard_normal(out=F, dtype=np.float32)
        F *= c
        F += 1  # F = 1 + mu sqrt(dt) xi in place
        M = M[: R.size]
        np.copyto(M, R)  # a headstart at or above A dies with the first block
        for f in F:
            R *= f
            R += dt32
            np.maximum(M, R, out=M)
        R = R[M < A32]
        n_steps -= k
    return R


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
    survivors at the horizon is returned as the sorted sample values.  The
    paths are split into MC_STREAMS parts as ``np.array_split`` does; part i
    runs in its own thread on ``default_rng(SeedSequence(seed).spawn(MC_STREAMS)[i])``
    (:func:`_advance`).  numpy's normal fill and array arithmetic release the
    GIL, so the parts share the cores, and the result is bit-for-bit the
    same for a given seed on any number of cores.
    """
    from concurrent.futures import ThreadPoolExecutor

    if not (0.0 <= r < params.A):
        raise DomainError(f"headstart must lie in [0, A), got {r}")
    if not (0.0 < dt and 10.0 * dt < T and math.isfinite(T / dt)):
        raise DomainError(f"need finite dt > 0 and horizon T > 10 dt, got dt={dt}, T={T}")
    if (not all(isinstance(v, Integral) and not isinstance(v, bool) for v in (n_paths, seed))
            or n_paths < 1 or seed < 0):
        raise DomainError(f"need integers n_paths >= 1 and seed >= 0, got {n_paths!r}, {seed!r}")
    n_steps = int(round(T / dt))
    c, dt32, A32 = np.float32(params.mu * math.sqrt(dt)), np.float32(dt), np.float32(params.A)
    parts = np.array_split(np.full(n_paths, np.float32(r)), MC_STREAMS)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(MC_STREAMS)]
    # the blocks are allocated here, not in the workers: blocks freed in a
    # worker stay in that thread's malloc arena and raise the peak RSS
    bufs = [np.empty(max(MC_BLOCK // MC_STREAMS, R.size), np.float32) for R in parts]
    with ThreadPoolExecutor(MC_STREAMS) as pool:
        done = pool.map(lambda rng, R, buf: _advance(rng, R, c, dt32, A32, n_steps, buf),
                        rngs, parts, bufs)
        survivors = np.concatenate(list(done)).astype(np.float64)
    if survivors.size == 0:
        raise NoSurvivorsError(
            f"no surviving paths at horizon T={T} (n_paths={n_paths}); "
            "increase n_paths or reduce T"
        )
    return EmpiricalLaw(samples=np.sort(survivors), n_survivors=int(survivors.size),
                        n_paths_total=n_paths)
