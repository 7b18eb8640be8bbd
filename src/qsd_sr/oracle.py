"""The numpy oracles.

None of the code here reuses the closed-form law or its special-function
kernel:

* a self-adjoint finite-volume discretization of the eigenvalue problem
  (d/dx)[p(x) phi'(x)] = lam m(x) phi(x), p(x) = (mu^2/2) x^2 m(x), with
  zero flux on the first cell face and a Dirichlet condition at A, solved as
  a symmetric tridiagonal eigenproblem by inverse iteration with odd-even
  cyclic reduction, whose solve works in place in strided views of a
  half-length buffer (at its peak 5.5 vectors of the grid's length are live:
  the factor's three, that buffer and two iterates, 8.1 MiB at
  n_grid = 2e5; and no BLAS call, whose summation order would follow
  OpenBLAS's thread count), and
* a Monte-Carlo simulator of the killed diffusion dR = dt + mu R dB by
  two-point weak Euler steps (one random bit per path-step) that advances
  all the paths as one array on one seeded stream, drawing the bits per
  block and expanding them into step factors per cache-sized slice.

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

# Monte Carlo: the noise is drawn in blocks of k = MC_BLOCK // alive steps
# (at least one) of the alive paths, one random bit per path-step, 1/8 byte
# per path-step and 128 KiB for a full block.  The bits are unpacked to one
# byte each and expanded into float32 step factors one slice of at most
# MC_BLOCK // 8 path-steps (at least one step) at a time, 5/8 MiB for a full
# slice, so the factors a step reads are still in cache; the slice size
# does not enter the samples.  MC_BLOCK is a constant, not the core or path
# count, so it fixes the draw layout and every sample.
MC_BLOCK = 2**20


class GridSolution(namedtuple("GridSolution", "grid lambda_hat q_hat")):
    """Discretized eigenpair: abscissae, eigenvalue estimate, and the
    normalized density values m(x) phi(x) / integral."""

    __slots__ = ()


class EmpiricalLaw(namedtuple("EmpiricalLaw", "samples n_survivors n_paths_total")):
    """The surviving simulated paths at the horizon, conditional on
    survival: their sorted values (for ECDF/KS use) and how many of the
    paths survived."""

    __slots__ = ()


def _cr_factor(de):
    """Odd-even cyclic reduction of the symmetric positive definite
    tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``, handed
    over as ``de = [d, e]``: it empties the list and frees both once the
    first level is built.

    Each level eliminates the odd unknowns from the even equations; this is
    Cholesky on the red-black permuted matrix, so every Schur complement
    stays positive definite and no pivoting is needed (Buzbee, Golub and
    Nielson, SIAM J. Numer. Anal. 7(4), 1970).  Returns the per-level
    multipliers ``(r, l, 1/d_odd)`` (three vectors over all levels), the
    last 1x1 pivot, and a half-length buffer that holds a solve's reduced
    systems, each level's in the even entries of the one above."""
    d, e = de
    de.clear()
    n = d.size
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
    return levels, d[0], np.empty(n - n // 2)


def _cr_solve(factor, f, out):
    """Solve with a :func:`_cr_factor` factorization into ``out``, leaving
    ``f`` as it is, without allocating a vector.  The reduced system of
    level k >= 1 lives in the strided view ``t[::2**(k-1)]`` of the factor's
    buffer ``t``, right-hand side on the way down and solution on the way
    up, so each level's even entries are the next level's system; the
    products go to ``out`` until the last step fills it, and to ``t`` then."""
    levels, pivot, t = factor
    rhs = [f] + [t[:: 2**k] for k in range(len(levels))]  # each level's vector
    t[:] = f[0::2]
    for (r, l, _), f, g in zip(levels, rhs, rhs[1:]):
        f_odd = f[1::2]
        g[: r.size] -= np.multiply(r, f_odd, out=out[: r.size])
        g[1:] -= np.multiply(l, f_odd[: l.size], out=out[: l.size])
    sol = [out] + rhs[1:]
    np.divide(rhs[-1], pivot, out=sol[-1])
    for (r, l, inv_d), f, y, x in reversed(list(zip(levels, rhs, sol, sol[1:]))):
        if y is out:  # the deeper levels need no copy: they are solved in t
            out[0::2] = x
        x, p = y[0::2], (t if y is out else out)
        x_odd = np.multiply(f[1::2], inv_d, out=y[1::2])
        x_odd -= np.multiply(r, x[: r.size], out=p[: r.size])
        x_odd[: l.size] -= np.multiply(l, x[1:], out=p[: l.size])
    return out


# Inverse iteration stops once no entry of the max-normalized vector moves by
# more than SL_TOL.  It contracts by lam1/lam2 per step, at worst 0.41 at
# c = C_MIN (30 steps; 11 at c = 20), so the cap is never reached in the domain.
SL_TOL = 1e-12
SL_MAX_ITER = 100


def _lowest_eigenvector(de):
    """Unit eigenvector of the smallest eigenvalue of the symmetric positive
    definite tridiagonal matrix with diagonal ``d`` and negative off-diagonal
    ``e``, handed over as ``de = [d, e]`` (see :func:`_cr_factor`), by
    inverse iteration from the ones vector.  The inverse of such a matrix is
    positive, so every iterate and the eigenvector are positive and the
    start overlaps it.  Only the factor (three and a half vectors) and the
    two iterates are live through it; the norm's squares go to the spent
    iterate.  Raises :class:`ConvergenceError` after SL_MAX_ITER steps."""
    n = de[0].size
    factor = _cr_factor(de)
    v, y = np.ones(n), np.empty(n)
    for _ in range(SL_MAX_ITER):
        _cr_solve(factor, v, y)
        y /= y.max()
        change = float(np.max(np.abs(np.subtract(y, v, out=v), out=v)))
        v, y = y, v
        if change <= SL_TOL:
            v /= math.sqrt(np.sum(np.multiply(v, v, out=y)))
            return v
    raise ConvergenceError(
        f"inverse iteration moved the eigenvector by {change:.3g} after {SL_MAX_ITER} steps"
    )


def _grid(A, n_grid, first=0):
    """The graded grid x_i = A (i/n)^2, i = first + 1 .. n."""
    return A * (np.arange(first + 1, n_grid + 1, dtype=float) / n_grid) ** 2


def _speed_density(mu2, x):
    """m(x) = 2/(mu^2 x^2) exp(-2/(mu^2 x)), in the result and one temporary."""
    m = mu2 * x * x
    np.divide(2.0, m, out=m)
    t = mu2 * x
    np.divide(-2.0, t, out=t)
    m *= np.exp(t, out=t)
    return m


def _faces(x):
    """The midpoints between the nodes of ``x``."""
    faces = x[1:] + x[:-1]
    faces *= 0.5
    return faces


def _masses(mu2, x):
    """Cell masses m(x_i) |cell i| of the finite-volume discretization on
    the grid ``x`` (interior nodes x[:-1]; x[-1] = A carries the Dirichlet
    condition), and the speed density m(x_i)."""
    faces = _faces(x)
    mass = np.empty(faces.size)  # the cell widths; cell 0 reaches half a step left of x[0]
    mass[0] = faces[0] - (x[0] - 0.5 * (x[1] - x[0]))
    np.subtract(faces[1:], faces[:-1], out=mass[1:])
    del faces
    density = _speed_density(mu2, x[:-1])
    mass *= density
    return mass, density


def _conductances(mu2, x):
    """Face conductances p(face)/h on the grid ``x``, p = e^{-2/(mu^2 x)}."""
    pf = _faces(x)
    pf *= mu2
    np.divide(-2.0, pf, out=pf)
    np.exp(pf, out=pf)
    pf /= x[1:] - x[:-1]
    return pf


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
    x = _grid(A, n_grid)
    # x increases, so the nodes below the cut are its first ones
    first = int(np.searchsorted(x, 2.0 / (mu2 * _LEFT_EXPONENT_CAP)))
    x = x[first:]
    if x.size < 50:
        raise ConvergenceError("grid too coarse after left truncation")

    # the flux-difference stiffness K (zero flux through the left face of
    # cell 0) is negative definite; the top eigenvector of the pencil (K, M)
    # is M^-1/2 times the lowest one of -M^-1/2 K M^-1/2.  Only the matrix
    # lives into the iteration, and it is the factorization's to free: the
    # grid, pf, the density, the masses and M^-1/2 are rebuilt after it.
    # Each array is built by in-place ops that keep the plain expression's
    # operation order: one allocation, and at most one temporary at a time
    scale = _masses(mu2, x)[0]
    np.sqrt(scale, out=scale)
    np.divide(1.0, scale, out=scale)
    pf = _conductances(mu2, x)
    del x
    d = pf.copy()
    d[1:] += pf[:-1]
    d *= scale
    d *= scale
    e = np.negative(pf[:-1])
    e *= scale[:-1]
    e *= scale[1:]
    de = [d, e]
    del pf, scale, d, e
    phi = _lowest_eigenvector(de)

    x = _grid(A, n_grid, first)
    mass, density = _masses(mu2, x)
    scale = np.sqrt(mass)
    np.divide(1.0, scale, out=scale)
    phi = np.multiply(scale, phi, out=scale)  # not in place: the returned vector stays as it is
    # Rayleigh quotient with phi^T K phi in its energy form
    # -sum_i pf_i (phi_{i+1} - phi_i)^2 (phi = 0 at A): a sum of like-signed
    # terms, where expanding K phi cancels to ~eps ||K|| / |lam| (2e-8 at 2e5 nodes)
    mass *= phi
    mass *= phi
    norm = np.sum(mass)
    del mass
    pf = _conductances(mu2, x)
    dphi = np.empty(phi.size)  # np.diff(phi, append=0.0) ** 2
    np.subtract(phi[1:], phi[:-1], out=dphi[:-1])
    dphi[-1] = 0.0 - phi[-1]
    dphi **= 2
    dphi *= pf
    lam_hat = float(-np.sum(dphi) / norm)
    del pf, dphi
    if not math.isfinite(lam_hat) or lam_hat > 0.0:
        raise ConvergenceError(f"discretized eigenvalue not converged: {lam_hat}")

    # positive: _lowest_eigenvector returns a positive vector; the
    # Dirichlet node is reported explicitly: q(A) = 0 is imposed, not solved
    q_hat = np.empty(x.size)
    np.multiply(density, phi, out=q_hat[:-1])
    q_hat[-1] = 0.0
    del density, phi
    q_hat /= np.trapezoid(q_hat, x)
    return GridSolution(grid=x, lambda_hat=lam_hat, q_hat=q_hat)


def _advance(rng, R, c, dt32, A32, n_steps):
    """Advance the float32 paths R (in place) by two-point steps
    R <- R (1 + c) + dt or R (1 - c) + dt, one random bit of ``rng`` per
    path-step, in blocks of k = MC_BLOCK // R.size steps (at least one) whose
    bits are one ``rng.bytes`` call.  A block's bits are unpacked and turned
    into factors in slices of MC_BLOCK // 8 // R.size steps (at least one),
    whose first bit may lie mid-byte, in one reused buffer; each slice's
    steps run before the next slice is built.  A running maximum over the
    whole block kills at its end every path that reached A at any grid step
    of it, so the slices change no sample.  Returns the survivors.  Per-step
    rounding (~1e-7 relative) is far below the statistical tolerances this
    simulator serves."""
    down = 1 - c
    # for |c| <= 1/2 both factors are multiples of 2**-24 in [1/2, 3/2], so
    # jump is exact and F is fl(1 + c) or fl(1 - c); above, the up factor
    # may be one ulp off
    jump = (1 + c) - down
    buf = np.empty(max(MC_BLOCK // 8, R.size), np.float32)
    M = np.empty_like(R)
    while n_steps and R.size:
        n = R.size
        k = max(1, min(n_steps, MC_BLOCK // n))
        m, step = k * n, max(1, MC_BLOCK // 8 // n) * n  # path-steps per block, slice
        packed = np.frombuffer(rng.bytes((m + 7) // 8), np.uint8)
        M = M[:n]
        np.copyto(M, R)  # a headstart at or above A dies with the first block
        for i in range(0, m, step):  # a slice's first path-step, maybe mid-byte
            j = min(i + step, m)
            bits = np.unpackbits(packed[i // 8 : (j + 7) // 8], count=j - i // 8 * 8)
            F = np.multiply(bits[i % 8 :], jump, out=buf[: j - i]).reshape(-1, n)
            F += down  # bit 1 is the up step
            del bits  # spent: freed before the next slice's are unpacked
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
    """Weak Euler simulation of the killed diffusion with two-point noise.

    Paths follow R_{k+1} = R_k + dt + mu R_k sqrt(dt) xi_k with xi_k = +-1
    equally likely (Kloeden and Platen, Numerical Solution of SDEs, 14.1),
    and are killed on the first step that reaches the threshold; the
    conditional law of the survivors at the horizon is returned as the
    sorted sample values.  |mu| sqrt(dt) < 1 is required, which keeps every
    path positive.  All the paths are advanced as one array on
    ``default_rng(seed)``, in blocks of MC_BLOCK // alive steps
    (:func:`_advance`).  The steps use only integer bits and correctly
    rounded float32 products and sums, so the result is bit-for-bit the same
    for a given seed under any of numpy's SIMD dispatch levels.
    """
    if not (0.0 <= r < params.A):
        raise DomainError(f"headstart must lie in [0, A), got {r}")
    if not (0.0 < dt and 10.0 * dt < T and math.isfinite(T / dt)):
        raise DomainError(f"need finite dt > 0 and horizon T > 10 dt, got dt={dt}, T={T}")
    if not abs(params.mu) * math.sqrt(dt) < 1.0:
        raise DomainError(f"need |mu| sqrt(dt) < 1 so that the steps keep R > 0, "
                          f"got mu={params.mu}, dt={dt}")
    if (not all(isinstance(v, Integral) and not isinstance(v, bool) for v in (n_paths, seed))
            or n_paths < 1 or seed < 0):
        raise DomainError(f"need integers n_paths >= 1 and seed >= 0, got {n_paths!r}, {seed!r}")
    n_steps = int(round(T / dt))
    c, dt32, A32 = np.float32(params.mu * math.sqrt(dt)), np.float32(dt), np.float32(params.A)
    survivors = _advance(np.random.default_rng(seed), np.full(n_paths, np.float32(r)),
                         c, dt32, A32, n_steps).astype(np.float64)
    if survivors.size == 0:
        raise NoSurvivorsError(
            f"no surviving paths at horizon T={T} (n_paths={n_paths}); "
            "increase n_paths or reduce T"
        )
    return EmpiricalLaw(samples=np.sort(survivors), n_survivors=int(survivors.size),
                        n_paths_total=n_paths)
