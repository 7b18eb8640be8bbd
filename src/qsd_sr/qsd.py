"""Exact quasi-stationary distribution of the killed diffusion.

With lam the dominant eigenvalue, b = xi(lam)/2 and z = 2/(mu^2 x), the law
on [0, A] has

    pdf  q(x) = (1/x) exp(-1/(mu^2 x)) W_{1,b}(z) / D,
    cdf  Q(x) =       exp(-1/(mu^2 x)) W_{0,b}(z) / D,
    D = exp(-1/(mu^2 A)) W_{0,b}(2/(mu^2 A)),

plus the full moment recurrence, the mode, and the boundary-flux identity
A^2 (mu^2/2) q'(A) = lam.  Evaluation goes through the overflow-free scaled
Whittaker form, so pdf/cdf can be asked for on arbitrary grids.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .eigensolver import _itp, dominant_eigenvalue
from .errors import ConvergenceError, DomainError
from .specfun import ModelParams, WhittakerIndex, whittaker_w_scaled

__all__ = [
    "QsdSolution",
    "build_solution",
    "pdf",
    "cdf",
    "moments",
    "mean",
    "variance",
    "mode",
    "boundary_flux_identity",
]

MAX_MOMENT_ORDER = 50
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class QsdSolution(namedtuple("QsdSolution", "params se denom w0 w1 w2")):
    """Handle through which all pdf/cdf/moment evaluation flows: model
    parameters, the solver's eigenvalue and spectral index, the
    normalization denominator of the closed-form law, and the Whittaker
    indices W_{0,b}, W_{1,b}, W_{2,b} of the cdf, the pdf and the pdf's
    slope, built once so that their rows cosh(b t_k) v_k^j are computed
    once per law, not per point."""

    __slots__ = ()


def normalization(params: ModelParams, w0: WhittakerIndex) -> float:
    """Normalization denominator D, with ``w0`` the index (0, b) of the
    spectral index; raises :class:`ConvergenceError` unless it is positive."""
    z_a = 2.0 / (params.mu2 * params.A)
    # D = exp(-z_A/2) W_{0,b}(z_A) = exp(-z_A) * scaled W
    denom = math.exp(-z_a) * whittaker_w_scaled(w0, z_a)
    if not (denom > 0.0):
        raise ConvergenceError(f"normalization denominator must be positive, got {denom}")
    return denom


def build_solution(params: ModelParams) -> QsdSolution:
    """Solve the eigenvalue problem and assemble the normalization."""
    se = dominant_eigenvalue(params)
    w0, w1, w2 = (WhittakerIndex(a, se.b) for a in (0, 1, 2))
    return QsdSolution(params=params, se=se, denom=normalization(params, w0), w0=w0, w1=w1, w2=w2)


def pdf(x: float, sol: QsdSolution) -> float:
    """Density q(x); returns 0 outside (0, A) so callers may evaluate on
    arbitrary plotting grids.  q(0+) = 0 and q(A) = 0 exactly.  Clamped at
    0, which rounding in the closed form undershoots just below A.  Raises
    :class:`DomainError` for x = nan."""
    if not (0.0 < x < sol.params.A):
        if x != x:
            raise DomainError("position x must not be nan")
        return 0.0
    mu2 = sol.params.mu2
    z = 2.0 / (mu2 * x)
    if z > 1400.0:
        return 0.0
    # (1/x) e^{-z/2} W_1(z) = (mu^2 z^2 / 2) e^{-z} * scaled W
    q = 0.5 * mu2 * z * z * math.exp(-z) * whittaker_w_scaled(sol.w1, z) / sol.denom
    return q if q > 0.0 else 0.0


def cdf(x: float, sol: QsdSolution) -> float:
    """Distribution function Q(x): 0 for x <= 0, 1 for x >= A.  Clamped to
    at most 1, which rounding in the closed form overshoots just below A.
    Raises :class:`DomainError` for x = nan."""
    if not (0.0 < x < sol.params.A):
        if x != x:
            raise DomainError("position x must not be nan")
        return 0.0 if x <= 0.0 else 1.0
    z = 2.0 / (sol.params.mu2 * x)
    if z > 1400.0:
        return 0.0
    q = math.exp(-z) * whittaker_w_scaled(sol.w0, z) / sol.denom
    return q if q < 1.0 else 1.0


def moments(sol: QsdSolution, n_max: int) -> tuple:
    """Moments (M_0, ..., M_n_max) by the forward recurrence

        M_n [mu^2 n(n-1)/2 - lam] + n M_{n-1} = -lam A^n,  M_0 = 1.

    The denominator is bounded away from zero for lam <= 0, so the recursion
    has no singularity; growth M_n ~ A^n caps the order at 50, and at the
    largest n with A^n finite when that is lower.  Raises
    :class:`DomainError` unless n_max is a plain int in range.
    """
    if not (type(n_max) is int and n_max >= 0):  # bool is an int subclass
        raise DomainError(f"moment order must be a nonnegative int, got {n_max!r}")
    if n_max > MAX_MOMENT_ORDER:
        raise DomainError(
            f"moment order {n_max} exceeds cap {MAX_MOMENT_ORDER} (A^n overflow guard)"
        )
    lam = sol.se.lam
    A, mu2 = sol.params.A, sol.params.mu2
    if A > 1.0 and n_max * math.log(A) > _LOG_FLOAT_MAX:
        raise DomainError(
            f"moment order {n_max} overflows at A = {A:.6g}: A^n is finite only up to "
            f"n = {int(_LOG_FLOAT_MAX / math.log(A))}"
        )
    ms = [1.0]
    for n in range(1, n_max + 1):
        m = (-lam * A**n - n * ms[-1]) / (0.5 * mu2 * n * (n - 1) - lam)
        ms.append(m)
    return tuple(ms)


def mean(sol: QsdSolution) -> float:
    """Closed form M_1 = A + 1/lam."""
    return sol.params.A + 1.0 / sol.se.lam


def variance(sol: QsdSolution) -> float:
    """Closed form Var = -(mu^2 (A + 1/lam)^2 + 1/lam) / (mu^2 - lam)."""
    lam, mu2 = sol.se.lam, sol.params.mu2
    m1 = sol.params.A + 1.0 / lam
    return -(mu2 * m1 * m1 + 1.0 / lam) / (mu2 - lam)


def mode(sol: QsdSolution) -> float:
    """Unique interior maximizer of the density.

    The derivative of q is proportional to W_{2,b}(2/(mu^2 x)): positive as
    x -> 0+ and negative at x = A, where A^2 (mu^2/2) q'(A) = lam < 0, with
    exactly one sign change between.  The root is bracketed by [x_lo, A]
    with x_lo at z = 1e4 (clipped to A/2), both end signs are checked, and
    the eigensolver's ITP routine narrows it to adjacent doubles.  A mode
    takes 10-22 evaluations of W_2, the two ends included, at 1001
    log-spaced c from 0.5 to 1e9, except in a narrow pocket near c = 0.53
    where ITP falls back to bisection's pace (57).  Raises
    :class:`ConvergenceError` when an end sign is wrong.
    """
    A, mu2, w2 = sol.params.A, sol.params.mu2, sol.w2

    def slope_sign(x):
        # q'(x) is a positive multiple of W_{2,b}(2/(mu^2 x)); the scaled
        # form carries the same sign
        return whittaker_w_scaled(w2, 2.0 / (mu2 * x))

    lo = min(2.0 / (mu2 * 1e4), 0.5 * A)
    f_lo, f_a = slope_sign(lo), slope_sign(A)
    if not (f_lo > 0.0 and f_a < 0.0):
        raise ConvergenceError(
            f"density slope signs {f_lo:+.3e} at x={lo:.6g} and {f_a:+.3e} at A={A:.6g} "
            "do not bracket the mode"
        )
    return _itp(slope_sign, lo, A, f_lo, f_a)[0]


def boundary_flux_identity(sol: QsdSolution) -> float:
    """A^2 (mu^2/2) q'(A), from q'(x) = (mu^2/2)^2 z^2 e^{-z/2} W_{2,b}(z) / D
    at z = 2/(mu^2 x) (the slope whose root is :func:`mode`): with z_A =
    2/(mu^2 A) it is (mu^2/2) e^{-z_A} z_A^2 W~_2(z_A) / D, W~_2 the scaled
    W_{2,b}.
    Equals the dominant eigenvalue (tested at 3e-12 relative)."""
    mu2 = sol.params.mu2
    z_a = 2.0 / (mu2 * sol.params.A)
    return 0.5 * mu2 * math.exp(-z_a) * z_a * z_a * whittaker_w_scaled(sol.w2, z_a) / sol.denom
