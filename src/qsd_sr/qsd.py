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

from .eigensolver import _polish, dominant_eigenvalue
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
    slope, built once so that their factors cosh(b t_k) are computed once
    per law."""

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


def _density(x: float, sol: QsdSolution) -> float:
    # the closed form at 0 < x <= A, unclamped
    mu2 = sol.params.mu2
    z = 2.0 / (mu2 * x)
    if z > 1400.0:
        return 0.0
    # (1/x) e^{-z/2} W_1(z) = (mu^2 z^2 / 2) e^{-z} * scaled W
    w = whittaker_w_scaled(sol.w1, z)
    return 0.5 * mu2 * z * z * math.exp(-z) * w / sol.denom


def pdf(x: float, sol: QsdSolution) -> float:
    """Density q(x); returns 0 outside (0, A) so callers may evaluate on
    arbitrary plotting grids.  q(0+) = 0 and q(A) = 0 exactly.  Clamped at
    0, which rounding in the closed form undershoots just below A.  Raises
    :class:`DomainError` for x = nan."""
    if not (0.0 < x < sol.params.A):
        if x != x:
            raise DomainError("position x must not be nan")
        return 0.0
    return max(0.0, _density(x, sol))


def cdf(x: float, sol: QsdSolution) -> float:
    """Distribution function Q(x): 0 for x <= 0, 1 for x >= A.  Clamped to
    at most 1, which rounding in the closed form overshoots just below A.
    Raises :class:`DomainError` for x = nan."""
    A, mu2 = sol.params.A, sol.params.mu2
    if not (0.0 < x < A):
        if x != x:
            raise DomainError("position x must not be nan")
        return 0.0 if x <= 0.0 else 1.0
    z = 2.0 / (mu2 * x)
    if z > 1400.0:
        return 0.0
    w = whittaker_w_scaled(sol.w0, z)
    return min(1.0, math.exp(-z) * w / sol.denom)


def moments(sol: QsdSolution, n_max: int) -> tuple:
    """Moments (M_0, ..., M_n_max) by the forward recurrence

        M_n [mu^2 n(n-1)/2 - lam] + n M_{n-1} = -lam A^n,  M_0 = 1.

    The denominator is bounded away from zero for lam <= 0, so the recursion
    has no singularity; growth M_n ~ A^n caps the order at 50, and at the
    largest n with A^n finite when that is lower.
    """
    from numbers import Integral  # here, not at import: the CLI never needs it
    if not (isinstance(n_max, Integral) and n_max >= 0):
        raise DomainError(f"moment order must be a nonnegative integer, got {n_max}")
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


def _slope_sign(x: float, sol: QsdSolution) -> float:
    # q'(x) is a positive multiple of W_{2,b}(2/(mu^2 x)); the scaled form
    # carries the same sign
    z = 2.0 / (sol.params.mu2 * x)
    return whittaker_w_scaled(sol.w2, z)


def mode(sol: QsdSolution) -> float:
    """Unique interior maximizer of the density.

    The derivative of q is proportional to W_{2,b}(2/(mu^2 x)): positive as
    x -> 0+ and negative at x = A, where A^2 (mu^2/2) q'(A) = lam < 0, with
    exactly one sign change between.  The root is bracketed by [x_lo, A]
    with x_lo at z = 1e4 (clipped to A/2), both end signs are checked, and
    it is bisected by the eigensolver's routine down to adjacent doubles
    (55-85 evaluations of W_2 for c from 0.5 to 1e9).  Raises
    :class:`ConvergenceError` when an end sign is wrong.
    """
    A = sol.params.A
    lo = min(2.0 / (sol.params.mu2 * 1e4), 0.5 * A)
    f_lo, f_a = _slope_sign(lo, sol), _slope_sign(A, sol)
    if not (f_lo > 0.0 and f_a < 0.0):
        raise ConvergenceError(
            f"density slope signs {f_lo:+.3e} at x={lo:.6g} and {f_a:+.3e} at A={A:.6g} "
            "do not bracket the mode"
        )
    return _polish(lambda x: _slope_sign(x, sol), lo, A, f_lo, f_a)[0]


def boundary_flux_identity(sol: QsdSolution) -> float:
    """A^2 (mu^2/2) q'(A), with q'(A) from a one-sided 4-point stencil of
    step 1e-5 A on the unclamped closed form, whose rounding offset at A the
    stencil cancels.  Equals the dominant eigenvalue (tested at 1e-5
    relative)."""
    A, mu2 = sol.params.A, sol.params.mu2
    h = 1e-5 * A
    q0 = _density(A, sol)
    q1 = _density(A - h, sol)
    q2 = _density(A - 2.0 * h, sol)
    q3 = _density(A - 3.0 * h, sol)
    dq = (11.0 * q0 - 18.0 * q1 + 9.0 * q2 - 2.0 * q3) / (6.0 * h)
    return A * A * 0.5 * mu2 * dq
