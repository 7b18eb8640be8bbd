"""Large-threshold asymptotics.

For small |lam| the Whittaker numerator of the exact density is, with
u = 2/(mu^2 x) and Lambda = lam/mu^2, one polynomial in Lambda at u:

    W_{1, xi(lam)/2}(u) = 2 e^{-u/2} P(Lambda; u) + O(Lambda^4),
    P(Lambda; u) = u/2 + Lambda + 2 L(u) Lambda^2 + 4 [G(u) - 2 L(u)] Lambda^3,

where G is the Laplace-log integral and L the correction kernel from
:mod:`qsd_sr.specfun`.  The order-k truncation P_k is its first k + 1 terms
(:func:`_truncation`), and every order-k approximation reads it.  At x = A,
u = 2/c with c = mu^2 A, and mu^2 times a root of P_k in Lambda gives

    lam*   = -1/A                     (the root of P_1),
    lam**  = the root of P_2 closest to zero,
    lam*** = the unique real root of P_3,

and the order-k density is u e^{-u} mu^2 P_k(lam_k/mu^2; u) / D, D being the
exact law's normalization at lam_k.  The coefficients come from the
index-derivative identities at b = 1/2:

    d W_{1,b}/db     = e^{-x/2},
    d^2 W_{1,b}/db^2 = 2 e^{-x/2} { e^x E1(x) + x G(x) },
    d^3 W_{1,b}/db^3 = 6 e^{-x/2} G(x).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .eigensolver import _check_domain, _index_b
from .errors import DomainError, ThresholdTooSmallError
from .qsd import normalization
from .specfun import (
    ModelParams,
    WhittakerIndex,
    _g_and_l,
    meijer_g_special,
)

__all__ = [
    "ApproxSolution",
    "lambda_order1",
    "lambda_order2",
    "lambda_order3",
    "whittaker_expansion3",
    "build_approx",
]


class ApproxSolution(namedtuple("ApproxSolution", "order lambda_approx params denom")):
    """Approximation order (1, 2 or 3), the corresponding approximate
    eigenvalue, the model parameters and the density's normalization."""

    __slots__ = ()

    def pdf(self, x: float) -> float:
        """Order-k density at x; :func:`approx_pdfs` of this one solution."""
        return approx_pdfs((self,), x)[0]


def approx_pdfs(sols, x: float) -> list:
    """The order-k densities u e^{-u} mu^2 P_k(lam/mu^2; u) / D, u = 2/(mu^2 x),
    at x of ``sols``, approximate solutions of one model, from one
    :func:`_truncation` at their highest order.  Each is 0 outside (0, A),
    and exactly 0 at A, where P_k vanishes by construction of lam_k; clamped
    at 0, which rounding undershoots.  Raises :class:`DomainError` for
    x = nan."""
    if not (sols and 0.0 < x < sols[0].params.A):
        if x != x:
            raise DomainError("position x must not be nan")
        return [0.0] * len(sols)
    mu2 = sols[0].params.mu2
    u = 2.0 / (mu2 * x)
    pre = mu2 * u * math.exp(-u) if u < 745.0 else 0.0
    # the highest order: ApproxSolutions compare by order first; one alone skips max()
    coef = _truncation(u, sols[0].order if len(sols) == 1 else max(sols).order)
    out = []
    for order, lam, _, denom in sols:
        q = pre * _horner(coef, order, lam / mu2) / denom
        out.append(q if q > 0.0 else 0.0)
    return out


def _truncation(u: float, order: int) -> tuple:
    """The coefficients (u/2, 1, 2 L(u), 4 (G(u) - 2 L(u))) of P(Lambda; u),
    cut after Lambda^order; G and L come from one evaluation of G, made
    only for order 2 or 3.  One tuple per order: a slice costs more."""
    if order < 2:
        return 0.5 * u, 1.0
    gee, ell = _g_and_l(u)
    if order == 2:
        return 0.5 * u, 1.0, 2.0 * ell
    return 0.5 * u, 1.0, 2.0 * ell, 4.0 * (gee - 2.0 * ell)


def _horner(coef, order: int, t: float) -> float:
    """P_order at Lambda = t, by Horner's rule, from a truncation of order >= it."""
    p = coef[order]
    while order:
        order -= 1
        p = p * t + coef[order]
    return p


def lambda_order1(params: ModelParams) -> float:
    """First-order eigenvalue approximation -1/A (drift-independent)."""
    return -1.0 / params.A


def lambda_order2(params: ModelParams) -> float:
    """Second-order approximation: mu^2 times the root closest to zero of
    P_2 = c0 + Lambda + c2 Lambda^2 at u = 2/c, c = mu^2 A, computed as
    -2 / (c (1 + sqrt(disc))): the textbook form -(1 - sqrt(disc)) / (2 c2)
    rationalized, which loses no digits to 1 - sqrt(disc) as c grows.  Like
    the exact solver, it is solved in c alone and scaled by mu^2 once at the
    end, so lam(mu, A) = mu^2 lam(1, c) bit for bit.  Raises
    :class:`ThresholdTooSmallError` when the discriminant
    disc = 1 - 4 c0 c2 = 1 - (8/c) L(2/c) is negative (no real roots), and
    :class:`DomainError` for c outside [C_MIN, C_MAX], like the exact solver."""
    _check_domain(params)
    c = params.mu2 * params.A
    c0, _, c2 = _truncation(2.0 / c, 2)
    disc = 1.0 - 4.0 * c0 * c2
    if disc < 0.0:
        raise ThresholdTooSmallError(
            f"quadratic eigenvalue correction has no real roots at mu={params.mu}, "
            f"A={params.A} (discriminant {disc:.6g})"
        )
    return params.mu2 * (-2.0 / (c * (1.0 + math.sqrt(disc))))


def lambda_order3(params: ModelParams) -> float:
    """Third-order approximation: mu^2 times the unique real root of
    P_3 = c0 + Lambda + c2 Lambda^2 + c3 Lambda^3 at u = 2/c, found in closed
    form and polished with one Newton step.  Like :func:`lambda_order2`, it
    is solved in c = mu^2 A alone and scaled by mu^2 once at the end.

    Raises :class:`ThresholdTooSmallError` when the cubic has three real
    roots (the truncation is then ambiguous) or degenerates, and
    :class:`DomainError` for c outside [C_MIN, C_MAX].  Note the leading
    coefficient is positive for large A; uniqueness of the real root is
    decided by the discriminant, not the coefficient sign.
    """
    _check_domain(params)
    c = params.mu2 * params.A
    c0, _, c2, c3 = _truncation(2.0 / c, 3)
    if c3 == 0.0:
        raise ThresholdTooSmallError(
            f"cubic eigenvalue correction degenerates at mu={params.mu}, A={params.A}"
        )
    # depressed form t^3 + p t + q, Lambda = t - c2/(3 c3)
    shift = c2 / (3.0 * c3)
    p = (3.0 * c3 - c2 * c2) / (3.0 * c3 * c3)
    q = (2.0 * c2**3 - 9.0 * c3 * c2 + 27.0 * c3 * c3 * c0) / (27.0 * c3**3)
    disc = (q * q) / 4.0 + (p**3) / 27.0
    if disc <= 0.0:
        # three real roots (counting multiplicity): no single real solution
        raise ThresholdTooSmallError(
            f"cubic eigenvalue correction has three real roots at mu={params.mu}, "
            f"A={params.A} (discriminant {disc:.6g}, coefficients of lam/mu^2 "
            f"{c3:.6g}, {c2:.6g}, 1, {c0:.6g})"
        )
    s = math.sqrt(disc)
    # pick the larger-magnitude cube root to avoid cancellation
    u1 = -0.5 * q + s if q <= 0.0 else -0.5 * q - s
    t1 = math.copysign(abs(u1) ** (1.0 / 3.0), u1)
    t = t1 - p / (3.0 * t1)
    root = t - shift
    # one Newton polish on the cubic
    f = ((c3 * root + c2) * root + 1.0) * root + c0
    df = (3.0 * c3 * root + 2.0 * c2) * root + 1.0
    if df != 0.0:
        root -= f / df
    return params.mu2 * root


def whittaker_expansion3(x: float, lam: float, params: ModelParams) -> float:
    """Third-order truncation 2 e^{-u/2} P_3 of W_{1, xi(lam)/2}(2/(mu^2 x))."""
    if not (0.0 < x < math.inf):
        raise DomainError(f"x must be finite and positive, got {x}")
    u = 2.0 / (params.mu2 * x)
    return 2.0 * math.exp(-0.5 * u) * _horner(_truncation(u, 3), 3, lam / params.mu2)


def _index_derivative_scaled(k: int, x: float) -> float:
    """Closed form of the k-th derivative of W_{1,b}(x) in b at b = 1/2
    without its factor e^{-x/2}, which underflows to 0 above x = 1491:
    1, 2 (e^x E1(x) + x G(x)) and 6 G(x) for k = 1, 2, 3.  Raises
    :class:`DomainError` unless x is finite and positive."""
    if not (0.0 < x < math.inf):
        raise DomainError(f"x must be finite and positive, got {x}")
    if k == 1:
        return 1.0
    if k == 2:
        # e^x E1(x) + x G(x) = L(x) + 1
        return 2.0 * (_g_and_l(x)[1] + 1.0)
    if k == 3:
        return 6.0 * meijer_g_special(x)
    raise DomainError(f"derivative order must be 1, 2 or 3, got {k}")


# order -> eigenvalue approximation; the one dispatch for every order-k caller
LAMBDA_BY_ORDER = {1: lambda_order1, 2: lambda_order2, 3: lambda_order3}


def build_approx(params: ModelParams, order: int) -> ApproxSolution:
    """Assemble the order-1/2/3 approximate solution (eigenvalue plus the
    exact-law normalization denominator evaluated at that eigenvalue).
    Raises :class:`DomainError` for mu^2 A outside [C_MIN, C_MAX], like the
    exact law, and unless ``order`` is the int 1, 2 or 3.  Inside that
    domain every order's eigenvalue is negative, so :func:`_index_b` takes
    it as it is and its DomainError guards a positive one."""
    if type(order) is not int or order not in LAMBDA_BY_ORDER:  # 2.0 and True hash as ints
        raise DomainError(f"approximation order must be the int 1, 2 or 3, got {order!r}")
    _check_domain(params)
    lam = LAMBDA_BY_ORDER[order](params)
    denom = normalization(params, WhittakerIndex(0, _index_b(lam, params.mu2)))
    return ApproxSolution(order=order, lambda_approx=lam, params=params, denom=denom)
