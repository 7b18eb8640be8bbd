"""Large-threshold asymptotics.

For small |lam| the Whittaker numerator of the exact density admits the
third-order expansion (u = 2/(mu^2 x))

    W_{1, xi(lam)/2}(u) = (2/mu^2) e^{-u/2} { 1/x + lam
                          + (2/mu^2) L(u) lam^2
                          + (2/mu^2)^2 [G(u) - 2 L(u)] lam^3 } + O(lam^4),

where G is the Laplace-log integral and L the correction kernel from
:mod:`qsd_sr.specfun`.  Truncating the eigenvalue equation at orders 1, 2, 3
yields the approximations

    lam*   = -1/A,
    lam**  = the near-zero root of  (2/mu^2) L lam^2 + lam + 1/A = 0,
    lam*** = the unique real root of the cubic with the lam^3 term included,

and substituting each truncation back into the density formula yields the
order-1/2/3 density approximations.  The expansion coefficients come from the
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
    """The order-k densities (2/(mu^2 x)) e^{-2/(mu^2 x)} {1/x + lam + ...} / D
    at x of ``sols``, approximate solutions of one model, with the expansion
    kernels evaluated once, and only when some order is 2 or 3.  Each is 0
    outside (0, A), and exactly 0 at A, where the order-k bracket vanishes
    by construction of lam_k; clamped at 0, which rounding undershoots.
    Raises :class:`DomainError` for x = nan."""
    if not (sols and 0.0 < x < sols[0].params.A):
        if x != x:
            raise DomainError("position x must not be nan")
        return [0.0] * len(sols)
    mu2 = sols[0].params.mu2
    u = 2.0 / (mu2 * x)
    pre = u * math.exp(-u) if u < 745.0 else 0.0
    kernels = None
    out = []
    for order, lam, _, denom in sols:
        if order >= 2 and kernels is None:
            kernels = _expansion_coefficients(u)
        out.append(max(0.0, pre * _bracket(order, x, lam, mu2, kernels) / denom))
    return out


def _expansion_coefficients(u: float):
    """The kernels of the lam^2 and lam^3 terms, (L(u), G(u) - 2 L(u)), from
    one evaluation of G."""
    gee, ell = _g_and_l(u)
    return ell, gee - 2.0 * ell


def _bracket(order: int, x: float, lam: float, mu2: float, kernels) -> float:
    """{1/x + lam + (2/mu^2) L lam^2 + (2/mu^2)^2 [G - 2L] lam^3} truncated
    after the lam^order term, ``kernels`` being (L, G - 2L) at u = 2/(mu^2 x)."""
    bracket = 1.0 / x + lam
    if order >= 2:
        ell, cubic = kernels
        bracket += 2.0 / mu2 * ell * lam * lam
        if order >= 3:
            bracket += (2.0 / mu2) ** 2 * cubic * lam**3
    return bracket


def lambda_order1(params: ModelParams) -> float:
    """First-order eigenvalue approximation -1/A (drift-independent)."""
    return -1.0 / params.A


def lambda_order2(params: ModelParams) -> float:
    """Second-order approximation: the root closest to zero of the quadratic
    truncation, solved in c = mu^2 A alone for Lambda = lam/mu^2 as
    -2 / (c (1 + sqrt(disc))): the textbook form -(1 - sqrt(disc)) / (4 L)
    rationalized, which loses no digits to 1 - sqrt(disc) as c grows.  Like
    the exact solver, lam = mu^2 Lambda is scaled once at the end, so
    lam(mu, A) = mu^2 lam(1, c) bit for bit.  Raises
    :class:`ThresholdTooSmallError` when the discriminant
    disc = 1 - (8/c) L(2/c) is negative (no real solutions)."""
    c = params.mu2 * params.A
    ell, _ = _expansion_coefficients(2.0 / c)
    disc = 1.0 - 8.0 / c * ell
    if disc < 0.0:
        raise ThresholdTooSmallError(
            f"quadratic eigenvalue correction has no real roots at mu={params.mu}, "
            f"A={params.A} (discriminant {disc:.6g})"
        )
    return params.mu2 * (-2.0 / (c * (1.0 + math.sqrt(disc))))


def lambda_order3(params: ModelParams) -> float:
    """Third-order approximation: the unique real root of the cubic
    truncation, 4 (G - 2L) Lambda^3 + 2 L Lambda^2 + Lambda + 1/c at
    u = 2/c in Lambda = lam/mu^2, found in closed form and polished with one
    Newton step.  Like :func:`lambda_order2`, it is solved in c = mu^2 A
    alone and scaled by mu^2 once at the end.

    Raises :class:`ThresholdTooSmallError` when the cubic has three real
    roots (the truncation is then ambiguous) or degenerates.  Note the
    leading coefficient is positive for large A; uniqueness of the real root
    is decided by the discriminant, not the coefficient sign.
    """
    c = params.mu2 * params.A
    ell, cubic = _expansion_coefficients(2.0 / c)
    c3, c2, c0 = 4.0 * cubic, 2.0 * ell, 1.0 / c
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
    """Third-order truncation of W_{1, xi(lam)/2}(2/(mu^2 x)) around lam = 0."""
    if not (0.0 < x < math.inf):
        raise DomainError(f"x must be finite and positive, got {x}")
    mu2 = params.mu2
    kernels = _expansion_coefficients(2.0 / (mu2 * x))
    return 2.0 / mu2 * math.exp(-1.0 / (mu2 * x)) * _bracket(3, x, lam, mu2, kernels)


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
    Raises :class:`DomainError` below mu^2 A = C_MIN, like the exact law,
    and unless ``order`` is the int 1, 2 or 3."""
    if type(order) is not int or order not in LAMBDA_BY_ORDER:  # 2.0 and True hash as ints
        raise DomainError(f"approximation order must be the int 1, 2 or 3, got {order!r}")
    _check_domain(params)
    lam = LAMBDA_BY_ORDER[order](params)
    denom = normalization(params, WhittakerIndex(0, _index_b(min(lam, 0.0), params.mu2)))
    return ApproxSolution(order=order, lambda_approx=lam, params=params, denom=denom)
