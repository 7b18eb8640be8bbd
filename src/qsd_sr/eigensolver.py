"""Dominant eigenvalue of the killed diffusion generator.

The eigenvalue is the largest nonpositive root lam of

    W_{1, xi(lam)/2}( 2/(mu^2 A) ) = 0,      xi(lam) = sqrt(1 + 8 lam/mu^2).

The pair (mu, A) enters only through c = mu^2 A and lam only through
s = xi^2 = 1 + 8 lam/mu^2, so the solve runs in s at z_A = 2/c and forms
lam = mu^2 (s - 1)/8 and the law's index b = sqrt(s)/2 once at the end:
lam(mu, A) = mu^2 lam(1, c), and b, bit for bit whenever mu^2 A is the same
double.  The root is searched inside the closed-form bracket obtained from
non-negativity of the law's variance.  One 65-node uniform scan of the
bracket must find exactly one sign change (the bracket provably contains
the dominant root; that it holds no other is measured, not proved, so the
count is checked on every solve); that sign change is narrowed by ITP
(:func:`_itp`, the routine :func:`qsd.mode` shares) until its ends are
adjacent doubles, which leaves lam within about eps c/8 relative of the
true root.  Every evaluation shares the argument z_A, so the terms of the
kernel's trapezoid sum are computed once per solve and each evaluation only
weights them by cosh(b t_k), b = sqrt(s)/2.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from operator import mul

from .errors import BracketError, DomainError
from .specfun import C_MAX, C_MIN, ModelParams, _cosh_bts, _w_terms

__all__ = [
    "EigenBracket",
    "EigenResult",
    "eigen_bracket",
    "dominant_eigenvalue",
]

# the number of scan intervals
SCAN_NODES = 64
# The bracket width, in ulps of its larger end, at which _itp stops
# interpolating.  Rounding noise gives the eigen equation up to 5 sign
# changes over up to 17 ulps of s around its root (1001 log-spaced c in
# [C_MIN, C_MAX]); this is the smallest power of two whose half spans that.
ENDGAME_ULPS = 64


class EigenBracket(namedtuple("EigenBracket", "lo hi")):
    """Closed-form bounds -1/A - (1 +- sqrt(4 mu^2 A + 1))/(2 mu^2 A^2)."""

    __slots__ = ()


class EigenResult(namedtuple("EigenResult", "lam b residual iterations")):
    """The dominant eigenvalue lam and its second Whittaker index
    b = xi(lam)/2, both formed from the solver's root s = xi^2, so the law
    depends on (mu, A) only through c = mu^2 A; plus the residual |W| at the
    root and the count of equation evaluations: the scan's 65 plus the ITP
    steps."""

    __slots__ = ()


def _s_bracket(c: float) -> tuple:
    """The bracket of s = 1 + 8 lam/mu^2 in c = mu^2 A:
    1 - 8/c - 4 (1 +- sqrt(4c + 1))/c^2."""
    r = math.sqrt(4.0 * c + 1.0)
    return (1.0 - 8.0 / c - 4.0 * (1.0 + r) / (c * c),
            1.0 - 8.0 / c - 4.0 * (1.0 - r) / (c * c))


def _lam(s: float, mu2: float) -> float:
    """lam = mu^2 (s - 1)/8, the one map from s back to the eigenvalue."""
    return mu2 * (s - 1.0) / 8.0


def _index_b(lam: float, mu2: float) -> complex:
    """b = sqrt(s)/2 at s = 1 + 8 lam/mu^2, for an eigenvalue that does not
    come from the solver, such as an approximation's; raises
    :class:`DomainError` for lam > 0."""
    if lam > 0.0:
        raise DomainError(f"eigenvalue must be nonpositive, got {lam}")
    return 0.5 * cmath.sqrt(1.0 + 8.0 * lam / mu2)


def eigen_bracket(params: ModelParams) -> EigenBracket:
    """Analytic bracket for the dominant eigenvalue; DomainError outside the solver's domain."""
    mu2 = params.mu2
    lo, hi = _s_bracket(_check_domain(params))
    return EigenBracket(lo=_lam(lo, mu2), hi=_lam(hi, mu2))


def _check_domain(params: ModelParams) -> float:
    """c = mu^2 A, the one parameter of the eigenvalue and of its
    approximations; raises :class:`DomainError` unless
    C_MIN <= c <= C_MAX."""
    c = params.mu2 * params.A
    if not (c >= C_MIN):
        raise DomainError(f"mu^2 A = {c!r} lies below the checked domain mu^2 A >= {C_MIN}")
    if not (c <= C_MAX):
        raise DomainError(f"mu^2 A = {c!r} lies above the checked domain mu^2 A <= {C_MAX:g}")
    return c


def _eigen_terms(c: float) -> tuple:
    """Nodes t_k and weights w_k with W_{1,b}(z_A) = sum_k w_k cosh(b t_k)
    for every b of the bracket, z_A = 2/c."""
    z = 2.0 / c
    ts, ws = _w_terms(1, z)
    scale = math.exp(-0.5 * z) * z  # W_1 = exp(-z/2) z * scaled W_1
    return ts, [scale * w for w in ws]


def _eigen_equation(s: float, terms: tuple) -> float:
    """W_{1,b}(z_A) at b = sqrt(s)/2, imaginary for s < 0, from the terms
    of :func:`_eigen_terms`; the scan and the polish evaluate the equation
    only through here."""
    ts, ws = terms
    return sum(map(mul, ws, _cosh_bts(0.5 * cmath.sqrt(s), ts)))


def _itp(f, a: float, b: float, fa: float, fb: float):
    """Narrow the sign change of f on [a, b] to adjacent doubles, or to a
    point where f vanishes, by ITP (Oliveira and Takahashi, ACM TOMS 47(1),
    2020) with k1 = 0.2/(b - a), k2 = 2 and n0 = 1.  Each step takes the
    regula falsi point, moves it towards the midpoint by
    delta = k1 (b - a)^2, and projects it into the radius about the
    midpoint that keeps the bracket after j steps no wider than bisection's
    after j - n0: a stalled interpolation costs at most n0 steps more than
    bisection.  Within ENDGAME_ULPS ulps of the root the sign of f can be
    rounding noise, so delta is at least half that width (a step from one
    side of the noise clears it) and a bracket that narrow is bisected.
    Returns (root, |f(root)|, evaluations), the root being the end with the
    smaller |f|."""
    evals = 0
    k1 = 0.2 / (b - a)
    envelope = 2.0 * (b - a)  # 2^n0 (b - a), halved before each step
    while a < (m := 0.5 * (a + b)) < b:
        w = b - a
        envelope *= 0.5
        x = m
        endgame = ENDGAME_ULPS * math.ulp(max(-a, b))
        if w > endgame:
            xf = a + w * (fa / (fa - fb))  # regula falsi
            delta = max(k1 * w * w, 0.5 * endgame)
            xt = min(xf + delta, m) if xf < m else max(xf - delta, m)  # truncation
            r = envelope - 0.5 * w
            xi = min(max(xt, m - r), m + r)  # projection
            if a < xi < b:  # false for nan from an infinite end value
                x = xi
        fx = f(x)
        evals += 1
        if fx == 0.0:
            return x, 0.0, evals
        if (fa < 0.0) != (fx < 0.0):
            b, fb = x, fx
        else:
            a, fa = x, fx
    return (a, abs(fa), evals) if abs(fa) <= abs(fb) else (b, abs(fb), evals)


def dominant_eigenvalue(params: ModelParams) -> EigenResult:
    """Locate the dominant (largest nonpositive) eigenvalue.

    Works in s = 1 + 8 lam/mu^2 at c = mu^2 A.  Evaluates the eigen equation
    at the 65 nodes of a uniform 64-interval grid over the analytic bracket
    and counts its sign changes, an exact 0 counting as positive, as in
    :func:`_itp`.  Exactly one is narrowed by ITP down to adjacent doubles in
    s, so lam carries about eps c/8 relative error; a solve takes 71-85
    evaluations (mean 77.5 over 1001 log-spaced c from 0.5 to 1e9), of
    which the scan is 65.  Any other count raises :class:`BracketError`
    with the count as ``changes``, after the scan's 65 evaluations.  Raises
    :class:`DomainError` for ``c = mu^2 A`` outside [C_MIN, C_MAX].
    """
    c = _check_domain(params)
    mu2 = params.mu2
    lo, hi = _s_bracket(c)
    terms = _eigen_terms(c)

    def eq(s):
        return _eigen_equation(s, terms)

    xs = [lo + (hi - lo) * i / SCAN_NODES for i in range(SCAN_NODES + 1)]
    vs = [eq(x) for x in xs]
    flips = [i for i in range(SCAN_NODES) if (vs[i] < 0.0) != (vs[i + 1] < 0.0)]
    if len(flips) != 1:
        raise BracketError(_lam(lo, mu2), _lam(hi, mu2), vs[0], vs[-1], len(flips))
    (i,) = flips
    s, residual, more = _itp(eq, xs[i], xs[i + 1], vs[i], vs[i + 1])
    return EigenResult(
        lam=_lam(s, mu2),
        b=0.5 * cmath.sqrt(s),
        residual=residual,
        iterations=SCAN_NODES + 1 + more,
    )
