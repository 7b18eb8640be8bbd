"""Dominant eigenvalue of the killed diffusion generator.

The eigenvalue is the largest nonpositive root lam of

    W_{1, xi(lam)/2}( 2/(mu^2 A) ) = 0,      xi(lam) = sqrt(1 + 8 lam/mu^2),

searched inside the closed-form bracket obtained from non-negativity of the
law's variance.  One 65-node uniform scan of the bracket locates every sign
change (the bracket provably contains the dominant root, but uniqueness
inside it is an empirical matter, hence the runtime check); the single sign
change is polished by bisection followed by secant steps.  Every evaluation
shares one argument z_A, so the terms of the kernel's trapezoid sum are
computed once per solve and each evaluation only weights them by cosh(b t_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .errors import AmbiguousRootError, BracketError, DomainError
from .specfun import ModelParams, SpectralIndex, _cosh_bts, _w_terms

__all__ = [
    "EigenBracket",
    "EigenResult",
    "eigen_bracket",
    "dominant_eigenvalue",
]

# root tolerance of the polish, and the number of scan intervals
ROOT_TOL = 1e-13
SCAN_NODES = 64

# Smallest c = mu^2 A accepted: the domain checked against the oracles.
# Below it the imaginary second index grows and the kernel's sum of
# cos(|b| t_k)-weighted terms cancels by about exp(pi |b| / 2).  Measured
# with quad: |int q - 1| is 7e-16 at c = 0.5, 1e-15 at 0.3 and 3.6e-7 at
# 0.12, where |b| = 11.2 and lam = -63.201 (the grid oracle gives -63.2).
C_MIN = 0.5


@dataclass(frozen=True)
class EigenBracket:
    """Closed-form bounds -1/A - (1 +- sqrt(4 mu^2 A + 1))/(2 mu^2 A^2)."""

    lo: float
    hi: float


@dataclass(frozen=True)
class EigenResult:
    lam: float
    residual: float
    iterations: int
    bracket: EigenBracket


def eigen_bracket(params: ModelParams) -> EigenBracket:
    """Analytic bracket for the dominant eigenvalue."""
    mu2, A = params.mu2, params.A
    root = math.sqrt(4.0 * mu2 * A + 1.0)
    lo = -1.0 / A - (1.0 + root) / (2.0 * mu2 * A * A)
    hi = -1.0 / A - (1.0 - root) / (2.0 * mu2 * A * A)
    return EigenBracket(lo=lo, hi=hi)


def _check_domain(params: ModelParams) -> None:
    """Raise :class:`DomainError` unless c = mu^2 A >= C_MIN."""
    c = params.mu2 * params.A
    if not (c >= C_MIN):
        raise DomainError(f"mu^2 A = {c:.6g} lies below the checked domain mu^2 A >= {C_MIN}")


def _eigen_terms(params: ModelParams) -> tuple:
    """Nodes t_k and weights w_k with W_{1,b}(z_A) = sum_k w_k cosh(b t_k)
    for every b of the bracket, z_A = 2/(mu^2 A)."""
    z = 2.0 / (params.mu2 * params.A)
    ts, ws = _w_terms(1, z)
    scale = math.exp(-0.5 * z) * z  # W_1 = exp(-z/2) z * scaled W_1
    return ts, [scale * w for w in ws]


def _eigen_equation(lam: float, params: ModelParams, terms: tuple) -> float:
    """W_{1,b}(z_A) at b = xi(lam)/2, from the terms of :func:`_eigen_terms`;
    the scan and the polish evaluate the equation only through here."""
    ts, ws = terms
    b = SpectralIndex.from_lambda(lam, params.mu).b
    return sum(map(mul, ws, _cosh_bts(b, ts)))


def _polish(f, a: float, b: float, fa: float, fb: float, tol: float):
    """Bisection to near tolerance, then secant refinement inside the
    retained sign-change interval.  Returns (root, evaluations)."""
    evals = 0
    while b - a > max(tol, 1e-16 * max(abs(a), abs(b))):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = f(m)
        evals += 1
        if fm == 0.0:
            return m, evals
        if (fa < 0.0) != (fm < 0.0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    # a couple of secant steps squeeze out the last digits
    x0, f0, x1, f1 = a, fa, b, fb
    for _ in range(3):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (a <= x2 <= b):
            break
        f2 = f(x2)
        evals += 1
        if f2 == 0.0:
            return x2, evals
        x0, f0, x1, f1 = x1, f1, x2, f2
    return 0.5 * (a + b) if abs(f1) > abs(f0) else x1, evals


def dominant_eigenvalue(params: ModelParams) -> EigenResult:
    """Locate the dominant (largest nonpositive) eigenvalue.

    Evaluates the eigen equation at the 65 nodes of a uniform 64-interval
    grid over the analytic bracket.  Exactly one sign change is polished to
    the fixed root tolerance ROOT_TOL.  No sign change raises
    :class:`BracketError`; several raise :class:`AmbiguousRootError` with
    every candidate polished.  A finer grid cannot help: it contains every
    node of the coarser one, so it only keeps or adds sign changes.  Raises
    :class:`DomainError` below ``c = mu^2 A = C_MIN``.
    """
    _check_domain(params)
    br = eigen_bracket(params)
    terms = _eigen_terms(params)

    def eq(lam):
        return _eigen_equation(lam, params, terms)

    xs = [br.lo + (br.hi - br.lo) * i / SCAN_NODES for i in range(SCAN_NODES + 1)]
    vs = [eq(x) for x in xs]
    intervals = []
    for i in range(SCAN_NODES):
        if vs[i] == 0.0:
            intervals.append((xs[i], xs[i], vs[i], vs[i]))
        elif vs[i + 1] != 0.0 and (vs[i] < 0.0) != (vs[i + 1] < 0.0):
            intervals.append((xs[i], xs[i + 1], vs[i], vs[i + 1]))
    if vs[-1] == 0.0:
        intervals.append((xs[-1], xs[-1], 0.0, 0.0))
    if not intervals:
        raise BracketError(br.lo, br.hi, vs[0], vs[-1])
    roots = [(a, 0) if a == b else _polish(eq, a, b, fa, fb, ROOT_TOL)
             for a, b, fa, fb in intervals]
    if len(roots) > 1:
        raise AmbiguousRootError(sorted(r for r, _ in roots))

    lam, more = roots[0]
    lam = min(lam, 0.0)
    return EigenResult(
        lam=lam,
        residual=abs(eq(lam)),
        iterations=SCAN_NODES + 1 + more,
        bracket=br,
    )
