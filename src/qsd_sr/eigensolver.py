"""Dominant eigenvalue of the killed diffusion generator.

The eigenvalue is the largest nonpositive root lam of

    W_{1, xi(lam)/2}( 2/(mu^2 A) ) = 0,      xi(lam) = sqrt(1 + 8 lam/mu^2),

searched inside the closed-form bracket obtained from non-negativity of the
law's variance.  The bracket is scanned on a uniform grid to locate every
sign change (the bracket provably contains the dominant root, but uniqueness
inside it is an empirical matter, hence the runtime check), then the
right-most sign change is polished by bisection followed by secant steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AmbiguousRootError, BracketError, DomainError
from .specfun import (
    ModelParams,
    SpectralIndex,
    WhittakerIndex,
    whittaker_w,
    whittaker_w_scaled,
)

__all__ = [
    "EigenBracket",
    "EigenResult",
    "eigen_bracket",
    "dominant_eigenvalue",
    "eigenfunction",
]

DEFAULT_TOL = 1e-13
SCAN_NODES = 64
MAX_SCAN_NODES = 4096


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


def _eigen_equation(lam: float, params: ModelParams) -> float:
    se = SpectralIndex.from_lambda(lam, params.mu)
    z = 2.0 / (params.mu2 * params.A)
    return whittaker_w(WhittakerIndex(1, se.b), z)


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


def dominant_eigenvalue(params: ModelParams, tol: float = DEFAULT_TOL) -> EigenResult:
    """Locate the dominant (largest nonpositive) eigenvalue.

    Scans the analytic bracket on 64 nodes, doubling the resolution when the
    count of sign changes is not exactly one; raises :class:`BracketError`
    when no sign change exists and :class:`AmbiguousRootError` (with all
    polished candidates) when several persist.
    """
    if not (tol > 0.0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    br = eigen_bracket(params)

    n = SCAN_NODES
    while True:
        xs = [br.lo + (br.hi - br.lo) * i / n for i in range(n + 1)]
        vs = [_eigen_equation(x, params) for x in xs]
        evals = n + 1
        intervals = []
        for i in range(n):
            if vs[i] == 0.0:
                intervals.append((xs[i], xs[i], vs[i], vs[i]))
            elif vs[i + 1] != 0.0 and (vs[i] < 0.0) != (vs[i + 1] < 0.0):
                intervals.append((xs[i], xs[i + 1], vs[i], vs[i + 1]))
        if vs[-1] == 0.0:
            intervals.append((xs[-1], xs[-1], 0.0, 0.0))
        if len(intervals) == 1:
            break
        if len(intervals) == 0:
            if n >= MAX_SCAN_NODES:
                raise BracketError(br.lo, br.hi, vs[0], vs[-1])
        elif n >= MAX_SCAN_NODES:
            roots = []
            for a, b, fa, fb in intervals:
                r = a if a == b else _polish(lambda l: _eigen_equation(l, params), a, b, fa, fb, tol)[0]
                roots.append(r)
            raise AmbiguousRootError(sorted(roots))
        n *= 2

    a, b, fa, fb = intervals[-1]
    if a == b:
        lam = a
    else:
        lam, more = _polish(lambda l: _eigen_equation(l, params), a, b, fa, fb, tol)
        evals += more
    lam = min(lam, 0.0)
    return EigenResult(
        lam=lam,
        residual=abs(_eigen_equation(lam, params)),
        iterations=evals,
        bracket=br,
    )


def eigenfunction(x: float, se: SpectralIndex, params: ModelParams) -> float:
    """Generator eigenfunction phi(x, lam) with the free constant fixed to 1:

        phi(x, lam) = (mu^2 x / 2) exp(1/(mu^2 x)) W_{1, xi/2}(2/(mu^2 x)).

    Since (mu^2 x/2) = 1/z with z = 2/(mu^2 x), this equals the scaled form
    exp(z/2) z^-1 W_{1,b}(z), which stays finite for x -> 0 (limit 1).
    """
    if not (0.0 < x <= params.A):
        raise DomainError(f"eigenfunction argument must lie in (0, A], got {x}")
    z = 2.0 / (params.mu2 * x)
    return whittaker_w_scaled(WhittakerIndex(1, se.b), z)

