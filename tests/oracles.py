"""Independent reference implementations used only to generate or check
expected values in the test suite.  Nothing here shares code paths with the
package internals: the gamma oracle is Spouge's formula (the package uses
Lanczos), the Whittaker oracle integrates the defining ODE, and the
integral oracles are plain adaptive quadrature."""

import cmath
import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad, solve_ivp

# Spouge parameter 11 is the double-precision sweet spot (~2e-12 worst case
# on the |z| <= 50 disc): larger values win formally but lose to alternating
# cancellation among the coefficients.
_SPOUGE_A = 11


def spouge_gamma(z, a=_SPOUGE_A):
    """Spouge's approximation for Gamma(z), complex z with Re(z) > 0 handled
    directly and the reflection formula used otherwise."""
    z = complex(z)
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * spouge_gamma(1.0 - z, a))
    z -= 1.0
    s = math.sqrt(2.0 * math.pi)  # c_0
    fact = 1.0
    for k in range(1, a):
        ck = ((a - k) ** (k - 0.5)) * math.exp(a - k) / fact
        s += (ck if k % 2 == 1 else -ck) / (z + k)
        fact *= k
    return (z + a) ** (z + 0.5) * cmath.exp(-(z + a)) * s


def gamma_reflection_residual(z, gamma_fn=None):
    """|Gamma(z) Gamma(1-z) sin(pi z)/pi - 1| for any gamma implementation
    (defaults to the Spouge oracle)."""
    g = gamma_fn or spouge_gamma
    return abs(g(z) * g(1.0 - z) * cmath.sin(math.pi * z) / math.pi - 1.0)


def quad_gamma(z):
    """Gamma(z) = int t^(z-1) e^-t dt by quadrature after t = e^u, Re z > 0.
    Accurate to ~1e-13 relative at moderate arguments; slow, pointwise."""
    z = complex(z)
    if z.real <= 0.0:
        raise ValueError("quad_gamma needs Re z > 0")

    def part(which):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(
                lambda u: getattr(cmath.exp(z * u - cmath.exp(u)), which),
                -60.0, 8.0, epsabs=1e-14, epsrel=1e-12, limit=800,
            )
        return val

    return complex(part("real"), part("imag"))


def whittaker_ode_value(a, b, z_target, z_start=80.0):
    """W_{a,b}(z_target) by inward integration of the Whittaker equation

        w'' = (1/4 - a/z + (b^2 - 1/4)/z^2) w

    started from the three-term large-z form at z_start.  Integrating toward
    smaller z follows the growing direction of the wanted solution, so the
    companion solution cannot contaminate the result."""
    b2 = complex(b) ** 2
    # w ~ e^{-z/2} z^a sum c_n / z^n with c_0 = 1 and the recursion
    # c_n = c_{n-1} (b^2 - (a - n + 1/2)^2) / n; six terms leave a start
    # error of a few 1e-12 at z_start = 80
    coeffs = [complex(1.0)]
    for n in range(1, 7):
        coeffs.append(coeffs[-1] * (b2 - (a - n + 0.5) ** 2) / n)

    def w_asym(z):
        poly = sum(c / z**n for n, c in enumerate(coeffs))
        return math.exp(-0.5 * z) * z**a * poly

    def dw_asym(z):
        poly = sum(c / z**n for n, c in enumerate(coeffs))
        dpoly = sum(-n * c / z ** (n + 1) for n, c in enumerate(coeffs))
        return math.exp(-0.5 * z) * z**a * ((-0.5 + a / z) * poly + dpoly)

    def rhs(z, y):
        return [y[1], (0.25 - a / z + (b2.real - 0.25) / (z * z)) * y[0]]

    y0 = [w_asym(z_start).real, dw_asym(z_start).real]
    sol = solve_ivp(
        rhs, (z_start, z_target), y0, method="DOP853", rtol=1e-12, atol=1e-300
    )
    if not sol.success:
        raise RuntimeError(f"ODE oracle failed: {sol.message}")
    return sol.y[0][-1]


def quad_e1(x):
    """E1(x) by adaptive quadrature on the two-piece split of [x, inf)."""
    mid = max(2.0 * x, x + 10.0)
    i1, _ = quad(lambda y: math.exp(-y) / y, x, mid, epsabs=1e-14, epsrel=1e-13, limit=200)
    i2, _ = quad(lambda y: math.exp(-y) / y, mid, math.inf, epsabs=1e-14, epsrel=1e-13)
    return i1 + i2


def quad_meijer_g(x):
    """G(x) = int_0^inf e^(-x y) log(1+y)/y dy by adaptive quadrature after
    y = e^v, which leaves the smooth integrand exp(-x e^v) log1p(e^v) on the
    line.  It is split where log1p bends (v = 0) and where the exponential
    cuts off (v = -log x); the range drops tails below ~1e-17 relative."""
    lo = min(0.0, -math.log(x)) - 40.0
    hi = math.log(60.0 / x)
    cuts = sorted({lo, hi, *(v for v in (0.0, -math.log(x)) if lo < v < hi)})
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        val, _ = quad(lambda v: math.exp(-x * math.exp(v)) * math.log1p(math.exp(v)),
                      a, b, epsabs=0.0, epsrel=1e-13, limit=400)
        total += val
    return total


def quad_meijer_tail_form(x, exe1):
    """G(x) as int_x^inf e^y E1(y) dy/y, the alternative representation;
    ``exe1`` supplies exp(y) E1(y)."""
    val, _ = quad(lambda y: exe1(y) / y, x, math.inf, epsabs=1e-13, epsrel=1e-12, limit=300)
    return val


def count_slope_sign_changes(values):
    """Number of sign transitions among the nonzero first differences."""
    diffs = np.diff(np.asarray(values, dtype=float))
    signs = [1 if d > 0 else -1 for d in diffs if d != 0.0]
    collapsed = [s for i, s in enumerate(signs) if i == 0 or s != signs[i - 1]]
    return max(0, len(collapsed) - 1)


def ks_distance(sorted_samples, cdf_fn):
    """Exact Kolmogorov-Smirnov distance between an ECDF and a cdf."""
    s = np.asarray(sorted_samples, dtype=float)
    n = s.size
    c = np.array([cdf_fn(float(v)) for v in s])
    i = np.arange(1, n + 1)
    return float(max(np.max(np.abs(i / n - c)), np.max(np.abs((i - 1) / n - c))))


def two_sample_ks(a, b):
    """Two-sample KS distance between sorted sample arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    allv = np.concatenate([a, b])
    allv.sort(kind="mergesort")
    fa = np.searchsorted(a, allv, side="right") / a.size
    fb = np.searchsorted(b, allv, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))
