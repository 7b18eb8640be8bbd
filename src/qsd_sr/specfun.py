"""Special-function kernel.

Everything the rest of the package needs is built from a handful of classical
special functions evaluated in plain double precision:

* the Whittaker W function ``W_{a,b}(z)`` for first index ``a`` in {0, 1, 2},
  second index ``b`` either real in [0, 1/2] or purely imaginary, and real
  ``z`` in [2/C_MAX, 1e100] (the law evaluates W at z = 2/(mu^2 x) >=
  2/(mu^2 A), and mu^2 A <= C_MAX): W_0 and W_1 of a real index at
  z <= 1.25 from Temme's series for the modified Bessel function K_b
  (DLMF 13.18.9), everything else from one trapezoid sum of a
  modified-Bessel integral,
* the exponential integral ``E1(x) = int_x^inf exp(-y)/y dy``,
* the Laplace-type integral ``G(x) = int_0^inf exp(-x y) log(1+y)/y dy``
  (a special case of the Meijer G function),
* the correction kernel ``L(x) = exp(x) E1(x) - 1 + x G(x)``,
* the speed density ``m(x) = (2/(mu^2 x^2)) exp(-2/(mu^2 x))``, the
  stationary density of the underlying diffusion.

It also keeps :func:`gamma_cx`, the Gamma function for complex arguments
(Lanczos approximation), which nothing else in the package calls; the
benchmark's per-layer probes still time it.

The functions hold no global mutable state.  The one mutable thing is per
index: a :class:`WhittakerIndex` fills its rows cosh(b t_k) v_k^j on the
127 fixed-step nodes (v_k = -(cosh t_k - 1), j = 0..a) on its first
evaluation there, and its constants of Temme's series on its first
evaluation by the series, and keeps them.  Each fill is idempotent (every
thread computes the same value, and a racing write only replaces it with an
equal one), so indices may be shared between threads.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_right
from collections import namedtuple
from functools import cached_property
from itertools import count, repeat, takewhile
from operator import mul

from .errors import DomainError

__all__ = [
    "ModelParams",
    "WhittakerIndex",
    "gamma_cx",
    "whittaker_w",
    "whittaker_w_scaled",
    "exp_integral_e1",
    "exp_scaled_e1",
    "meijer_g_special",
    "lower_bound_l",
    "speed_density",
]

EULER_GAMMA = 0.5772156649015328606

# The c = mu^2 A accepted: the domain checked against the oracles.
# Below C_MIN the imaginary second index grows and the kernel's sum of
# cos(|b| t_k)-weighted terms cancels by about exp(pi |b| / 2).  Measured
# with quad: |int q - 1| is 7e-16 at c = 0.5, 1e-15 at 0.3 and 3.6e-7 at
# 0.12, where |b| = 11.2 and lam = -63.201 (the grid oracle gives -63.2).
# Above C_MAX no oracle has checked lam, and rounding noise in the equation
# takes over: at c = 1e10 it gives three sign changes, and at 1.25e11 and
# 1e12 the bracket holds none.
C_MIN = 0.5
C_MAX = 1e9


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class ModelParams(namedtuple("ModelParams", "mu A")):
    """Model parameters: post-change drift ``mu`` (nonzero) and detection
    threshold ``A`` (positive), with ``mu**2 A`` a positive finite double.
    Every formula in the package depends on the drift only through ``mu**2``."""

    __slots__ = ()

    def __new__(cls, mu: float, A: float):
        if not (mu != 0.0 and math.isfinite(mu)):
            raise DomainError(f"drift mu must be finite and nonzero, got {mu}")
        if not (A > 0.0 and math.isfinite(A)):
            raise DomainError(f"threshold A must be finite and positive, got {A}")
        if not (0.0 < mu * mu * A < math.inf):  # then so is mu^2
            raise DomainError(f"mu^2 A = {mu * mu * A!r} must be positive and finite")
        return super().__new__(cls, mu, A)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    @property
    def mu2(self) -> float:
        return self.mu * self.mu


class WhittakerIndex(namedtuple("WhittakerIndex", "a b")):
    """Index pair (a, b) of the Whittaker W function as used here.

    ``a`` is restricted to {0, 1, 2}.  ``b`` is real in [-0.55, 0.55] or
    purely imaginary and finite.  The eigenvalue machinery only ever produces
    real b in [0, 1/2]; the symmetric margin exists so that b-sign symmetry
    checks and centered index-derivative probes at b = 1/2 remain expressible.
    """

    # no __slots__: the instance __dict__ holds the cached _rows and _bessel

    def __new__(cls, a: int, b: complex):
        if a not in (0, 1, 2):
            raise DomainError(f"first Whittaker index must be 0, 1 or 2, got {a}")
        b = complex(b)
        if not (math.isfinite(b.real) and math.isfinite(b.imag)):
            raise DomainError(f"second Whittaker index must be finite, got {b}")
        if b.real != 0.0 and b.imag != 0.0:
            raise DomainError(f"second Whittaker index must be real or purely imaginary, got {b}")
        if b.imag == 0.0 and not (abs(b.real) <= _RB_MAX):
            raise DomainError(f"real second index must lie in [-{_RB_MAX}, {_RB_MAX}], got {b.real}")
        return super().__new__(cls, a, b)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    @cached_property
    def _rows(self) -> list:
        """The a + 1 rows cosh(b t_k) v_k^j, j = 0..a, of
        :func:`_moment_rows` on the fixed-step nodes, computed on the first
        evaluation at x <= _X_FIXED and kept in the instance dict, not in
        the tuple, so ``==``, ``hash`` and ``repr`` ignore it."""
        return _moment_rows(self.a, self.b, _T, _NCM1)

    @cached_property
    def _bessel(self) -> tuple | None:
        """The constants of :func:`_w_bessel` for this index, or None unless
        b is real with |b| <= 1/2; computed on the first evaluation at
        z <= _Z_BESSEL and kept beside _rows."""
        b = self.b
        if b.imag != 0.0 or not abs(b.real) <= 0.5:
            return None
        return _bessel_constants(-abs(b.real))


# ---------------------------------------------------------------------------
# Gamma function
# ---------------------------------------------------------------------------

# Lanczos coefficients, g = 607/128, 15 terms (relative error a few 1e-14
# over the |z| <= 50 disc, measured against slower reference evaluations).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _sinpi(z: complex) -> complex:
    """sin(pi z) with argument reduction, accurate near integer real parts."""
    n = math.floor(z.real + 0.5)
    r = complex(z.real - n, z.imag)
    s = cmath.sin(math.pi * r)
    return s if n % 2 == 0 else -s


def gamma_cx(z: complex) -> complex:
    """Gamma function for complex argument (Lanczos approximation).

    Relative accuracy is ~1e-14 for moderate arguments; poles at the
    non-positive integers raise :class:`DomainError`.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise DomainError(f"gamma pole at non-positive integer {z.real}")
    if z.real < 0.5:
        # reflection formula Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (_sinpi(z) * gamma_cx(1.0 - z))
    z -= 1.0
    acc = complex(_LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


# ---------------------------------------------------------------------------
# Whittaker W
# ---------------------------------------------------------------------------

# Trapezoid rule for the Bessel integral of whittaker_w_scaled.  The step is
# _H up to x = z/2 = _X_FIXED and 0.6/sqrt(x) above, where the integrand
# narrows like exp(-x t^2/2).  The sum keeps the nodes with
# x (cosh t - 1) - _RB_MAX t <= _CUT, _RB_MAX the largest |Re b| an index
# admits; past them every term is below exp(-40) of its weight and shrinks
# doubly exponentially.  On [_Z_MIN, _Z_MAX] every term and every scaled
# W_{a,b} is a finite double; _Z_MIN = 2/C_MAX is the smallest argument of
# the law's kernel.
_H = 0.2
_X_FIXED = (0.6 / _H) ** 2
_CUT = 40.0
_RB_MAX = 0.55
_Z_MIN, _Z_MAX = 2.0 / C_MAX, 1e100
_SQRT_PI = math.sqrt(math.pi)


def _reach(t: float) -> float:
    """The largest x whose sum keeps the node t: the root of
    x (cosh t - 1) - _RB_MAX t = _CUT."""
    return (_CUT + _RB_MAX * t) / (2.0 * math.sinh(0.5 * t) ** 2)


# The fixed-step nodes t_k = k _H, k >= 1, that the sum keeps at _Z_MIN
# (127 of them); -(cosh t_k - 1), written without cancellation; and,
# ascending, -x_k with x_k = _reach(t_k).  Each index caches its rows on
# all of them.
_T = tuple(takewhile(lambda t: _reach(t) >= 0.5 * _Z_MIN, (k * _H for k in count(1))))
_NCM1 = tuple(-2.0 * math.sinh(0.5 * t) ** 2 for t in _T)
_NEG_REACH = tuple(-_reach(t) for t in _T)

# p_a(s) = q2 s^2 + q1 s + q0, the weight of W_{a,b} in the integral, as
# (q2, q1, q0) for a = 0, 1, 2
_WEIGHTS = ((0.0, 0.0, 1.0), (0.0, 1.0, -0.5), (1.0, -3.0, 0.75))


def _taylor(a: int, z: float) -> tuple:
    """(c0, c1, c2) with p_a(z + y) = c0 + c1 y + c2 y^2."""
    q2, q1, q0 = _WEIGHTS[a]
    return (q2 * z + q1) * z + q0, 2.0 * q2 * z + q1, q2


def _grid(z: float) -> tuple:
    """``(x, h, n, t, v)`` of the rule at z: x = z/2, the step h, the number
    n of nodes k >= 1 kept, and sequences (at least n long) of the nodes t_k
    and of v_k = -(cosh t_k - 1)."""
    if not (_Z_MIN <= z <= _Z_MAX):
        raise DomainError(f"Whittaker argument must lie in [{_Z_MIN:g}, {_Z_MAX:g}], got {z}")
    x = 0.5 * z
    if x <= _X_FIXED:
        return x, _H, bisect_right(_NEG_REACH, -x), _T, _NCM1
    h = 0.6 / math.sqrt(x)
    # cosh t - 1 >= t^2/2: no node past the root of x t^2/2 - _RB_MAX t = _CUT is kept
    n = int((_RB_MAX + math.sqrt(_RB_MAX * _RB_MAX + 2.0 * _CUT * x)) / (x * h))
    ts = [k * h for k in range(1, n + 1)]
    return x, h, n, ts, [-2.0 * math.sinh(0.5 * t) ** 2 for t in ts]


def _cosh_bts(b: complex, ts) -> object:
    """cosh(b t) for each t, b real or purely imaginary (cos(|b| t) then)."""
    if b.imag == 0.0:
        return map(math.cosh, map(mul, repeat(b.real), ts))
    return map(math.cos, map(mul, repeat(b.imag), ts))


def whittaker_w_scaled(idx: WhittakerIndex, z: float) -> float:
    """Overflow-free evaluation of ``exp(z/2) * z**(-a) * W_{a,b}(z)`` for z
    in [2/C_MAX, 1e100].

    The rule is chosen from (a, b, z) alone.  W_0 and W_1 of a real index
    |b| <= 1/2 at z <= _Z_BESSEL come from Temme's series for K_b and
    K_{1-|b|} (:func:`_w_bessel`), which is faster there, and at b near 1/2
    and small z also free of the sum's cancellation.  Every other case (a = 2,
    imaginary b or |b| > 1/2, z > _Z_BESSEL) is one trapezoid sum: with
    x = z/2 and s = x (1 + cosh t),

        W_{a,b}(z) = sqrt(z/pi) int_0^inf exp(-x cosh t) cosh(b t) p_a(s) dt,

    p_0 = 1, p_1 = s - 1/2, p_2 = s^2 - 3s + 3/4.  The a = 0 case is
    W_{0,b}(z) = sqrt(z/pi) K_b(z/2) with DLMF 10.32.9 for K_b; p_1 and p_2
    follow from the recurrences of DLMF 13.15 differentiated under the
    integral.  The scaled form moves exp(-x) into exp(-x (cosh t - 1)), and
    the integral is a trapezoid sum, which converges geometrically on this
    integrand (Trefethen and Weideman, SIAM Review 56(3), 2014).  The result
    tends to 1 as z -> +inf.
    """
    a, b = idx
    if a < 2 and _Z_MIN <= z <= _Z_BESSEL:
        consts = idx._bessel
        if consts is not None:
            return _w_bessel(a, consts, z)
    x, h, n, ts, v = _grid(z)
    rows = idx._rows if x <= _X_FIXED else _moment_rows(a, b, ts, v)
    f = math.sqrt(z) * h / _SQRT_PI
    # p_a(s_k) = c0 - c1 x v_k + c2 (x v_k)^2 at s_k = z - x v_k, with
    # (c0, c1, c2) from _taylor, so with E_k = exp(x v_k) and
    # S_j = sum_k rows[j][k] E_k the sum is c0 (1/2 + S_0) - c1 x S_1
    # + c2 x^2 S_2, without S_2 for a = 1; the node t = 0 has half weight.
    e = map(math.exp, map(mul, repeat(x, n), v))
    if not a:
        return f * (0.5 + sum(map(mul, rows[0], e)))
    e = list(e)
    c0, c1, c2 = _taylor(a, z)
    acc = c0 * (0.5 + sum(map(mul, rows[0], e))) - c1 * (x * sum(map(mul, rows[1], e)))
    if a == 2:
        acc += c2 * x * x * sum(map(mul, rows[2], e))
    return f / (z if a == 1 else z * z) * acc


def _moment_rows(a: int, b: complex, ts, v) -> list:
    """The a + 1 rows cosh(b t_k) v_k^j, j = 0..a, over the nodes ts, with
    v a sequence (at least as long) of v_k = -(cosh t_k - 1): the factors
    that the moment sums S_j of :func:`whittaker_w_scaled` weight by
    exp(x v_k).  Lists, not tuples: with tuples, one law after another
    (six 127-item rows each) raised the resident size of a Python 3.11
    process on Linux by 0.6 MB over 600 laws; with lists it stayed flat."""
    rows = [list(_cosh_bts(b, ts))]
    for _ in range(a):
        rows.append(list(map(mul, rows[-1], v)))
    return rows


# W_0 and W_1 of a real index |b| <= 1/2 at z <= _Z_BESSEL come from Temme's
# series (:func:`_w_bessel`); every other index and argument, and a = 2,
# stay on the trapezoid sum.  _Z_BESSEL is the measured crossover: timed in
# whittaker_w_scaled (median over b = 0.1 .. 0.49), the series took 0.95
# (W_0) and 0.97 (W_1) of the sum's time at z = 1.2, 0.94 and 1.07 at
# z = 1.3, and 1.02 and 1.06 at z = 1.4.
_Z_BESSEL = 1.25

# Taylor coefficients of 1/Gamma(1 + t) about t = 0, the even powers t^0 ..
# t^20 and the odd powers t^1 .. t^21 (mpmath at 50 digits, rounded once).
# For |t| <= 1/2 the first one left out moves the sum by less than 1e-21.
_RGAMMA_EVEN = (
    1.0, -0.6558780715202539, 0.16653861138229148, -0.009621971527876973,
    -0.0011651675918590652, 0.0001280502823881162, -1.2504934821426706e-06,
    -2.056338416977607e-07, 5.002007644469223e-09, 1.0434267116911005e-10,
    -3.696805618642206e-12,
)
_RGAMMA_ODD = (
    0.5772156649015329, -0.04200263503409524, -0.04219773455554433,
    0.0072189432466631, -0.00021524167411495098, -2.013485478078824e-05,
    1.133027231981696e-06, 6.116095104481416e-09, -1.18127457048702e-09,
    7.782263439905071e-12, 5.100370287454476e-13,
)
_EPS = sys.float_info.epsilon


def _horner(coeffs, u: float) -> float:
    """sum_j coeffs[j] u^j by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def _bessel_constants(nu: float) -> tuple:
    """``(nu, nu^2, r Gamma_1, r Gamma_2, g, d)`` for Temme's series at order
    nu in [-1/2, 0]: Gamma_1 = (1/Gamma(1 - nu) - 1/Gamma(1 + nu))/(2 nu) and
    Gamma_2 = (1/Gamma(1 - nu) + 1/Gamma(1 + nu))/2, as series in nu^2, and
    r = pi nu / sin(pi nu).  For |nu| < 1/4, g = 0 and d = 1/2; from 1/4 on,
    g = Gamma(1 + nu) and d = 1/2 + nu (see :func:`_w_bessel`)."""
    nu2 = nu * nu
    g1, g2 = -_horner(_RGAMMA_ODD, nu2), _horner(_RGAMMA_EVEN, nu2)
    r = math.pi * nu / math.sin(math.pi * nu) if nu else 1.0
    if nu > -0.25:
        return nu, nu2, r * g1, r * g2, 0.0, 0.5
    return nu, nu2, r * g1, r * g2, 1.0 / (g2 - nu * g1), 0.5 + nu


def _w_bessel(a: int, consts: tuple, z: float) -> float:
    """Scaled W_{a,b}(z), a = 0 or 1, for real |b| <= 1/2 and z <= _Z_BESSEL,
    from ``consts = _bessel_constants(-|b|)``.

    With x = z/2, W_{0,b}(z) = sqrt(z/pi) K_b(x) (DLMF 13.18.9), and the
    weight p_1 = s - 1/2 of :func:`whittaker_w_scaled` gives
    W_{1,b}(z) = sqrt(z/pi) [(x - 1/2) K_b(x) - x K_b'(x)], where
    -x K_b' = |b| K_b + x K_{1-|b|} (DLMF 10.29.2).  Temme's series (J.
    Comput. Phys. 19(3), 1975; Numerical Recipes' bessik) gives K_nu and
    K_{nu+1} at nu = -|b| from one run: with c_k = (x^2/4)^k/k!,
    K_nu = sum c_k f_k and x K_{nu+1} = 2 sum c_k (p_k - k f_k), where
    f_k = (k f_{k-1} + p_{k-1} + q_{k-1})/(k^2 - nu^2), p_k = p_{k-1}/(k - nu)
    and q_k = q_{k-1}/(k + nu).  They run here in s_k = p_k + q_k, and since
    p_k - q_k = nu f_k, s_k = (k s_{k-1} + nu^2 f_{k-1})/(k^2 - nu^2), with
    f_0 = r (cosh(sigma) Gamma_1 + l sinh(sigma)/sigma Gamma_2),
    s_0 = r (cosh(sigma) Gamma_2 + nu^2 l sinh(sigma)/sigma Gamma_1),
    l = log(2/x) and sigma = nu l: everything depends on nu only through
    nu^2, so a negligible b cannot move the result, and
    W_1 = sqrt(z/pi) [(x - 1/2) K_b + sum c_k (s_k - 2 k f_k)].  That form
    cancels by about 1/(1 - 2|b|) at small x, so from |b| = 1/4 on W_1 is
    assembled as (x - (1/2 - |b|)) K_b + x K_{1-|b|}, with
    2 p_k = 2 p_0 / prod_j (j - nu) and 2 p_0 = exp(sigma) Gamma(1 + nu):
    nothing cancels as b -> 1/2, where the trapezoid's terms exceed W_1 by
    up to 1e8.  One loop runs the recurrence for both a, with W_1's extra
    sums under ``if a``; each a has its own stop rule: a term of K_b below
    eps of the sum for W_0, k times that for W_1.  Against mpmath over b in
    [0, 1/2] and z in [2/C_MAX, _Z_BESSEL] (825 points) the result is within
    4.0 eps of the trapezoid's sum of |terms|, as the trapezoid sum itself
    is."""
    nu, nu2, g1, g2, g, d = consts
    ell = -math.log(0.25 * z)
    sigma = nu * ell
    # exp(sigma) = (z/4)^|b| in one rounding: exp(nu l) would scale the
    # rounding error of nu l by |sigma|
    e = (0.25 * z) ** -nu
    if sigma < -1.0:
        ch, sh = 0.5 * (e + 1.0 / e), 0.5 * (e - 1.0 / e) / nu
    else:
        ch = math.cosh(sigma)
        sh = ell * (math.sinh(sigma) / sigma) if sigma else ell
    f = g1 * ch + sh * g2
    s = g2 * ch + nu2 * sh * g1
    y = 0.0625 * z * z
    c, k, w = 1.0, 0, f
    q = u = g * e if g else s
    while True:
        k += 1
        c *= y / k
        dk = 1.0 / (k * k - nu2)
        f, s = (k * f + s) * dk, (k * s + nu2 * f) * dk
        t = c * f
        w += t
        if a:
            q = q / (k - nu) if g else s
            u += c * q - 2 * k * t
            if k * t < _EPS * w:
                return math.exp(0.5 * z) / math.sqrt(math.pi * z) * ((0.5 * z - d) * w + u)
        elif t < _EPS * w:
            return math.exp(0.5 * z) * math.sqrt(z / math.pi) * w


def _w_terms(a: int, z: float) -> tuple:
    """Nodes t_k and weights w_k, t_0 = 0, with the scaled W_{a,b}(z) equal
    to sum_k w_k cosh(b t_k) for every admissible b: the sum of
    :func:`whittaker_w_scaled` with the factor cosh(b t_k) left out, for
    callers that weight one set of terms by many indices.  (Per index,
    the moment sums of whittaker_w_scaled are faster.)"""
    x, h, n, ts, v = _grid(z)
    c0, c1, c2 = _taylor(a, z)
    f = z ** (0.5 - a) * h / _SQRT_PI
    ws = [f * math.exp(u) * (c0 - u * (c1 - c2 * u)) for u in map(mul, repeat(x, n), v)]
    return [0.0, *ts[:n]], [0.5 * f * c0, *ws]


def _index_derivative(idx: WhittakerIndex, z: float, k: int) -> complex:
    """d^k/db^k of the scaled W_{a,b}(z) at the index (a, b): the terms of
    :func:`_w_terms` differentiated in b, sum_j w_j t_j^k times cosh(b t_j)
    for even k and sinh(b t_j) for odd k.  Complex, since for imaginary b
    an odd derivative is imaginary."""
    ts, ws = _w_terms(idx.a, z)
    f = cmath.sinh if k % 2 else cmath.cosh
    return sum(w * t**k * f(idx.b * t) for t, w in zip(ts, ws))


def whittaker_w(idx: WhittakerIndex, z: float) -> float:
    """Whittaker function ``W_{a,b}(z)`` for z in [2/C_MAX, 1e100], from
    :func:`whittaker_w_scaled`.  The result is real for all admissible
    indices (W is symmetric under b -> -b).  Assembled as
    exp(-z/2) z^a W~ while exp(-z/2) is a normal double (z up to 1416.8);
    past that, as e (e z^a W~) with e = exp(-z/4), so that only the result
    itself, not a factor of it, is subnormal."""
    h = math.exp(-0.5 * z)
    if h >= sys.float_info.min:
        return h * z ** idx.a * whittaker_w_scaled(idx, z)
    h = math.exp(-0.25 * z)
    return h * (h * (z ** idx.a * whittaker_w_scaled(idx, z)))


# ---------------------------------------------------------------------------
# exponential integral, Meijer-G special case and the lower-bound kernel
# ---------------------------------------------------------------------------

# Series/quadrature hand-off for E1 and G.  The G series cancels against
# pi^2/4 + l^2/2 as x grows (3e-15 relative just below 1.5); the
# Gauss-Laguerre rule stays within 1e-15 (G) and 1.6e-15 (exp(x) E1) from
# 1.5 on, all measured against mpmath.
_G_SWITCH = 1.5


def _g_series(x: float) -> float:
    """G via pi^2/4 + l^2/2 + sum_{n>=1} x^n/(n n!) (l - 1/n - H_n),
    l = gamma + log x and H_n the harmonic numbers, x < 1.5."""
    ell = EULER_GAMMA + math.log(x)
    s = 0.0
    term = 1.0
    harmonic = 0.0
    for n in range(1, 60):
        term *= x / n
        harmonic += 1.0 / n
        contrib = term / n * (ell - 1.0 / n - harmonic)
        s += contrib
        if abs(contrib) <= 1e-17 * max(abs(s), 1.0):
            break
    return 0.25 * math.pi * math.pi + 0.5 * ell * ell + s


# Nodes s_i and weights-over-nodes w_i/s_i of the 60-point Gauss-Laguerre
# rule, computed in 50-digit arithmetic (mpmath.gauss_quadrature(60,
# "laguerre")) and rounded once.  The 27 nodes above 47 are left out: their
# weights are below 1e-20 and sum to 7e-22, and log1p(s/x)/s <= 1/x and
# 1/(x + s) <= 1/x, so together they move G and exp(x) E1(x) by less than
# 1e-21 relative for x >= 1.5.
_LAGUERRE_RULE = (
    (0.023897977262724995, 2.505802514806857),
    (0.12593471888169075, 0.9998113958843073),
    (0.3095789343267899, 0.5321123978940318),
    (0.5749955420928052, 0.2998130849837498),
    (0.9223694821166638, 0.16742668854040577),
    (1.351938360008168, 0.09009546339473298),
    (1.8639963442992056, 0.04603441264371544),
    (2.4588958438224284, 0.022138134627883346),
    (3.137049009785896, 0.00996248055249745),
    (3.898929387204992, 0.00417813646512667),
    (4.745073800125889, 0.0016279505832562428),
    (5.676084508246917, 0.0005878505666114956),
    (6.6926316627865745, 0.00019631528069222987),
    (7.795456089031012, 6.052099078201204e-05),
    (8.985372425657657, 1.7194694780249282e-05),
    (10.263272655037909, 4.495021407120878e-06),
    (11.630130063841872, 1.0795701782792992e-06),
    (13.087003679350245, 2.378431066370479e-07),
    (14.635043234018347, 4.7993656080197346e-08),
    (16.27549471920941, 8.85622378145578e-09),
    (18.009706598857115, 1.4920373763437083e-09),
    (19.839136765434034, 2.2910896276951633e-10),
    (21.765360334373536, 3.200841143921505e-11),
    (23.79007838949418, 4.060986640512958e-12),
    (25.9151278116049, 4.669617294572442e-13),
    (28.142492346079813, 4.8561828866356943e-14),
    (30.47431509373951, 4.5571437868324125e-15),
    (32.91291264408037, 3.849686919042281e-16),
    (35.46079111232241, 2.919896461798989e-17),
    (38.12066439392713, 1.9829329258860605e-18),
    (40.89547501481293, 1.2021025997267715e-19),
    (43.78841803594064, 6.4842068362591514e-21),
    (46.80296857185648, 3.1011664618380547e-22),
)


def _g_laguerre(x: float) -> float:
    """G via int_0^inf exp(-s) log1p(s/x)/s ds (s = x y) by Gauss-Laguerre,
    x >= 1.5, where the integrand's branch point s = -x is far enough from
    the nodes for the 60-point rule to reach rounding level (< 1e-15)."""
    return sum(w * math.log1p(s / x) for s, w in _LAGUERRE_RULE)


def _e1_series(x: float) -> float:
    """E1 via -gamma - log x + sum_{k>=1} (-1)^(k+1) x^k / (k k!), x < 1.5."""
    s = 0.0
    term = 1.0
    for k in range(1, 60):
        term *= -x / k
        contrib = -term / k
        s += contrib
        if abs(contrib) <= 1e-17 * max(abs(s), 1.0):
            break
    return -EULER_GAMMA - math.log(x) + s


def _e1_laguerre(x: float) -> float:
    """exp(x) E1(x) = int_0^inf exp(-s)/(x + s) ds by the stored
    Gauss-Laguerre rule of G, x >= 1.5 (within 1.6e-15 of mpmath up to
    x = 1e8)."""
    return sum(v * s / (x + s) for s, v in _LAGUERRE_RULE)


def exp_integral_e1(x: float) -> float:
    """Exponential integral ``E1(x) = int_x^inf exp(-y)/y dy`` for x > 0.

    Series-minus-log form for small x, the stored Gauss-Laguerre rule for
    x >= 1.5; relative error ~1e-15.  The general two-sided branch is out of
    scope, so x <= 0 raises.
    """
    if not (x > 0.0):
        raise DomainError(f"E1 requires a positive argument, got {x}")
    if x < _G_SWITCH:
        return _e1_series(x)
    return math.exp(-x) * _e1_laguerre(x)


def exp_scaled_e1(x: float) -> float:
    """``exp(x) * E1(x)``, safe from overflow for arbitrarily large x."""
    if not (x > 0.0):
        raise DomainError(f"E1 requires a positive argument, got {x}")
    if x < _G_SWITCH:
        return math.exp(x) * _e1_series(x)
    return _e1_laguerre(x)


def meijer_g_special(x: float) -> float:
    """``G(x) = int_0^inf exp(-x y) log(1+y)/y dy`` for x > 0.

    Convergent series in ``gamma + log x`` for x < 1.5, a stored 60-point
    Gauss-Laguerre rule on the rescaled integral above; relative error below
    3e-15 against mpmath.  Only this special case of the Meijer G function is provided;
    the general Mellin-Barnes contour is out of scope.
    """
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"meijer_g_special requires a positive argument, got {x}")
    if x < _G_SWITCH:
        return _g_series(x)
    return _g_laguerre(x)


def _g_and_l(x: float) -> tuple:
    """``(G(x), L(x))`` from one evaluation of G, with
    ``L(x) = exp(x) E1(x) - 1 + x G(x)``."""
    gee = meijer_g_special(x)
    return gee, exp_scaled_e1(x) - 1.0 + x * gee


def lower_bound_l(x: float) -> float:
    """Correction kernel ``L(x) = exp(x) E1(x) - 1 + x G(x)``.

    Diverges like -log(x) as x -> 0+ and decays like 1/(2x) as x -> +inf;
    positive on (0, inf), which the quadratic eigenvalue correction relies
    on for its square-root branch.
    """
    return _g_and_l(x)[1]


# ---------------------------------------------------------------------------
# stationary law of the diffusion
# ---------------------------------------------------------------------------

def speed_density(x: float, params: ModelParams) -> float:
    """Speed density ``m(x) = (2/(mu^2 x^2)) exp(-2/(mu^2 x))``.

    This is also the stationary density of the unstopped diffusion (a
    Frechet-type law with mode at 1/mu^2).  Extended by 0 for x <= 0.
    """
    if math.isnan(x):
        raise DomainError("argument must not be nan")
    if x <= 0.0:
        return 0.0
    t = -2.0 / (params.mu2 * x)
    if t < -745.0:
        return 0.0
    return 2.0 / (params.mu2 * x * x) * math.exp(t)
