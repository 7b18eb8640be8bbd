"""Special-function kernel.

Everything the rest of the package needs is built from a handful of classical
special functions evaluated in plain double precision:

* the Gamma function for complex arguments (Lanczos approximation),
* the Whittaker W function ``W_{a,b}(z)`` for first index ``a`` in {0, 1, 2},
  second index ``b`` either real in [0, 1/2] or purely imaginary, and real
  ``z > 0``,
* the exponential integral ``E1(x) = int_x^inf exp(-y)/y dy``,
* the Laplace-type integral ``G(x) = int_0^inf exp(-x y) log(1+y)/y dy``
  (a special case of the Meijer G function),
* the correction kernel ``L(x) = exp(x) E1(x) - 1 + x G(x)``,
* the stationary law of the underlying diffusion, with density
  ``m(x) = (2/(mu^2 x^2)) exp(-2/(mu^2 x))`` and cdf ``H(x) = exp(-2/(mu^2 x))``.

The functions hold no global mutable state.  The one mutable thing is per
index: a :class:`WhittakerIndex` fills its connection coefficients on its
first series-branch evaluation and keeps them.  That fill is idempotent (every
thread computes the same value, and a racing write only replaces it with an
equal one), so indices may be shared between threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import ConvergenceError, DomainError

__all__ = [
    "ModelParams",
    "SpectralIndex",
    "WhittakerIndex",
    "gamma_cx",
    "whittaker_w",
    "whittaker_w_scaled",
    "exp_integral_e1",
    "exp_scaled_e1",
    "meijer_g_special",
    "lower_bound_l",
    "speed_density",
    "stationary_cdf",
    "Z_SWITCH",
]

EULER_GAMMA = 0.5772156649015328606

# Series/asymptotic hand-off for the Whittaker W evaluation.  The two-term
# connection formula loses roughly a factor exp(z) to cancellation while the
# optimally-truncated asymptotic series carries an exp(-z)-sized remainder;
# the branches cross near z = 16 where both deliver ~1e-11 (first index 1, 2)
# to ~1e-8 (first index 0) relative accuracy in double precision.
Z_SWITCH = 16.0

# Below this the second Whittaker index is treated as zero and handled by
# even-in-b Richardson extrapolation (the connection coefficients have
# gamma poles at b = 0).
_B_DEGENERATE = 1e-6

# Below this distance from b = 1/2 the exact closed forms are used.
_HALF_DEGENERATE = 1e-12


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Model parameters: post-change drift ``mu`` (nonzero) and detection
    threshold ``A`` (positive).  Every formula in the package depends on the
    drift only through ``mu**2``."""

    mu: float
    A: float

    def __post_init__(self):
        if not (self.mu != 0.0 and math.isfinite(self.mu)):
            raise DomainError(f"drift mu must be finite and nonzero, got {self.mu}")
        if not (self.A > 0.0 and math.isfinite(self.A)):
            raise DomainError(f"threshold A must be finite and positive, got {self.A}")

    @property
    def mu2(self) -> float:
        return self.mu * self.mu


@dataclass(frozen=True)
class SpectralIndex:
    """An eigenvalue ``lam <= 0`` together with ``xi = sqrt(1 + 8 lam/mu^2)``.

    ``xi`` is real in [0, 1] when ``lam >= -mu^2/8`` and purely imaginary
    otherwise; ``xi_squared`` is always real.  The second Whittaker index used
    throughout is ``b = xi/2``.
    """

    lam: float
    xi_squared: float
    xi: complex

    @classmethod
    def from_lambda(cls, lam: float, mu: float) -> "SpectralIndex":
        if lam > 0.0:
            raise DomainError(f"eigenvalue must be nonpositive, got {lam}")
        x2 = 1.0 + 8.0 * lam / (mu * mu)
        xi = complex(math.sqrt(x2)) if x2 >= 0.0 else complex(0.0, math.sqrt(-x2))
        return cls(lam=lam, xi_squared=x2, xi=xi)

    @property
    def b(self) -> complex:
        """Second Whittaker index xi/2."""
        return 0.5 * self.xi


@dataclass(frozen=True)
class WhittakerIndex:
    """Index pair (a, b) of the Whittaker W function as used here.

    ``a`` is restricted to {0, 1, 2}.  ``b`` is real in [-0.55, 0.55] or
    purely imaginary.  The eigenvalue machinery only ever produces real b in
    [0, 1/2]; the symmetric margin exists so that b-sign symmetry checks and
    centered index-derivative probes at b = 1/2 remain expressible.
    """

    a: int
    b: complex

    def __post_init__(self):
        if self.a not in (0, 1, 2):
            raise DomainError(f"first Whittaker index must be 0, 1 or 2, got {self.a}")
        b = complex(self.b)
        if b.real != 0.0 and b.imag != 0.0:
            raise DomainError(f"second Whittaker index must be real or purely imaginary, got {b}")
        if b.imag == 0.0 and not (-0.55 <= b.real <= 0.55):
            raise DomainError(f"real second index must lie in [-0.55, 0.55], got {b.real}")
        object.__setattr__(self, "b", b)

    @cached_property
    def _coefficients(self) -> tuple:
        """Constants of the connection formula for this index (see
        :func:`_connection`), computed on the first series-branch evaluation
        and kept; they are not dataclass fields, so ``==``, ``hash`` and
        ``repr`` ignore them."""
        return _connection(self.a, _upper(self.b))

    @cached_property
    def _offsets(self) -> tuple:
        """The real indices (a, h), (a, 2h), h = 1e-5, that the b ~ 0
        extrapolation evaluates."""
        h = 1e-5
        return WhittakerIndex(self.a, h), WhittakerIndex(self.a, 2.0 * h)


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


def _gamma_shifted(eps: complex, n: int) -> complex:
    """Gamma(eps - n) for integer n >= 0 via downward recurrence.

    Stable arbitrarily close to the poles at the non-positive integers
    provided ``eps`` itself carries full relative accuracy:
    Gamma(eps - n) = Gamma(1 + eps) / [eps (eps-1) ... (eps-n)].
    """
    den = complex(1.0)
    for j in range(n + 1):
        den *= eps - j
    if den == 0.0:
        raise DomainError(f"gamma pole at {eps - n}")
    return gamma_cx(1.0 + eps) / den


# ---------------------------------------------------------------------------
# Whittaker W
# ---------------------------------------------------------------------------

_KUMMER_MAX_TERMS = 10_000


def _kummer_series(alpha: float | complex, gam: float | complex, z: float) -> float | complex:
    """Confluent series 1F1(alpha; gam; z) with compensated summation, in
    real arithmetic for real parameters and complex arithmetic otherwise.

    Terminates when a term falls below 1e-17 of the partial sum; raises
    after 10000 terms (never reached for z <= Z_SWITCH).
    """
    s = 1.0
    comp = 0.0
    term = 1.0
    for n in range(_KUMMER_MAX_TERMS):
        term = term * (alpha + n) / (gam + n) * (z / (n + 1))
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if abs(term) <= 1e-17 * abs(s):
            return s
    raise ConvergenceError(f"Kummer series did not converge (alpha={alpha}, gamma={gam}, z={z})")


def _upper(b: complex) -> complex:
    """The one of b, -b with nonnegative real and imaginary parts.  W is
    symmetric in b -> -b; this keeps the series poles one-sided."""
    return -b if b.real < 0.0 or b.imag < 0.0 else b


def _connection(a: int, b: complex) -> tuple:
    """Connection coefficients of DLMF 13.14.33 at index (a, b), b from
    :func:`_upper` and away from 0 and 1/2: one ``(c, alpha, gamma)`` row per
    regular Kummer solution, so that the scaled W is the sum over rows of
    ``c z**alpha 1F1(alpha; gamma; z)``.  Imaginary b has one row (the second
    term is its conjugate); real b has two, all of whose entries are real.

    The gamma coefficients are evaluated through ``delta = 1 - 2b`` so that
    the ratio of poles at b -> 1/2 stays fully accurate (1 - 2b is exact in
    floating point for real b in [0.25, 0.5]).
    """
    delta = 1.0 - 2.0 * b
    # Gamma(-2b)   = Gamma(delta - 1)      : pole at b = 1/2  (delta -> 0)
    # Gamma(1/2 - b - a) = Gamma(delta/2 - a)
    c1 = _gamma_shifted(delta, 1) / _gamma_shifted(0.5 * delta, a)
    if b.imag != 0.0:
        return ((c1, 0.5 + b - a, 1.0 + 2.0 * b),)
    # Gamma(2b)    = Gamma(1 - delta)
    # Gamma(1/2 + b - a) = Gamma((1 - delta/2) - a)
    c2 = gamma_cx(1.0 - delta) / gamma_cx(1.0 - 0.5 * delta - a)
    # real b: every gamma argument is real, so the imaginary parts are 0
    b = b.real
    return ((c1.real, 0.5 + b - a, 1.0 + 2.0 * b), (c2.real, 0.5 - b - a, 1.0 - 2.0 * b))


def _w_scaled_series(connection: tuple, z: float) -> float:
    """exp(z/2) z^(-a) W_{a,b}(z) by the connection formula, z <= Z_SWITCH,
    from the index's :func:`_connection` rows."""
    (c1, alpha1, gam1), *second = connection
    term1 = c1 * z ** alpha1 * _kummer_series(alpha1, gam1, z)
    if not second:
        # purely imaginary b: the second connection term is the complex
        # conjugate of the first, so the sum is exactly real
        return 2.0 * term1.real
    c2, alpha2, gam2 = second[0]
    # exp(z/2) z^(-a) [c1 M_{a,b} + c2 M_{a,-b}], the exp(-z/2) of M cancels
    return term1 + c2 * z ** alpha2 * _kummer_series(alpha2, gam2, z)


def _w_scaled_asymptotic(a: int, b2: float, z: float) -> float:
    """exp(z/2) z^(-a) W_{a,b}(z) by the divergent large-z series truncated
    at its smallest term.  ``b2 = b**2`` is real for admissible indices."""
    s = 1.0
    term = 1.0
    prev = math.inf
    for n in range(1, 400):
        term *= (b2 - (a - n + 0.5) ** 2) / (n * z)
        if abs(term) >= prev:
            break
        s += term
        prev = abs(term)
        if prev <= 1e-17 * abs(s):
            break
    return s


def _w_scaled_halfint(a: int, z: float) -> float:
    """Closed forms at b = 1/2: W_{0,1/2} = e^{-z/2}, W_{1,1/2} = z e^{-z/2},
    W_{2,1/2} = z (z - 2) e^{-z/2}; scaled by exp(z/2) z^(-a)."""
    if a == 0 or a == 1:
        return 1.0
    return (z - 2.0) / z


def whittaker_w_scaled(idx: WhittakerIndex, z: float) -> float:
    """Overflow-free evaluation of ``exp(z/2) * z**(-a) * W_{a,b}(z)``.

    This scaled form tends to 1 as z -> +inf and is the natural quantity for
    the eigenfunction and for density evaluation near x = 0.
    """
    if not (z > 0.0 and math.isfinite(z)):
        raise DomainError(f"Whittaker argument must be positive and finite, got {z}")
    a, b = idx.a, _upper(idx.b)
    if b.imag == 0.0 and abs(1.0 - 2.0 * b.real) <= _HALF_DEGENERATE:
        return _w_scaled_halfint(a, z)
    if z > Z_SWITCH:
        return _w_scaled_asymptotic(a, (b * b).real, z)
    if abs(b) < _B_DEGENERATE:
        # gamma poles at b = 0; W is even in b, so extrapolate from two
        # real offsets (error O(h^4) ~ 1e-20 plus the O(|b|^2) <= 1e-12
        # distance to the requested index)
        w1, w2 = (_w_scaled_series(off._coefficients, z) for off in idx._offsets)
        return (4.0 * w1 - w2) / 3.0
    return _w_scaled_series(idx._coefficients, z)


def whittaker_w(idx: WhittakerIndex, z: float) -> float:
    """Whittaker function ``W_{a,b}(z)`` for real z > 0.

    Evaluation strategy: for ``z <= Z_SWITCH`` the connection formula through
    the two regular Kummer solutions with gamma coefficients; beyond that the
    asymptotic series truncated at its smallest term.  The result is real for
    all admissible indices (W is symmetric under b -> -b).
    """
    scaled = whittaker_w_scaled(idx, z)
    if z > 600.0:
        # assemble in log space; underflows cleanly to 0 for huge z
        if scaled == 0.0:
            return 0.0
        t = -0.5 * z + idx.a * math.log(z) + math.log(abs(scaled))
        if t < -745.0:
            return 0.0
        return math.copysign(math.exp(t), scaled)
    return math.exp(-0.5 * z) * z ** idx.a * scaled


# ---------------------------------------------------------------------------
# exponential integral
# ---------------------------------------------------------------------------

_E1_SWITCH = 1.5


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


def _e1_cf_scaled(x: float) -> float:
    """exp(x) E1(x) via the modified Lentz continued fraction, x >= 1.5.

    E1(x) = e^-x / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...)))
    """
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    b = x + 1.0
    for k in range(1, 200):
        if k == 1:
            a = 1.0
        else:
            a = -((k - 1.0) ** 2)
            b += 2.0
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return f
    raise ConvergenceError(f"E1 continued fraction did not converge at x={x}")


def exp_integral_e1(x: float) -> float:
    """Exponential integral ``E1(x) = int_x^inf exp(-y)/y dy`` for x > 0.

    Series-minus-log form for small x, modified Lentz continued fraction for
    x >= 1.5; relative error ~1e-14.  The general two-sided branch is out of
    scope, so x <= 0 raises.
    """
    if not (x > 0.0):
        raise DomainError(f"E1 requires a positive argument, got {x}")
    if x < _E1_SWITCH:
        return _e1_series(x)
    return math.exp(-x) * _e1_cf_scaled(x)


def exp_scaled_e1(x: float) -> float:
    """``exp(x) * E1(x)``, safe from overflow for arbitrarily large x."""
    if not (x > 0.0):
        raise DomainError(f"E1 requires a positive argument, got {x}")
    if x < _E1_SWITCH:
        return math.exp(x) * _e1_series(x)
    return _e1_cf_scaled(x)


# ---------------------------------------------------------------------------
# Meijer-G special case and the lower-bound kernel
# ---------------------------------------------------------------------------

# Series/quadrature hand-off for G.  The series cancels against
# pi^2/4 + l^2/2 as x grows (3e-15 relative just below 1.5); the
# Gauss-Laguerre rule stays within 1e-15 from 1.5 on, both measured against
# mpmath.
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
# weights are below 1e-20 and sum to 7e-22, and log1p(s/x)/s <= 1/x, so
# together they move G by less than 1e-21 relative for x >= 1.5.
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
    if x <= 0.0:
        return 0.0
    t = -2.0 / (params.mu2 * x)
    if t < -745.0:
        return 0.0
    return 2.0 / (params.mu2 * x * x) * math.exp(t)


def stationary_cdf(x: float, params: ModelParams) -> float:
    """Stationary cdf ``H(x) = exp(-2/(mu^2 x))``, the exact antiderivative
    of :func:`speed_density` vanishing at 0."""
    if x <= 0.0:
        return 0.0
    t = -2.0 / (params.mu2 * x)
    return math.exp(t) if t >= -745.0 else 0.0
