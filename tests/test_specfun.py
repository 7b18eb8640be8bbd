import cmath
import math
import sys
from bisect import bisect_right

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (
    quad_gamma,
    gamma_reflection_residual,
    quad_e1,
    quad_meijer_g,
    quad_meijer_tail_form,
    spouge_gamma,
    whittaker_ode_value,
)
from qsd_sr import (
    ApproxSolution,
    DomainError,
    EigenBracket,
    EigenResult,
    EmpiricalLaw,
    GridSolution,
    ModelParams,
    QsdSolution,
    WhittakerIndex,
    eigen_bracket,
    exp_integral_e1,
    exp_scaled_e1,
    gamma_cx,
    lambda_order2,
    lambda_order3,
    lower_bound_l,
    meijer_g_special,
    speed_density,
    whittaker_w,
    whittaker_w_scaled,
)
from qsd_sr.eigensolver import _index_b
from qsd_sr.specfun import (
    C_MAX,
    EULER_GAMMA,
    _LAGUERRE_RULE,
    _CUT,
    _H,
    _NEG_REACH,
    _RB_MAX,
    _X_FIXED,
    _Z_BESSEL,
    _Z_MAX,
    _Z_MIN,
    _g_laguerre,
    _g_series,
    _index_derivative,
    _w_terms,
)

# the argument where the trapezoid step turns from fixed to 0.6/sqrt(z/2)
Z_HANDOFF = 2.0 * _X_FIXED


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class TestTypes:
    def test_model_params_validation(self):
        ModelParams(mu=-2.0, A=0.5)
        with pytest.raises(DomainError):
            ModelParams(mu=0.0, A=5.0)
        with pytest.raises(DomainError):
            ModelParams(mu=1.0, A=0.0)
        with pytest.raises(DomainError):
            ModelParams(mu=1.0, A=-3.0)
        assert ModelParams(1.0, 20.0)._replace(A=5.0) == ModelParams(1.0, 5.0)
        with pytest.raises(DomainError):
            ModelParams(1.0, 20.0)._replace(mu=0.0)

    # each raised ZeroDivisionError or gave a nan or wrong bracket: mu^2 or
    # c = mu^2 A underflowing to 0 or overflowing, then c outside the checked
    # domain, where eigen_bracket's c * c underflows (1e-170) or its bracket
    # rounds to (0, 0) and misses lam = -1e-300 (1e300); the approximations
    # returned numbers outside it, a positive lam*** at A = 1e300 and a nan
    # lam*** and lam** = -4.7e157 at A = 1e-300
    @pytest.mark.parametrize("call,mu,A", [
        (lambda_order2, 1e-200, 1.0),
        (lambda_order3, 1e-200, 1.0),
        (lambda_order2, 1e-100, 1e-250),
        (lambda_order3, 1e-100, 1e-250),
        *((order, 1.0, A) for order in (lambda_order2, lambda_order3)
          for A in (1e-300, 0.3, 1e15, 1e300)),
        (lambda p: speed_density(1.0, p), 1e-200, 1.0),
        (eigen_bracket, 1.0, 1e-170),
        (eigen_bracket, 1e150, 1e10),
        (eigen_bracket, 1.0, 1e300),
    ])
    def test_degenerate_params_raise_domain_error(self, call, mu, A):
        with pytest.raises(DomainError):
            call(ModelParams(mu, A))

    def test_spectral_index_rejects_positive(self):
        # b = xi(lam)/2 exists only for a nonpositive eigenvalue
        for lam, mu2, b in [(0.0, 4.0, 0.5), (-0.125, 1.0, 0.0), (-0.3125, 0.25, 1.5j)]:
            assert _index_b(lam, mu2) == b
        with pytest.raises(DomainError):
            _index_b(0.1, 1.0)

    def test_whittaker_index_validation(self):
        WhittakerIndex(0, 0.25)
        WhittakerIndex(1, 0.3j)
        WhittakerIndex(2, 0.5)
        with pytest.raises(DomainError):
            WhittakerIndex(3, 0.25)
        with pytest.raises(DomainError):
            WhittakerIndex(1, 0.3 + 0.3j)
        with pytest.raises(DomainError):
            WhittakerIndex(1, 0.9)
        # a non-finite imaginary part gave nan, or a bare math domain error,
        # only once the index was evaluated
        for b in (complex(0.0, math.nan), complex(0.0, math.inf)):
            with pytest.raises(DomainError):
                WhittakerIndex(1, b)
        with pytest.raises(DomainError):
            WhittakerIndex(1, 0.3)._replace(b=0.9)

    # every result record but WhittakerIndex (see TestIndexReuse): its
    # fields in order, and its repr
    RECORDS = [
        (ModelParams, {"mu": 1.0, "A": 20.0}, "ModelParams(mu=1.0, A=20.0)"),
        (EigenBracket, {"lo": -0.0625, "hi": -0.05}, "EigenBracket(lo=-0.0625, hi=-0.05)"),
        (EigenResult, {"lam": -0.0625, "b": 0.25j, "residual": 1e-17, "iterations": 80},
         "EigenResult(lam=-0.0625, b=0.25j, residual=1e-17, iterations=80)"),
        (QsdSolution,
         {"params": ModelParams(1.0, 3.0), "se": EigenResult(-0.25, 0.5j, 0.0, 70),
          "denom": 0.5, "w0": WhittakerIndex(0, 0.5j), "w1": WhittakerIndex(1, 0.5j),
          "w2": WhittakerIndex(2, 0.5j)},
         "QsdSolution(params=ModelParams(mu=1.0, A=3.0), se=EigenResult(lam=-0.25, b=0.5j, "
         "residual=0.0, iterations=70), denom=0.5, w0=WhittakerIndex(a=0, b=0.5j), "
         "w1=WhittakerIndex(a=1, b=0.5j), w2=WhittakerIndex(a=2, b=0.5j))"),
        (ApproxSolution,
         {"order": 2, "lambda_approx": -0.05, "params": ModelParams(1.0, 20.0), "denom": 0.75},
         "ApproxSolution(order=2, lambda_approx=-0.05, params=ModelParams(mu=1.0, A=20.0), "
         "denom=0.75)"),
        (GridSolution, {"grid": (0.5, 1.0), "lambda_hat": -0.125, "q_hat": (0.25, 0.0)},
         "GridSolution(grid=(0.5, 1.0), lambda_hat=-0.125, q_hat=(0.25, 0.0))"),
        (EmpiricalLaw, {"samples": (0.5, 2.0), "n_survivors": 2, "n_paths_total": 5},
         "EmpiricalLaw(samples=(0.5, 2.0), n_survivors=2, n_paths_total=5)"),
    ]

    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
    def test_record_contract(self, cls, fields, text):
        values = tuple(fields.values())
        by_name, by_position = cls(**fields), cls(*values)
        assert repr(by_name) == repr(by_position) == text
        assert by_name == by_position == values
        assert hash(by_name) == hash(by_position) == hash(values)
        for name, value in fields.items():
            assert getattr(by_name, name) is value
            with pytest.raises(AttributeError):
                setattr(by_name, name, value)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

class TestGamma:
    def test_gamma_one(self):
        assert gamma_cx(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_gamma_half(self):
        assert gamma_cx(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_gamma_complex_point(self):
        # two independent references: quadrature of the defining integral
        # and the Spouge sum, the latter sanity-checked through reflection
        z = 1.0 + 2.0j
        ref = quad_gamma(z)
        assert abs(spouge_gamma(z) - ref) / abs(ref) < 3e-12
        assert abs(gamma_cx(z) - ref) / abs(ref) < 1e-12

    def test_gamma_accuracy_disc(self):
        # the Spouge oracle itself is good to ~2e-12 on this disc, so the
        # comparison gate sits there; the 1e-13 contract is additionally
        # certified by the reflection-consistency sweep below
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.uniform(-49, 49)
            y = rng.uniform(-49, 49)
            z = complex(x, y)
            if abs(z) > 50 or (y == 0 and x <= 0):
                continue
            ref = spouge_gamma(z)
            assert abs(gamma_cx(z) - ref) / abs(ref) < 3e-12

    def test_gamma_reflection_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            z = complex(rng.uniform(-24, 24), rng.uniform(-24, 24))
            if abs(z.imag) < 1e-2:
                continue  # keep clear of the real-axis poles of sin
            assert gamma_reflection_residual(z, gamma_fn=gamma_cx) < 1e-13

    def test_functional_equation(self):
        for z in (0.3 + 0.7j, 2.5, -1.3 + 0.2j, 10.0 - 3.0j):
            assert abs(gamma_cx(z + 1) - z * gamma_cx(z)) / abs(gamma_cx(z + 1)) < 1e-13

    def test_pole_raises(self):
        for z in (0.0, -1.0, -5.0):
            with pytest.raises(DomainError):
                gamma_cx(z)


# ---------------------------------------------------------------------------
# Whittaker W
# ---------------------------------------------------------------------------

class TestWhittakerW:
    def test_closed_form_a1_half(self):
        # W_{1,1/2}(z) = z exp(-z/2)
        assert whittaker_w(WhittakerIndex(1, 0.5), 2.0) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-14
        )

    def test_closed_form_a0_half(self):
        # W_{0,1/2}(z) = exp(-z/2) via the b-sign symmetry of W_{a,a-1/2}
        assert whittaker_w(WhittakerIndex(0, 0.5), 1.0) == pytest.approx(
            math.exp(-0.5), rel=1e-14
        )

    def test_eigen_equation_residual_reference_row(self):
        # the reference eigenvalue for mu=1, A=20 must zero W_{1,xi/2}(0.1)
        b = _index_b(-0.058856148622, 1.0)
        assert abs(whittaker_w(WhittakerIndex(1, b), 0.1)) < 1e-9

    def test_against_ode_integration(self):
        # independent oracle: inward integration of the defining ODE
        for a, b, z in [(1, 0.3, 1.0), (0, 0.25, 2.0), (2, 0.45, 3.0), (1, 0.5j, 1.5)]:
            ref = whittaker_ode_value(a, b, z)
            val = whittaker_w(WhittakerIndex(a, b), z)
            assert val == pytest.approx(ref, rel=5e-10), (a, b, z)

    def test_b_sign_symmetry(self):
        for a in (0, 1, 2):
            for b in (0.1, 0.3, 0.45, 0.2j, 1.0j):
                for z in (0.1, 1.0, 5.0, 30.0):
                    w_pos = whittaker_w(WhittakerIndex(a, b), z)
                    w_neg = whittaker_w(WhittakerIndex(a, -b), z)
                    assert w_neg == pytest.approx(w_pos, rel=1e-11), (a, b, z)

    def test_ode_residual(self):
        # plug W and its centered second difference into the defining ODE
        for a, b, z in [(1, 0.3, 2.0), (0, 0.2j, 1.0), (2, 0.45, 4.0), (1, 1.3j, 3.0)]:
            idx = WhittakerIndex(a, b)
            h = 1e-4 * z
            w0 = whittaker_w(idx, z)
            wp = whittaker_w(idx, z + h)
            wm = whittaker_w(idx, z - h)
            d2 = (wp - 2.0 * w0 + wm) / (h * h)
            b2 = (complex(b) ** 2).real
            coeff = 0.25 - a / z + (b2 - 0.25) / (z * z)
            scale = abs(d2) + abs(coeff * w0) + 1e-30
            assert abs(d2 - coeff * w0) < 1e-6 * scale, (a, b, z)

    def test_small_argument_law(self):
        # z^(b-1/2) e^(z/2) W_{0,b}(z) -> Gamma(2b)/Gamma(b+1/2);
        # the approach is O(z^(2b)), so sample b where that is below the gate
        z = 1e-6
        for b in (0.35, 0.4, 0.45):
            lhs = z ** (b - 0.5) * math.exp(0.5 * z) * whittaker_w(WhittakerIndex(0, b), z)
            rhs = (gamma_cx(2.0 * b) / gamma_cx(b + 0.5)).real
            assert abs(lhs - rhs) / abs(rhs) < 1e-4, b

    def test_degenerate_small_b(self):
        # b ~ 0 needs no special case in the integral; compare with the ODE
        # oracle at b exactly 0
        ref = whittaker_ode_value(1, 0.0, 2.0)
        val = whittaker_w(WhittakerIndex(1, 1e-8), 2.0)
        assert val == pytest.approx(ref, rel=1e-7)
        val0 = whittaker_w(WhittakerIndex(1, 0.0), 2.0)
        assert val0 == pytest.approx(ref, rel=1e-7)

    def test_continuity_across_switch(self):
        # the fixed-step table hands off to the x-dependent step at Z_HANDOFF
        for a in (0, 1, 2):
            for b in (0.0, 0.3, 0.5, 0.3j, 2.0j, 3.5565j):
                idx = WhittakerIndex(a, b)
                below = whittaker_w(idx, Z_HANDOFF * (1 - 1e-12))
                above = whittaker_w(idx, Z_HANDOFF * (1 + 1e-12))
                assert below == pytest.approx(above, rel=1e-12), (a, b)

    @pytest.mark.parametrize("a", [0, 1, 2])
    @pytest.mark.parametrize("b", [3.5565j, 2.757j])  # the indices at c = 0.5, 0.7
    @pytest.mark.parametrize("z", [16.05, 17.0, 20.0])
    def test_large_imaginary_index_past_z16(self, a, b, z):
        # large imaginary index just past z = 16; started at z = 300 the ODE
        # oracle is good to ~1e-11 here (at its default 80, to ~1e-7)
        ref = whittaker_ode_value(a, b, z, z_start=300.0)
        assert whittaker_w(WhittakerIndex(a, b), z) == pytest.approx(ref, rel=1e-9)

    # W_{a,b}(z) at z = 601, 800, 1000 and 1400 by mpmath's whitw at 60
    # digits, rounded to 30
    LARGE_Z = (601.0, 800.0, 1000.0, 1400.0)
    LARGE_Z_REF = {
        (0, 0.0): (3.12124480617865033654776420182e-131, 1.9145719456589071178825107501e-174,
                   7.1227972622648911790079287335e-218, 9.85791729994659435897691402065e-305),
        (0, 0.3): (3.12171147380345485257310560203e-131, 1.91478707856825962350382566615e-174,
                   7.12343770312275033555442546451e-218, 9.85855059157246403192475413476e-305),
        (0, 0.5): (3.12254127723228483809625577956e-131, 1.91516959671400569501983977865e-174,
                   7.12457640674128553154915737712e-218, 9.85967654375977085670537294785e-305),
        (0, 2j): (3.1005742450592942664852254069e-131, 1.90503483286001568625952963877e-174,
                  7.09439125830388608334428450685e-218, 9.8298120308722057864067986943e-305),
        (1, 0.0): (1.87586683445696050558174766986e-128, 1.5316569597133393867367792124e-171,
                   7.12279548511589093399812574422e-215, 1.38010824620920352153013511248e-301),
        (1, 0.3): (1.87614776743615304145132566627e-128, 1.53182928085091834812246251351e-171,
                   7.12343656564522570744341950956e-215, 1.38019697031159820571661342365e-301),
        (1, 0.5): (1.87664730761660318769584972352e-128, 1.53213567737120455601587182292e-171,
                   7.12457640674128553154915737712e-215, 1.3803547161263679199387522127e-301),
        (1, 2j): (1.86342326777100533890484825733e-128, 1.52401777093075757765658071587e-171,
                  7.09436116713605154298123964868e-215, 1.37617070451941410199213049774e-301),
        (2, 0.0): (1.1236434535285177981808827173e-125, 1.22226177520825841588917034087e-168,
                   7.10854811344634358590733474075e-212, 1.92939108175253402443426991282e-298),
        (2, 0.3): (1.1238120132204198632765676624e-125, 1.22239945975310027088018532517e-168,
                   7.10918855276390275638847898183e-212, 1.92951520675880482643240105547e-298),
        (2, 0.5): (1.12411173726234530942981398439e-125, 1.22264427054222123570066571469e-168,
                   7.11032725392780296048605906237e-212, 1.92973589314466235207437559335e-298),
        (2, 2j): (1.11617735995429069600337154393e-125, 1.21615808480470489190328480826e-168,
                  7.08014229363893164837942295617e-212, 1.92388246724802779389753921295e-298),
    }

    @pytest.mark.parametrize("a, b", LARGE_Z_REF, ids=str)
    def test_large_argument_against_literals(self, a, b):
        # W = exp(-z/2) z^a W~ as one product keeps every rounding
        # relative: 4.7e-16 at worst here
        for z, ref in zip(self.LARGE_Z, self.LARGE_Z_REF[a, b]):
            val = whittaker_w(WhittakerIndex(a, b), z)
            assert abs(val - ref) <= 1e-15 * ref, (a, b, z)

    # W_{a,b}(z) past z = 1416.8, where exp(-z/2) is subnormal, by mpmath's
    # whitw at 40 digits, rounded once to the nearest double (most of them
    # subnormal themselves)
    SUBNORMAL_Z = (1420.0, 1440.0, 1480.0, 1495.0)
    SUBNORMAL_Z_REF = {
        (1, 0.0): (6.355207467360113e-306, 2.92590434186965e-310, 6.1983e-319, 3.46e-322),
        (1, 0.3): (6.355610274991762e-306, 2.92608721661785e-310, 6.19865e-319, 3.46e-322),
        (1, 0.5): (6.356326440458685e-306, 2.926412355491e-310, 6.19934e-319, 3.46e-322),
        (1, 2j): (6.337330651644384e-306, 2.91778810171843e-310, 6.18155e-319, 3.46e-322),
        (2, 0.0): (9.011683069841948e-303, 4.207449935639009e-307, 9.1610685e-316,
                   5.17015e-319),
        (2, 0.3): (9.01225465381316e-303, 4.2077130923756354e-307, 9.161626e-316, 5.17045e-319),
        (2, 0.5): (9.013270892570415e-303, 4.208180967196032e-307, 9.16261716e-316,
                   5.17104e-319),
        (2, 2j): (8.986315896628948e-303, 4.195770678726093e-307, 9.13632556e-316, 5.1563e-319),
    }

    @pytest.mark.parametrize("a, b", SUBNORMAL_Z_REF, ids=str)
    def test_subnormal_exponential_against_literals(self, a, b):
        # exp(-z/4) applied twice: only the last product rounds to a
        # subnormal, so W keeps all the digits it can hold (at most 4 ulps
        # off here)
        for z, ref in zip(self.SUBNORMAL_Z, self.SUBNORMAL_Z_REF[a, b]):
            val = whittaker_w(WhittakerIndex(a, b), z)
            assert abs(val - ref) <= 8 * math.ulp(ref), (a, b, z)

    def test_large_z_underflow_is_clean(self):
        idx = WhittakerIndex(1, 0.25)
        assert whittaker_w(idx, 5000.0) == 0.0
        assert whittaker_w(idx, 100.0) > 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            whittaker_w(WhittakerIndex(1, 0.25), 0.0)
        with pytest.raises(DomainError):
            whittaker_w(WhittakerIndex(1, 0.25), -2.0)

    def test_argument_range(self):
        # every term and every scaled W is a finite double on [2/C_MAX, 1e100]
        for a in (0, 1, 2):
            for b in (0.0, 0.55, 3.5565j):
                idx = WhittakerIndex(a, b)
                for z in (_Z_MIN, _Z_MAX):
                    assert math.isfinite(whittaker_w_scaled(idx, z)), (a, b, z)
                for z in (0.5 * _Z_MIN, 2.0 * _Z_MAX, math.inf, math.nan):
                    with pytest.raises(DomainError):
                        whittaker_w_scaled(idx, z)

    def test_fixed_table_reaches_z_min(self):
        # the table holds exactly the nodes that the sum keeps at the
        # smallest argument: its last one, and not the node after it
        assert _Z_MIN == 2.0 / C_MAX
        x, n = 0.5 * _Z_MIN, len(_NEG_REACH)
        assert bisect_right(_NEG_REACH, -x) == n == 127
        t = (n + 1) * _H
        assert x * (math.cosh(t) - 1.0) - _RB_MAX * t > _CUT


class TestBesselBranch:
    """W_0 and W_1 of a real index |b| <= 1/2 at z <= _Z_BESSEL come from
    Temme's series for K_b; the trapezoid sum serves every other case."""

    # the scaled W_{a,b}(z) by mpmath's whitw at 40 digits, rounded once;
    # z runs from 2/C_MAX through _Z_BESSEL to three points past it
    Z = (2e-9, 4e-9, 1e-6, 1e-3, 0.05, 0.5, 1.0, 1.25, 1.5, 4.0, 20.0)
    REF = {
        (0, 0.0): (0.0005258005662573371, 0.0007188610805811011, 0.008251045046396333,
                   0.13774676184041315, 0.4922505404340569, 0.7896399592356571,
                   0.8598866396410086, 0.8789504386598066, 0.893173546633117,
                   0.9496080415756143, 0.9881392704386491),
        (0, 1e-4): (0.000525800951048428, 0.0007188615726162201, 0.00825104805320159,
                    0.13774677657307008, 0.49225055584307886, 0.7896399668776631,
                    0.8598866448994686, 0.8789504432418801, 0.8931735507025595,
                    0.9496080435442018, 0.9881392709103324),
        (0, 0.25): (0.009672428120664944, 0.011502376313589587, 0.04570857532490172,
                    0.25183961678694033, 0.5954114329693755, 0.838561081209756,
                    0.8932779551393673, 0.9079847774308231, 0.9189189059232418,
                    0.9619844936887868, 0.9910915692305834),
        (0, 0.49): (0.823427769942987, 0.8291551626299932, 0.876223987149354,
                    0.938816799189077, 0.9745660554565747, 0.9908967717585181,
                    0.9941107288169118, 0.994951619009853, 0.9955706985777488,
                    0.9979590772945066, 0.9995276948474066),
        (0, 0.5 - 1e-8): (0.999999805470989, 0.999999812402459, 0.9999998676169177,
                          0.9999999366212616, 0.9999999740556971, 0.9999999907708939,
                          0.9999999940365265, 0.9999999948896712, 0.9999999955174333,
                          0.9999999979365435, 0.9999999995228146),
        (0, 0.5): (1.0,) * 11,
        (1, 0.0): (-118834.47867871753, -80937.014114602, -3561.328532034092,
                   -50.954361860630904, -2.0928547060670106, 0.5648908472456582,
                   0.7704036149704434, 0.813864382618923, 0.8433959708048958,
                   0.939179887544787, 0.9875754000728206),
        (1, 1e-4): (-118834.54737956586, -80937.05744285195, -3561.3294274541045,
                    -50.954363757939205, -2.0928546440686677, 0.564890862231328,
                    0.7704036233747857, 0.8138643895312597, 0.8433959766803172,
                    0.9391798899114907, 0.9875754005668005),
        (1, 0.25): (-1208980.407051153, -718837.0416328489, -11411.66152554058,
                    -60.08353064879509, -1.6245264451267896, 0.6621298307976654,
                    0.8241067525359993, 0.8578747356126876, 0.8807089018566366,
                    0.9540737963928168, 0.9906674540590541),
        (1, 0.49): (-4117137.830483479, -2072886.8886762592, -8761.23084746329,
                    -8.385917242490923, 0.8056036906034563, 0.9803087020573039,
                    0.9901334144653098, 0.9921025705640351, 0.9934163094954399,
                    0.9975276760009325, 0.9995051186849315),
        (1, 0.5 - 1e-8): (-3.9999990247231465, -1.4999995296902402, 0.9900000013291034,
                          0.9999900000006413, 0.9999998000000058, 0.9999999800000003,
                          0.9999999900000002, 0.9999999920000001, 0.9999999933333334,
                          0.9999999975, 0.9999999995),
        (1, 0.5): (1.0,) * 11,
    }

    @staticmethod
    def bound(a, b, z):
        terms = [w * math.cosh(b * t) for t, w in zip(*_w_terms(a, z))]
        return 8.0 * sys.float_info.epsilon * sum(map(abs, terms))

    def test_literals_cover_the_hand_off(self):
        assert self.Z[0] == _Z_MIN and _Z_BESSEL in self.Z and self.Z[-1] > _Z_BESSEL

    @pytest.mark.parametrize("a, b", REF, ids=str)
    def test_against_literals(self, a, b):
        idx = WhittakerIndex(a, b)
        for z, ref in zip(self.Z, self.REF[a, b]):
            assert abs(whittaker_w_scaled(idx, z) - ref) <= self.bound(a, b, z), z

    @pytest.mark.parametrize("b, z", [(0.5 - 1e-8, 4e-9), (0.5, 2e-9)])
    def test_w1_next_to_half_is_relative(self, b, z):
        # the trapezoid's terms exceed W_1 by ~1e8 here; the series'
        # (x - (1/2 - b)) K_b + x K_{1-b} has no such cancellation
        ref = self.REF[1, b][self.Z.index(z)]
        assert abs(whittaker_w_scaled(WhittakerIndex(1, b), z) - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("a", [0, 1])
    @pytest.mark.parametrize("b", [0.0, 1e-4, 0.2, -0.25, 0.3, 0.45, 0.5 - 1e-8, 0.5])
    def test_continuity_at_hand_off(self, a, b):
        # the largest double at or below _Z_BESSEL takes the series, the
        # next one up the trapezoid sum
        idx = WhittakerIndex(a, b)
        below = _Z_BESSEL
        above = math.nextafter(below, math.inf)
        assert abs(whittaker_w_scaled(idx, below) - whittaker_w_scaled(idx, above)) <= self.bound(a, b, above)


class TestIndexReuse:
    """An index keeps its rows cosh(b t_k) v_k^j on the fixed-step nodes,
    and a reused index gives exactly what a fresh one gives."""

    # one index per path through whittaker_w_scaled, with z on that path
    BRANCHES = {
        "fixed step": ((1, 0.3), (0.05, 0.7, 2.0, 9.0, Z_HANDOFF)),
        "fixed step, negative b": ((2, -0.45), (0.3, 4.0, 15.0)),
        "variable step": ((1, 0.3), (Z_HANDOFF + 0.5, 40.0, 700.0)),
        "imaginary b": ((1, 0.4j), (0.05, 0.7, 2.0, 9.0, 40.0)),
        "b = 0": ((0, 0.0), (0.1, 1.0, 7.5, 40.0)),
        "b = 1/2": ((2, 0.5), (0.5, 3.0, 40.0)),
    }

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_reused_index_equals_fresh_index(self, branch):
        (a, b), zs = self.BRANCHES[branch]
        fresh = [whittaker_w_scaled(WhittakerIndex(a, b), z) for z in zs]
        idx = WhittakerIndex(a, b)
        others = [WhittakerIndex(*ab) for ab, _ in self.BRANCHES.values()]
        for _ in range(2):
            reused = []
            for z in zs:
                reused.append(whittaker_w_scaled(idx, z))
                for other in others:  # interleave other indices' evaluations
                    whittaker_w_scaled(other, 1.5)
            assert reused == fresh, branch

    def test_index_identity_unchanged_by_evaluation(self):
        idx = WhittakerIndex(1, 0.3)
        before = (repr(idx), hash(idx))
        for z in (0.5, 2.0, 40.0):
            whittaker_w_scaled(idx, z)
        assert "_rows" in vars(idx)
        assert (repr(idx), hash(idx)) == before
        assert repr(idx) == "WhittakerIndex(a=1, b=(0.3+0j))"
        assert idx == WhittakerIndex(1, 0.3) and hash(idx) == hash(WhittakerIndex(1, 0.3))
        assert idx == WhittakerIndex(a=1, b=0.3) == (1, 0.3 + 0j)
        assert idx != WhittakerIndex(1, 0.31)
        for name in ("a", "b"):
            with pytest.raises(AttributeError):
                setattr(idx, name, 0)

    @pytest.mark.parametrize("a", [0, 1, 2])
    @pytest.mark.parametrize("b", [0.0, 0.3, -0.45, 0.5, 0.55, 0.4j, 3.5565j])
    def test_rows_match_terms_summed_per_node(self, a, b):
        # the kernel sums its cached (fixed step) or per-call rows against
        # one exp pass;
        # _w_terms multiplies each node's weight out first, so the two agree
        # to rounding in the sum of |terms|
        idx = WhittakerIndex(a, b)
        zs = (_Z_MIN, 1.1 * _Z_MIN, 1e-6, 0.1, 2.0, Z_HANDOFF - 0.1, Z_HANDOFF + 0.1, 40.0)
        for z in zs:
            terms = [w * cmath.cosh(idx.b * t).real for t, w in zip(*_w_terms(a, z))]
            bound = 8.0 * sys.float_info.epsilon * sum(map(abs, terms))
            assert abs(whittaker_w_scaled(idx, z) - sum(terms)) <= bound, z

    def test_zero_index_builds_and_evaluates(self):
        for a in (0, 1, 2):
            idx = WhittakerIndex(a, 0)
            for z in (0.5, 2.0, 40.0):
                val = whittaker_w_scaled(idx, z)
                assert math.isfinite(val)
                assert val == whittaker_w_scaled(WhittakerIndex(a, 1e-9), z)


class TestIndexDerivative:
    @pytest.mark.parametrize("b", [0.3, 0.5, 0.4j, 3.5565j])
    @pytest.mark.parametrize("z", [0.5, 2.0, 12.0, Z_HANDOFF - 0.1, Z_HANDOFF + 0.1, 25.0, 60.0])
    def test_against_centered_differences(self, b, z):
        # the b-derivatives of the scaled W against Richardson-combined
        # centered differences in b, steps 1e-2 and 5e-3 (along the
        # imaginary axis for imaginary b), whose rounding error for k = 3
        # reaches 2e-7 of sum |w_j| t_j^k
        h = 1e-2j if isinstance(b, complex) else 1e-2
        ts, ws = _w_terms(1, z)

        def w(j, step):
            return whittaker_w_scaled(WhittakerIndex(1, b + j * step), z)

        stencils = {
            1: lambda s: (w(1, s) - w(-1, s)) / (2.0 * s),
            2: lambda s: (w(1, s) - 2.0 * w(0, s) + w(-1, s)) / (s * s),
            3: lambda s: (w(2, s) - 2.0 * w(1, s) + 2.0 * w(-1, s) - w(-2, s)) / (2.0 * s**3),
        }
        for k, stencil in stencils.items():
            numeric = (4.0 * stencil(0.5 * h) - stencil(h)) / 3.0
            scale = sum(abs(wj) * tj**k for tj, wj in zip(ts, ws))
            assert abs(_index_derivative(WhittakerIndex(1, b), z, k) - numeric) < 1e-6 * scale, k


# ---------------------------------------------------------------------------
# E1
# ---------------------------------------------------------------------------

class TestExpIntegral:
    def test_value_at_one(self):
        # frozen from the quadrature oracle (and matching it at run time)
        ref = quad_e1(1.0)
        assert abs(ref - 0.2193839343955203) < 1e-13
        assert exp_integral_e1(1.0) == pytest.approx(ref, rel=1e-12)

    def test_against_quadrature_sweep(self):
        for x in (0.01, 0.3, 1.0, 1.49, 1.51, 3.0, 10.0, 50.0):
            assert exp_integral_e1(x) == pytest.approx(quad_e1(x), rel=1e-12), x

    def test_leading_asymptotics(self):
        x = 500.0
        assert abs(x * exp_scaled_e1(x) - 1.0) < 1e-2

    def test_small_argument_limit(self):
        x = 1e-8
        assert abs(exp_integral_e1(x) + math.log(x) + EULER_GAMMA) < 1e-7

    def test_branch_agreement(self):
        # series and Gauss-Laguerre rule evaluated at the same point
        from qsd_sr.specfun import _e1_laguerre, _e1_series

        for x in (1.2, 1.5, 2.0):
            series = _e1_series(x)
            rule = math.exp(-x) * _e1_laguerre(x)
            assert abs(series - rule) < 1e-13 * series, x

    def test_domain_error(self):
        with pytest.raises(DomainError):
            exp_integral_e1(0.0)
        with pytest.raises(DomainError):
            exp_integral_e1(-1.0)


# ---------------------------------------------------------------------------
# Meijer-G special case and L
# ---------------------------------------------------------------------------

class TestMeijerG:
    def test_large_x_leading_term(self):
        x = 1000.0
        assert abs(x * meijer_g_special(x) - 1.0) < 1e-2

    def test_very_large_x_boundary_layer(self):
        # the integrand concentrates in a 1/x-wide layer; x G(x) = 1 - 1/(2x)
        # to leading orders
        for x in (1e6, 1e8):
            assert abs(x * meijer_g_special(x) - 1.0) < 1e-5, x

    def test_two_independent_quadratures_at_one(self):
        log_form = meijer_g_special(1.0)
        tail_form = quad_meijer_tail_form(1.0, exp_scaled_e1)
        assert abs(log_form - tail_form) < 1e-9

    def test_tail_form_identity_at_two(self):
        assert abs(meijer_g_special(2.0) - quad_meijer_tail_form(2.0, exp_scaled_e1)) < 1e-9

    def test_domain_error(self):
        with pytest.raises(DomainError):
            meijer_g_special(0.0)

    def test_against_quadrature_oracle(self):
        # 121 log-spaced points over [1e-6, 1e6], both branches
        for x in np.logspace(-6.0, 6.0, 121):
            x = float(x)
            assert meijer_g_special(x) == pytest.approx(quad_meijer_g(x), rel=1e-11), x

    def test_laguerre_table(self):
        # against numpy's independently computed rule (its weights carry up
        # to 7e-13 relative error), and the moments int e^-s s^k ds = k!,
        # which the kept nodes reproduce for k <= 5
        from numpy.polynomial.laguerre import laggauss

        nodes, weights = laggauss(60)
        for (s, w_over_s), s_ref, w_ref in zip(_LAGUERRE_RULE, nodes, weights):
            assert s == pytest.approx(s_ref, rel=1e-12)
            assert w_over_s * s == pytest.approx(w_ref, rel=1e-11)
        for k in range(6):
            moment = math.fsum(w * s ** (k + 1) for s, w in _LAGUERRE_RULE)
            assert moment == pytest.approx(math.factorial(k), rel=1e-14), k

    def test_branch_agreement(self):
        # series and Gauss-Laguerre evaluated at the same point
        for x in (1.2, 1.5, 2.0):
            series = _g_series(x)
            assert abs(series - _g_laguerre(x)) < 1e-13 * series, x


class TestLowerBound:
    def test_expansion_kernels_share_l(self):
        # the Lambda^2 and Lambda^3 coefficients of the expansion use this
        # same L, bit for bit
        from qsd_sr.asymptotics import _truncation

        for u in (0.01, 1.0, 1.5, 40.0):
            _, _, quadratic, cubic = _truncation(u, 3)
            assert quadratic == 2.0 * lower_bound_l(u)
            assert cubic == 4.0 * (meijer_g_special(u) - 2.0 * lower_bound_l(u))

    def test_vanishes_at_infinity(self):
        assert abs(lower_bound_l(1000.0)) < 1e-2

    def test_positive(self):
        for x in (0.01, 0.1, 1.0, 10.0):
            assert lower_bound_l(x) > 0.0

    def test_reproduces_second_order_eigenvalue(self):
        # plugging L into the quadratic correction must reproduce the
        # reference value for mu=1, A=20
        ell = lower_bound_l(0.1)
        lam2 = -0.25 * (1.0 - math.sqrt(1.0 - (8.0 / 20.0) * ell)) / ell
        assert abs(-lam2 - 0.059819055496) < 1e-9


# ---------------------------------------------------------------------------
# stationary law
# ---------------------------------------------------------------------------

class TestStationaryLaw:
    def test_mode_location(self):
        for mu in (0.5, 1.0, 1.5):
            p = ModelParams(mu=mu, A=10.0)
            xstar = 1.0 / mu**2
            h = 1e-6 * xstar
            d = (speed_density(xstar + h, p) - speed_density(xstar - h, p)) / (2 * h)
            assert abs(d) < 1e-6 * speed_density(xstar, p)

    def test_normalization(self):
        p = ModelParams(mu=1.0, A=10.0)
        total, _ = quad(lambda x: speed_density(x, p), 0.0, math.inf, epsabs=1e-12, epsrel=1e-12)
        assert abs(total - 1.0) < 1e-10

    def test_zero_extension(self):
        p = ModelParams(mu=1.0, A=10.0)
        assert speed_density(0.0, p) == 0.0
        assert speed_density(-1.0, p) == 0.0

    def test_nan_raises(self):
        with pytest.raises(DomainError):
            speed_density(math.nan, ModelParams(mu=1.0, A=10.0))
