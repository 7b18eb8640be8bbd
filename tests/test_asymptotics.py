import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import REFERENCE_TABLE
from qsd_sr import (
    DomainError,
    ModelParams,
    ThresholdTooSmallError,
    WhittakerIndex,
    build_approx,
    build_solution,
    dominant_eigenvalue,
    index_derivative_check,
    lambda_order1,
    lambda_order2,
    lambda_order3,
    meijer_g_special,
    pdf,
    whittaker_expansion3,
    whittaker_w,
)
from qsd_sr import asymptotics, specfun
from qsd_sr.asymptotics import _index_derivative_scaled, approx_pdfs
from qsd_sr.checks import SUITES
from qsd_sr.eigensolver import _index_b


class TestEigenvalueApproximations:
    def test_order1(self):
        assert lambda_order1(ModelParams(mu=1.0, A=20.0)) == -0.05
        assert lambda_order1(ModelParams(mu=1.0, A=1000.0)) == -0.001

    def test_order1_drift_independent(self):
        for mu in (0.5, 1.0, 3.0):
            assert lambda_order1(ModelParams(mu=mu, A=37.0)) == -1.0 / 37.0

    def test_order2_reference_values(self):
        for A, refs in REFERENCE_TABLE.items():
            val = -lambda_order2(ModelParams(mu=1.0, A=float(A)))
            tol = 1e-10 if A == 10000 else 1e-9
            assert abs(val - float(refs[2])) < tol, A

    def test_order3_reference_values(self):
        for A, refs in REFERENCE_TABLE.items():
            val = -lambda_order3(ModelParams(mu=1.0, A=float(A)))
            tol = 1e-10 if A >= 500 else 1e-9
            assert abs(val - float(refs[3])) < tol, A

    def test_accuracy_ordering(self):
        for A, refs in REFERENCE_TABLE.items():
            lam = float(refs[0])
            e1 = abs(lam - float(refs[1]))
            e2 = abs(lam - float(refs[2]))
            e3 = abs(lam - float(refs[3]))
            assert e3 <= e2 <= e1, A

    def test_first_order_convergence_rate(self):
        # A^(3/2) |lam - lam*| stays bounded along the reference grid
        vals = []
        for A, refs in REFERENCE_TABLE.items():
            vals.append(A**1.5 * abs(float(refs[0]) - float(refs[1])))
        assert max(vals) < 10.0 * max(vals[-3:])

    def test_order2_root_keeps_its_digits_at_large_c(self):
        # the near-zero root of (2/mu^2) L lam^2 + lam + 1/A = 0 at mu = 1,
        # computed once in 45-digit mpmath (L from mpmath's e1 and the
        # series of G) and kept to 20 digits; 1 - sqrt(disc) would lose
        # about log10(c) of them
        for c, ref in ((1e7, -1.0000027695670437475e-7), (1e9, -1.0000000369058095556e-9)):
            lam = lambda_order2(ModelParams(mu=1.0, A=c))
            assert abs(lam - ref) <= 1e-15 * abs(ref), c

    def test_order2_threshold_too_small(self):
        with pytest.raises(ThresholdTooSmallError):
            lambda_order2(ModelParams(mu=1.0, A=1.0))

    def test_order3_single_real_root_on_reference_grid(self):
        # the cubic has exactly one real root at each reference threshold
        # even though its leading coefficient is positive there
        for A in REFERENCE_TABLE:
            lambda_order3(ModelParams(mu=1.0, A=float(A)))


class TestOrderConvergence:
    # The relative error of lam_k against the solver's lam at 4 c per
    # decade.  Each range stops where the solver's own eps c/8 error is
    # still far below the order's: order 3 reads 4.4e-12 at c = 1e5 against
    # 6.7e-13 from the true root.  err(c) / err(10 c) climbs towards 10^k as
    # (log c / c)^k would; the bands hold the ratios measured once over
    # these ranges (5.65-8.34, 36.7-55.4 and 216-304), rounded outwards
    TOP_DECADE = {1: 7, 2: 5, 3: 4}
    RATIO_BAND = {1: (5.6, 8.4), 2: (36.5, 55.5), 3: (215.0, 305.0)}
    # The same for the densities: sup |q_k - q| / max q over 400 points
    # x = 2/z, z log-spaced on [2/c, 1e3], so the bulk of the law is sampled
    # at every c (the CLI's uniform grid puts 1-2 points there at large c).
    # Every error on these ranges is at least 69 times the solver's
    # eps c/8; the ratios measured once were 34.5-57.6, 223-375 and
    # 1311-1687
    DENSITY_TOP_DECADE = {1: 5.0, 2: 4.5, 3: 3.5}
    DENSITY_RATIO_BAND = {1: (34.0, 58.0), 2: (220.0, 380.0), 3: (1300.0, 1700.0)}

    @staticmethod
    def cs(top):
        return [10.0 ** (2.0 + j / 4) for j in range(int(4 * (top - 2)) + 1)]

    @classmethod
    def errors(cls, top):
        out = {}
        for c in cls.cs(top):
            p = ModelParams(mu=1.0, A=c)
            lam = dominant_eigenvalue(p).lam
            out[c] = [abs(f(p) - lam) / -lam for f in asymptotics.LAMBDA_BY_ORDER.values()]
        return out

    @classmethod
    def density_errors(cls, top):
        out = {}
        for c in cls.cs(top):
            p = ModelParams(mu=1.0, A=c)
            sol = build_solution(p)
            sols = [build_approx(p, k) for k in asymptotics.LAMBDA_BY_ORDER]
            xs = [c / (500.0 * c) ** (i / 399) for i in range(400)]  # x = 2/z at mu = 1
            q = [pdf(x, sol) for x in xs]
            qk = [approx_pdfs(sols, x) for x in xs]
            peak = max(q)
            out[c] = [max(abs(row[k] - v) for row, v in zip(qk, q)) / peak for k in range(3)]
        return out

    @staticmethod
    def assert_fall_order_by_order(errs, top_decade, ratio_band):
        cs = sorted(errs)
        for k, top in top_decade.items():
            ek = [errs[c][k - 1] for c in cs if c <= 10.0**top]
            assert all(a > b for a, b in zip(ek, ek[1:])), k
            lo, hi = ratio_band[k]
            ratios = [a / b for a, b in zip(ek, ek[4:])]
            assert lo <= min(ratios) and max(ratios) <= hi, (k, min(ratios), max(ratios))
            if k < 3:
                nxt = [errs[c][k] for c in cs if c <= 10.0 ** top_decade[k + 1]]
                assert all(e1 < e0 for e0, e1 in zip(ek, nxt)), k

    def test_errors_fall_order_by_order(self):
        errs = self.errors(max(self.TOP_DECADE.values()))
        self.assert_fall_order_by_order(errs, self.TOP_DECADE, self.RATIO_BAND)

    def test_density_errors_fall_order_by_order(self):
        errs = self.density_errors(max(self.DENSITY_TOP_DECADE.values()))
        self.assert_fall_order_by_order(errs, self.DENSITY_TOP_DECADE, self.DENSITY_RATIO_BAND)


class TestExpansion:
    def test_zeroth_order_closed_form(self):
        # at lam = 0 the expansion collapses to W_{1,1/2}(2/(mu^2 x))
        for mu, x in ((1.0, 5.0), (0.5, 2.0), (1.5, 0.7)):
            p = ModelParams(mu=mu, A=20.0)
            u = 2.0 / (mu**2 * x)
            expect = u * math.exp(-0.5 * u)
            assert whittaker_expansion3(x, 0.0, p) == pytest.approx(expect, rel=1e-13)

    def test_fourth_order_error_scaling(self):
        # truncation error drops ~16x when lam is halved
        p = ModelParams(mu=1.0, A=20.0)
        x = 10.0

        def err(lam):
            exact = whittaker_w(WhittakerIndex(1, _index_b(lam, 1.0)), 2.0 / x)
            return abs(whittaker_expansion3(x, lam, p) - exact)

        ratio = err(-0.01) / err(-0.005)
        assert 8.0 <= ratio <= 32.0

    def test_root_of_truncation(self):
        # lam** and lam*** zero their truncated numerators at x = A by
        # construction; P_k(0; u) = u/2 is the scale
        p = ModelParams(mu=1.0, A=20.0)
        u = 2.0 / (p.mu2 * p.A)
        for order, lam in ((2, lambda_order2(p)), (3, lambda_order3(p))):
            coef = asymptotics._truncation(u, order)
            resid = specfun._horner(coef, lam / p.mu2)
            assert abs(resid) < 1e-9 * coef[0], order
        lam3 = lambda_order3(p)
        resid = whittaker_expansion3(20.0, lam3, p)
        scale = whittaker_expansion3(20.0, 0.0, p)
        assert abs(resid) < 1e-9 * scale

    def test_second_order_coefficient_extraction(self):
        # (expansion(lam) - expansion(0) - lam d-term)/lam^2 converges to the
        # quadratic coefficient as lam -> 0
        p = ModelParams(mu=1.0, A=20.0)
        x = 5.0
        u = 2.0 / x
        lead = 2.0 * math.exp(-0.5 * u)  # (2/mu^2) e^{-1/(mu^2 x)} at mu=1
        from qsd_sr import lower_bound_l

        target = lead * 2.0 * lower_bound_l(u)
        vals = []
        for lam in (-1e-2, -1e-3):
            num = (
                whittaker_expansion3(x, lam, p)
                - whittaker_expansion3(x, 0.0, p)
                - lam * lead
            )
            vals.append(num / lam**2)
        assert abs(vals[1] - target) < abs(vals[0] - target)
        assert vals[1] == pytest.approx(target, rel=1e-2)

    def test_domain(self):
        with pytest.raises(DomainError):
            whittaker_expansion3(0.0, -0.01, ModelParams(mu=1.0, A=20.0))


class TestIndexDerivatives:
    # the closed forms are compared without their factor e^{-x/2}
    def test_first_identity_value(self):
        assert _index_derivative_scaled(1, 2.0) == 1.0

    def test_third_identity_value(self):
        expect = 6.0 * meijer_g_special(1.0)
        assert _index_derivative_scaled(3, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_against_numerical_derivatives(self):
        for k in (1, 2, 3):
            for x in (0.5, 2.0, 10.0):
                assert index_derivative_check(k, x) < 3e-13, (k, x)

    def test_first_identity_across_range(self):
        for x in np.linspace(0.1, 20.0, 24):
            assert index_derivative_check(1, float(x)) < 3e-13, x

    @pytest.mark.parametrize("x", [1500.0, 1e4, 1e6, 1e9])
    def test_where_the_common_factor_underflows(self, x):
        # e^{-x/2} is 0.0 from x = 1491 on; the check compares without it
        assert math.exp(-0.5 * x) == 0.0
        for k in (1, 2, 3):
            assert index_derivative_check(k, x) < 3e-13, k

    def test_order_validation(self):
        with pytest.raises(DomainError, match="derivative order"):
            _index_derivative_scaled(4, 1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, 0.0, -1.0])
    def test_argument_must_be_finite_and_positive(self, x):
        # the error names x, not the argument of G or of the Whittaker kernel
        for k in (1, 2, 3):
            with pytest.raises(DomainError, match="x must be finite and positive"):
                _index_derivative_scaled(k, x)
            with pytest.raises(DomainError, match="x must be finite and positive"):
                index_derivative_check(k, x)
        with pytest.raises(DomainError, match="x must be finite and positive"):
            whittaker_expansion3(x, -0.01, ModelParams(mu=1.0, A=20.0))

    @pytest.mark.parametrize("target", ["G", "kernel terms"])
    def test_identities_suite_catches_a_relative_error_of_1e_9(self, target, monkeypatch):
        # G enters the k = 2 and 3 closed forms, the kernel's terms the
        # kernel side of all three
        if target == "G":
            g = asymptotics.meijer_g_special
            monkeypatch.setattr(asymptotics, "meijer_g_special", lambda x: g(x) * (1.0 + 1e-9))
        else:
            w_terms = specfun._w_terms

            def scaled_terms(a, z):
                ts, ws = w_terms(a, z)
                return ts, [w * (1.0 + 1e-9) for w in ws]

            monkeypatch.setattr(specfun, "_w_terms", scaled_terms)
        failed = [c["name"] for c in SUITES["identities"]() if c["status"] == "fail"]
        assert any(name.startswith("index_derivative") for name in failed), failed


class TestPdfApprox:
    def test_first_order_vanishes_at_threshold(self):
        p = ModelParams(mu=1.0, A=20.0)
        ap = build_approx(p, 1)
        # the order-1 numerator is 1/A + lam* = 0 exactly at x = A
        assert ap.pdf(20.0) == 0.0

    def test_zero_outside_support(self):
        p = ModelParams(mu=1.0, A=20.0)
        for order in (1, 2, 3):
            ap = build_approx(p, order)
            assert ap.pdf(-1.0) == 0.0
            assert ap.pdf(0.0) == 0.0
            assert ap.pdf(20.5) == 0.0

    @pytest.mark.parametrize("mu,A", [(1.0, 3.0), (1.1, 60.0)])
    def test_zero_at_and_nonnegative_below_threshold(self, mu, A):
        # unclamped, order 3 gave -5.6e-17 at x = A = 3, and orders 2 and 3
        # gave +5.2e-20 and -3.4e-20 at x = A = 60
        p = ModelParams(mu=mu, A=A)
        xs = [A * i / 49 for i in range(50)]  # the CLI's 50-point grid
        for order in (1, 2, 3):
            try:
                ap = build_approx(p, order)
            except ThresholdTooSmallError:
                continue  # order 2 at mu=1, A=3
            assert ap.pdf(A) == 0.0, (mu, A, order)
            assert min(ap.pdf(x) for x in xs) >= 0.0, (mu, A, order)

    def test_error_ordering_on_grid(self, sol_mu1_A20):
        p = ModelParams(mu=1.0, A=20.0)
        approxes = {k: build_approx(p, k) for k in (1, 2, 3)}
        xs = np.linspace(0.25, 19.75, 80)
        errs = {
            k: max(abs(pdf(float(x), sol_mu1_A20) - approxes[k].pdf(float(x))) for x in xs)
            for k in (1, 2, 3)
        }
        assert errs[3] < errs[1]
        assert errs[2] < errs[1]

    def test_order3_near_normalized(self):
        p = ModelParams(mu=1.0, A=100.0)
        ap = build_approx(p, 3)
        total, _ = quad(lambda x: ap.pdf(x), 0.0, 100.0, epsabs=1e-9, epsrel=1e-9, limit=300)
        assert abs(total - 1.0) < 1e-3

    def test_order3_density_is_normalized_expansion(self):
        # the order-3 density and the truncated numerator share one expansion:
        # q3(x) D = exp(-1/(mu^2 x)) / x * W3(x, lam***)
        for mu in (0.5, 1.0, 1.5):
            for A in (20.0, 100.0):
                p = ModelParams(mu=mu, A=A)
                ap = build_approx(p, 3)
                for x in np.linspace(0.05 * A, 0.95 * A, 7):
                    x = float(x)
                    expect = (math.exp(-1.0 / (mu**2 * x)) / x
                              * whittaker_expansion3(x, ap.lambda_approx, p))
                    assert ap.pdf(x) * ap.denom == pytest.approx(expect, rel=1e-13), (mu, A, x)

    @pytest.mark.parametrize("mu,A", [(1.1, 40.0), (1.0, 3.0)])
    def test_shared_expansion_equals_each_order(self, mu, A):
        # one expansion per x for every order gives each order's own density
        # bit for bit; at (1, 3) order 2 does not exist and order 3 does
        p = ModelParams(mu=mu, A=A)
        sols = []
        for order in (1, 2, 3):
            try:
                sols.append(build_approx(p, order))
            except ThresholdTooSmallError:
                assert (A, order) == (3.0, 2)
        assert [s.order for s in sols] == ([1, 3] if A == 3.0 else [1, 2, 3])
        xs = [A * i / 999 for i in range(1000)]  # the CLI's default grid
        xs += [-1.0, A, 1.5 * A, 1e-3]  # at x = 1e-3, u = 2/(mu^2 x) >= 745
        for x in xs:
            assert approx_pdfs(sols, x) == [s.pdf(x) for s in sols], x
        assert approx_pdfs([], 1.0) == []

    def test_order1_density_evaluates_no_kernel(self, monkeypatch):
        # P_1 = u/2 + Lambda needs neither G nor L
        ap = build_approx(ModelParams(mu=1.3, A=47.0), 1)
        xs = [47.0 * i / 999 for i in range(1000)]
        expect = [ap.pdf(x) for x in xs]

        def no_kernels(u):
            raise AssertionError(f"G and L evaluated at u={u} for order 1")

        monkeypatch.setattr(asymptotics, "_g_and_l", no_kernels)
        assert [ap.pdf(x) for x in xs] == expect
        assert max(expect) > 0.0

    def test_order_validation(self):
        with pytest.raises(DomainError):
            build_approx(ModelParams(mu=1.0, A=20.0), 4)
        for order in (2.0, True):  # equal as dict keys to 2 and 1
            with pytest.raises(DomainError, match="the int 1, 2 or 3"):
                build_approx(ModelParams(mu=1.0, A=20.0), order)
