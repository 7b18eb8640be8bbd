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
    index_derivative_check,
    index_derivative_identity,
    lambda_order1,
    lambda_order2,
    lambda_order3,
    meijer_g_special,
    pdf,
    whittaker_expansion3,
    whittaker_w,
)
from qsd_sr.asymptotics import approx_pdfs
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

    def test_order2_threshold_too_small(self):
        with pytest.raises(ThresholdTooSmallError):
            lambda_order2(ModelParams(mu=1.0, A=1.0))

    def test_order3_single_real_root_on_reference_grid(self):
        # the cubic has exactly one real root at each reference threshold
        # even though its leading coefficient is positive there
        for A in REFERENCE_TABLE:
            lambda_order3(ModelParams(mu=1.0, A=float(A)))


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
        # lam*** zeroes the truncated numerator at x = A by construction
        p = ModelParams(mu=1.0, A=20.0)
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
    def test_first_identity_value(self):
        assert index_derivative_identity(1, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_third_identity_value(self):
        expect = 6.0 * math.exp(-0.5) * meijer_g_special(1.0)
        assert index_derivative_identity(3, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_against_numerical_derivatives(self):
        for k in (1, 2, 3):
            for x in (0.5, 2.0, 10.0):
                assert index_derivative_check(k, x) < 1e-5, (k, x)

    def test_first_identity_across_range(self):
        for x in np.linspace(0.1, 20.0, 24):
            assert index_derivative_check(1, float(x)) < 1e-5, x

    def test_order_validation(self):
        with pytest.raises(DomainError):
            index_derivative_identity(4, 1.0)
        with pytest.raises(DomainError):
            index_derivative_identity(1, -1.0)
        with pytest.raises(DomainError):
            index_derivative_identity(1, math.nan)


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

    def test_order_validation(self):
        with pytest.raises(DomainError):
            build_approx(ModelParams(mu=1.0, A=20.0), 4)
