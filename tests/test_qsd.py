import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import count_slope_sign_changes
from qsd_sr import (
    DomainError,
    ModelParams,
    boundary_flux_identity,
    build_approx,
    build_solution,
    cdf,
    mean,
    mode,
    moments,
    pdf,
    speed_density,
    variance,
)

SWEEP = [(mu, A) for mu in (0.5, 1.0, 1.5) for A in (5.0, 20.0, 100.0)]

# mode() at the SWEEP points as computed by the earlier 256-node scan plus
# bisection to a 1e-12 A bracket
SCAN_MODES = {
    (0.5, 5.0): 2.389595874058398,
    (0.5, 20.0): 3.517484312817265,
    (0.5, 100.0): 3.9108193419232293,
    (1.0, 5.0): 0.8793710782043163,
    (1.0, 20.0): 0.9717670741404048,
    (1.0, 100.0): 0.994758423760258,
    (1.5, 5.0): 0.42135792487012835,
    (1.5, 20.0): 0.43910481966126,
    (1.5, 100.0): 0.44342984453546685,
}


# (x, pdf(x), cdf(x)) as computed when every pdf/cdf point built its own
# Whittaker index, at real b (mu=1, A=20), imaginary b (mu=1, A=3) and large
# c (mu=1.2, A=1000); x covers z on both sides of 18, where the kernel's
# trapezoid step turns x-dependent
LAW_VALUES = {
    (1.0, 20.0): [
        (0.1, 5.781295681619023e-07, 2.891424524419448e-09),
        (0.7, 0.31730786028429475, 0.07845768843041864),
        (2.0, 0.2301448419203254, 0.48359683871143533),
        (9.0, 0.014625132866909404, 0.952651359348858),
        (19.9, 2.971708260712121e-05, 0.9999985189801127),
    ],
    (1.0, 3.0): [
        (0.1, 1.928435914147422e-06, 9.666362805153696e-09),
        (0.5, 0.5480308016636959, 0.07204253497218707),
        (1.0, 0.7462806341606737, 0.4455945906294952),
        (2.0, 0.22068518327578046, 0.9091978870633189),
        (2.9, 0.012858648148114724, 0.9993689467347131),
    ],
    (1.2, 1000.0): [
        (0.05, 4.844268105142064e-10, 8.719697365618754e-13),
        (0.5, 0.3486529896200149, 0.06276465233421723),
        (3.0, 0.09779302272411491, 0.6347601654201621),
        (100.0, 0.0001244488852595361, 0.9906898030435337),
        (990.0, 1.427110879262439e-08, 0.9999999291211864),
    ],
}

def quad_pdf(sol, lo, hi):
    val, _ = quad(lambda x: pdf(x, sol), lo, hi, epsabs=1e-11, epsrel=1e-11, limit=400)
    return val


class TestBuildSolution:
    def test_denominator_positive_sweep(self):
        for mu, A in SWEEP:
            sol = build_solution(ModelParams(mu=mu, A=A))
            assert sol.denom > 0.0, (mu, A)

    def test_denominator_limit_one(self):
        sol = build_solution(ModelParams(mu=1.0, A=10000.0))
        assert abs(sol.denom - 1.0) < 1e-2

    def test_cdf_at_threshold_is_one(self, sol_mu1_A20):
        assert cdf(20.0, sol_mu1_A20) == 1.0
        assert cdf(19.999999999, sol_mu1_A20) == pytest.approx(1.0, abs=1e-6)


class TestPdf:
    def test_boundary_values(self, sol_mu1_A20):
        assert pdf(0.0, sol_mu1_A20) == 0.0
        assert pdf(-3.0, sol_mu1_A20) == 0.0
        assert pdf(25.0, sol_mu1_A20) == 0.0
        assert abs(pdf(20.0, sol_mu1_A20)) < 1e-9  # eigen-equation residual

    def test_vanishes_continuously_at_zero(self, sol_mu1_A20):
        assert pdf(1e-4, sol_mu1_A20) < 1e-300
        assert pdf(0.05, sol_mu1_A20) < 1e-12

    def test_normalization(self, sol_mu1_A20):
        assert abs(quad_pdf(sol_mu1_A20, 0.0, 20.0) - 1.0) < 1e-8

    def test_normalization_large_threshold_sweep(self):
        # at A = 1000 the mass sits far below the threshold, so hint the
        # quadrature at the stationary-law scale 1/mu^2
        for mu in (0.5, 1.0, 1.5):
            sol = build_solution(ModelParams(mu=mu, A=1000.0))
            xstar = 1.0 / mu**2
            total, _ = quad(
                lambda x: pdf(x, sol), 0.0, 1000.0,
                points=[xstar, 10.0 * xstar, 100.0 * xstar],
                epsabs=1e-11, epsrel=1e-11, limit=500,
            )
            assert abs(total - 1.0) < 1e-8, mu

    def test_zero_at_and_nonnegative_below_threshold(self):
        # the unclamped closed form rounds to about -1e-14 at mu=1, A=5 and
        # is negative within ~1e-11 of A at mu=1.2, A=1000
        for mu, A in SWEEP + [(1.2, 1000.0)]:
            sol = build_solution(ModelParams(mu=mu, A=A))
            assert pdf(A, sol) == 0.0, (mu, A)
            vals = [pdf(A * (1.0 - k * 1e-14), sol) for k in range(1, 201)]
            assert min(vals) >= 0.0, (mu, A)

    def test_positive_inside(self, sol_mu1_A20):
        for x in np.linspace(0.2, 19.8, 200):
            assert pdf(float(x), sol_mu1_A20) > 0.0, x


class TestRecordedValues:
    @pytest.mark.parametrize("mu,A", sorted(LAW_VALUES))
    def test_pdf_and_cdf(self, mu, A):
        sol = build_solution(ModelParams(mu=mu, A=A))
        for x, q, Q in LAW_VALUES[(mu, A)]:
            assert pdf(x, sol) == pytest.approx(q, rel=1e-14), x
            assert cdf(x, sol) == pytest.approx(Q, rel=1e-14), x

@pytest.mark.parametrize("density", [
    pdf,
    cdf,
    lambda x, sol: build_approx(sol.params, 1).pdf(x),
    lambda x, sol: build_approx(sol.params, 2).pdf(x),
    lambda x, sol: build_approx(sol.params, 3).pdf(x),
], ids=["pdf", "cdf", "approx1", "approx2", "approx3"])
def test_nan_position_is_domain_error(density, sol_mu1_A20):
    # named as the position, not as the Whittaker argument it would become
    with pytest.raises(DomainError, match="position x"):
        density(math.nan, sol_mu1_A20)


class TestCdf:
    def test_boundaries(self, sol_mu1_A20):
        assert cdf(0.0, sol_mu1_A20) == 0.0
        assert cdf(-1.0, sol_mu1_A20) == 0.0
        assert cdf(20.0, sol_mu1_A20) == 1.0
        assert cdf(50.0, sol_mu1_A20) == 1.0

    def test_matches_pdf_integral(self, sol_mu1_A20):
        assert abs(cdf(10.0, sol_mu1_A20) - quad_pdf(sol_mu1_A20, 0.0, 10.0)) < 1e-8

    def test_derivative_matches_pdf(self, sol_mu1_A20):
        h = 2e-4
        for x in (1.0, 3.0, 10.0, 18.0):
            fd = (cdf(x + h, sol_mu1_A20) - cdf(x - h, sol_mu1_A20)) / (2.0 * h)
            assert fd == pytest.approx(pdf(x, sol_mu1_A20), abs=1e-6 * 0.1, rel=1e-5)

    def test_at_most_one_just_below_threshold(self):
        # rounding in the closed form overshoots 1 by ~4e-16 within ~1e-11 of A
        for mu, A in SWEEP:
            sol = build_solution(ModelParams(mu=mu, A=A))
            vals = [cdf(A * (1.0 - k * 1e-13), sol) for k in range(1, 201)]
            assert max(vals) <= cdf(A, sol) == 1.0, (mu, A)

    def test_monotone_on_grid(self, sol_mu1_A20):
        xs = np.linspace(0.0, 20.0, 10_000)
        vals = [cdf(float(x), sol_mu1_A20) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestUnimodality:
    def test_single_slope_sign_change(self, sol_mu1_A20):
        xs = np.linspace(0.0, 20.0, 10_000)
        vals = [pdf(float(x), sol_mu1_A20) for x in xs]
        assert count_slope_sign_changes(vals) == 1

    def test_stationary_limit(self):
        # sup |pdf - stationary density| on [0.1, 10] decreases along A
        sups = []
        for A in (1e2, 1e3, 1e4):
            p = ModelParams(mu=1.0, A=A)
            sol = build_solution(p)
            xs = np.linspace(0.1, 10.0, 300)
            sups.append(
                max(abs(pdf(float(x), sol) - speed_density(float(x), p)) for x in xs)
            )
        assert sups[0] > sups[1] > sups[2]


class TestMoments:
    def test_recurrence_residual(self, sol_mu1_A20):
        lam = sol_mu1_A20.se.lam
        A = 20.0
        ms = moments(sol_mu1_A20, 20)
        for n in range(1, 21):
            resid = ms[n] * (0.5 * n * (n - 1) - lam) + n * ms[n - 1] + lam * A**n
            scale = abs(lam) * A**n
            assert abs(resid) < 1e-12 * scale, n

    def test_first_moment_closed_form(self, sol_mu1_A20):
        ms = moments(sol_mu1_A20, 1)
        assert ms[1] == pytest.approx(mean(sol_mu1_A20), rel=1e-13)
        assert mean(sol_mu1_A20) == pytest.approx(20.0 + 1.0 / sol_mu1_A20.se.lam, rel=1e-15)

    def test_variance_closed_form(self, sol_mu1_A20):
        ms = moments(sol_mu1_A20, 2)
        assert ms[2] - ms[1] ** 2 == pytest.approx(variance(sol_mu1_A20), rel=1e-12)
        assert variance(sol_mu1_A20) >= 0.0

    def test_against_quadrature(self, sol_mu1_A20):
        for n in range(1, 6):
            mq, _ = quad(
                lambda x: x**n * pdf(x, sol_mu1_A20), 0.0, 20.0,
                epsabs=1e-12, epsrel=1e-10, limit=400,
            )
            assert moments(sol_mu1_A20, n)[n] == pytest.approx(mq, rel=1e-6), n

    def test_range_and_bounds(self, sol_mu1_A20):
        ms = moments(sol_mu1_A20, 10)
        assert ms[0] == 1.0
        for n in range(1, 11):
            assert 0.0 < ms[n] < 20.0**n

    def test_order_past_float_range_is_domain_error(self):
        # 2e6^49 overflows a double; the guard names the last order that fits
        sol = build_solution(ModelParams(1.0, 2e6))
        with pytest.raises(DomainError, match="up to n = 48"):
            moments(sol, 50)
        assert math.isfinite(moments(sol, 48)[48])

    def test_order_50_at_large_threshold(self):
        ms = moments(build_solution(ModelParams(1.0, 1e5)), 50)
        assert ms[50] == pytest.approx(8.164771413158043e241, rel=1e-12)

    def test_order_cap(self, sol_mu1_A20):
        moments(sol_mu1_A20, 50)
        with pytest.raises(DomainError):
            moments(sol_mu1_A20, 51)
        with pytest.raises(DomainError):
            moments(sol_mu1_A20, -1)
        with pytest.raises(DomainError):  # was a bare TypeError from range
            moments(sol_mu1_A20, 2.5)
        for n_max in (2.0, True, False):  # bool is an int subclass
            with pytest.raises(DomainError, match="nonnegative int"):
                moments(sol_mu1_A20, n_max)


class TestMode:
    def test_derivative_vanishes(self, sol_mu1_A20):
        xt = mode(sol_mu1_A20)
        h = 1e-4
        fd = (pdf(xt + h, sol_mu1_A20) - pdf(xt - h, sol_mu1_A20)) / (2.0 * h)
        scale = pdf(xt, sol_mu1_A20)
        assert abs(fd) < 1e-6 * scale

    def test_limit_large_threshold(self):
        sol = build_solution(ModelParams(mu=1.0, A=10000.0))
        assert abs(mode(sol) - 1.0) <= 0.05

    def test_matches_dense_argmax(self, sol_mu1_A20):
        xs = np.linspace(0.0, 20.0, 100_000)
        vals = np.array([pdf(float(x), sol_mu1_A20) for x in xs])
        x_star = xs[int(np.argmax(vals))]
        assert abs(mode(sol_mu1_A20) - x_star) <= xs[1] - xs[0]

    def test_inside_interval_sweep(self):
        for mu, A in SWEEP:
            sol = build_solution(ModelParams(mu=mu, A=A))
            xt = mode(sol)
            assert 0.0 < xt < A, (mu, A)

    def test_matches_scan_values(self):
        for (mu, A), scanned in SCAN_MODES.items():
            sol = build_solution(ModelParams(mu=mu, A=A))
            assert abs(mode(sol) - scanned) <= 1e-12 * A, (mu, A)

    @pytest.mark.parametrize("mu, A", [(1.0, 3e4), (10.0, 1e4), (0.5, 4e9)],
                             ids=["c3e4", "c1e6-mu10", "c1e9-mu0.5"])
    def test_large_threshold_near_stationary_mode(self, mu, A):
        # the stationary density's mode is 1/mu^2; here it lies inside the
        # first cell of any uniform grid on [0, A] coarser than ~c/2 nodes
        c = mu * mu * A
        xt = mode(build_solution(ModelParams(mu=mu, A=A)))
        assert 0.0 < xt < A
        assert abs(xt - 1.0 / mu**2) <= 2.0 / (mu * mu * c)


class TestBoundaryFlux:
    def test_matches_eigenvalue(self, sol_mu1_A20):
        flux = boundary_flux_identity(sol_mu1_A20)
        lam = sol_mu1_A20.se.lam
        assert abs(flux - lam) / abs(lam) < 3e-12
        assert flux < 0.0  # density decreasing at the absorbing threshold

    def test_flat_at_origin(self, sol_mu1_A20):
        # companion check: the density leaves the origin with zero slope
        h = 1e-3
        fd = (pdf(0.2 + h, sol_mu1_A20) - pdf(0.2 - h, sol_mu1_A20)) / (2.0 * h)
        fd0 = (pdf(0.02 + h, sol_mu1_A20) - pdf(0.02 - h, sol_mu1_A20)) / (2.0 * h)
        assert abs(fd0) < abs(fd)
        assert abs(fd0) < 1e-10
