import hashlib
import math

import numpy as np
import pytest

from oracles import ks_distance
from qsd_sr import oracle
from qsd_sr import (
    DomainError,
    ModelParams,
    NoSurvivorsError,
    cdf,
    dominant_eigenvalue,
    integral_identity_check,
    norm_identity_check,
    pdf,
    simulate_killed_sr,
    sturm_liouville_eigen,
)


class TestSturmLiouville:
    def test_eigenvalue_agreement(self, sol_mu1_A20, params_mu1_A20):
        gs = sturm_liouville_eigen(params_mu1_A20, 20000)
        rel = abs(gs.lambda_hat - sol_mu1_A20.se.lam) / abs(sol_mu1_A20.se.lam)
        assert rel < 1e-4

    def test_dirichlet_imposed(self, params_mu1_A20):
        gs = sturm_liouville_eigen(params_mu1_A20, 5000)
        assert gs.grid[-1] == 20.0
        assert gs.q_hat[-1] == 0.0

    def test_density_matches_closed_form(self, sol_mu1_A20, params_mu1_A20):
        gs = sturm_liouville_eigen(params_mu1_A20, 20000)
        step = max(1, gs.grid.size // 1500)
        dev = max(
            abs(pdf(float(x), sol_mu1_A20) - float(q))
            for x, q in zip(gs.grid[::step], gs.q_hat[::step])
        )
        assert dev < 1e-4

    def test_interior_point_value(self, sol_mu1_A20, params_mu1_A20):
        gs = sturm_liouville_eigen(params_mu1_A20, 20000)
        q5 = float(np.interp(5.0, gs.grid, gs.q_hat))
        assert abs(q5 - pdf(5.0, sol_mu1_A20)) < 1e-4 * max(1.0, pdf(5.0, sol_mu1_A20))

    def test_normalized_and_nonnegative(self, params_mu1_A20):
        gs = sturm_liouville_eigen(params_mu1_A20, 5000)
        assert abs(np.trapezoid(gs.q_hat, gs.grid) - 1.0) < 1e-10
        assert gs.lambda_hat <= 0.0
        assert np.all(gs.q_hat >= -1e-12)

    def test_grid_refinement_second_order(self, sol_mu1_A20, params_mu1_A20):
        lam = sol_mu1_A20.se.lam
        errs = [
            abs(sturm_liouville_eigen(params_mu1_A20, n).lambda_hat - lam)
            for n in (2500, 10000, 40000)
        ]
        assert errs[0] > errs[1] > errs[2]
        # spacing halves twice between consecutive entries: one refinement
        # ratio of ~4 per halving compounds to ~16, asserted within a
        # factor 2; the last step touches the double-precision floor, so
        # only decrease is asserted there
        assert 8.0 <= errs[0] / errs[1] <= 32.0

    def test_rejects_tiny_grid(self, params_mu1_A20):
        with pytest.raises(DomainError):
            sturm_liouville_eigen(params_mu1_A20, 99)


class TestSimulation:
    def test_seed_determinism(self, params_mu1_A20):
        a = simulate_killed_sr(params_mu1_A20, r=5.0, dt=1e-2, T=10.0, n_paths=4000, seed=42)
        b = simulate_killed_sr(params_mu1_A20, r=5.0, dt=1e-2, T=10.0, n_paths=4000, seed=42)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.bin_masses, b.bin_masses)
        c = simulate_killed_sr(params_mu1_A20, r=5.0, dt=1e-2, T=10.0, n_paths=4000, seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_samples_inside_support(self, params_mu1_A20):
        law = simulate_killed_sr(params_mu1_A20, r=5.0, dt=1e-2, T=10.0, n_paths=4000, seed=1)
        assert np.all(law.samples >= 0.0)
        assert np.all(law.samples < 20.0)
        assert law.n_survivors <= law.n_paths_total
        assert abs(law.bin_masses.sum() - 1.0) < 1e-12

    def test_no_survivors_raises(self):
        p = ModelParams(mu=1.0, A=2.0)
        with pytest.raises(NoSurvivorsError):
            simulate_killed_sr(p, r=1.0, dt=1e-2, T=60.0, n_paths=20, seed=3)

    def test_headstart_validation(self, params_mu1_A20):
        with pytest.raises(DomainError):
            simulate_killed_sr(params_mu1_A20, r=20.0, dt=1e-2, T=5.0, n_paths=10, seed=1)
        with pytest.raises(DomainError):
            simulate_killed_sr(params_mu1_A20, r=-1.0, dt=1e-2, T=5.0, n_paths=10, seed=1)

    @pytest.mark.parametrize("kwargs", [
        {"T": math.inf}, {"n_paths": 2.5}, {"seed": -1},
    ], ids=["horizon-inf", "paths-fraction", "seed-negative"])
    def test_bad_arguments_are_domain_errors(self, params_mu1_A20, kwargs):
        args = dict(r=5.0, dt=1e-2, T=5.0, n_paths=10, seed=1) | kwargs
        with pytest.raises(DomainError):
            simulate_killed_sr(params_mu1_A20, **args)

    def test_layout_pinned(self):
        # two noise blocks (7084 steps at 37 paths, then the rest); any
        # change to the draw layout changes this digest and must be deliberate
        law = simulate_killed_sr(ModelParams(mu=1.0, A=100.0), r=5.0, dt=1e-2, T=90.0,
                                 n_paths=37, seed=3)
        assert law.n_survivors == 14
        assert (hashlib.sha256(law.samples.tobytes()).hexdigest()
                == "40e821fbbaf6e4db80c7928cd790d770821985aa69cf550fb35ba9b17438cd1e")

    def test_touching_threshold_inside_a_block_kills(self):
        class FixedDraws:
            def __init__(self, xi):
                self.xi = xi

            def standard_normal(self, size, dtype):
                # one call for the whole run: every step lies in one block
                assert size == self.xi.shape and dtype == np.float32
                return self.xi.copy()

        mu, A, r, dt, n_paths, n_steps = 1.0, 20.0, 5.0, 1e-2, 8, 50
        xi = np.random.default_rng(0).standard_normal((n_steps, n_paths), dtype=np.float32)
        xi[3, 0], xi[4, 0] = 40.0, -9.0  # path 0 jumps above A, then back below
        got = oracle._survivors(FixedDraws(xi), ModelParams(mu=mu, A=A), r, dt, n_paths, n_steps)

        c, dt32, A32 = np.float32(mu * math.sqrt(dt)), np.float32(dt), np.float32(A)
        free = np.full(n_paths, np.float32(r))  # the same paths without the kill
        R, alive = free.copy(), np.arange(n_paths)
        peak = free.copy()
        for row in xi:
            free = free * (1 + c * row) + dt32
            peak = np.maximum(peak, free)
            R = R * (1 + c * row[alive]) + dt32
            alive, R = alive[R < A32], R[R < A32]
        assert peak[0] >= A32 and free[0] < A32
        assert 0 not in alive
        assert got.size == alive.size and np.array_equal(got, R.astype(np.float64))

    def test_ks_smoke(self, sol_mu1_A20, params_mu1_A20):
        # coarse run; the full-size statistical gate lives in acceptance
        law = simulate_killed_sr(params_mu1_A20, r=5.0, dt=2e-3, T=15.0, n_paths=30000, seed=11)
        d = ks_distance(law.samples, lambda v: cdf(v, sol_mu1_A20))
        assert d < 0.025


class TestIntegralIdentity:
    def test_real_index(self):
        assert integral_identity_check(0.2, 1.0) < 1e-8

    def test_half_index_closed_forms(self):
        # at b = 1/2 both sides reduce to exp(-z): equality to quadrature
        # accuracy
        assert integral_identity_check(0.5, 2.0) < 1e-12

    def test_imaginary_index(self):
        assert integral_identity_check(0.25j, 0.5) < 1e-7

    def test_domain(self):
        with pytest.raises(DomainError):
            integral_identity_check(0.2, -1.0)


class TestNormIdentity:
    def test_relative_residual(self, sol_mu1_A20, params_mu1_A20):
        assert norm_identity_check(params_mu1_A20, sol_mu1_A20.se) < 1e-4

    def test_factors_positive_product(self, params_mu1_A20, sol_mu1_A20):
        # the squared norm is positive, so the derivative product must be too
        from qsd_sr import SpectralIndex, WhittakerIndex, whittaker_w

        se = sol_mu1_A20.se
        z_a = 0.1
        h = 1e-6 * abs(se.lam)
        d_lam = (
            whittaker_w(WhittakerIndex(1, SpectralIndex.from_lambda(se.lam + h, 1.0).b), z_a)
            - whittaker_w(WhittakerIndex(1, SpectralIndex.from_lambda(se.lam - h, 1.0).b), z_a)
        ) / (2.0 * h)
        hu = 1e-6 * z_a
        d_u = (
            whittaker_w(WhittakerIndex(1, se.b), z_a + hu)
            - whittaker_w(WhittakerIndex(1, se.b), z_a - hu)
        ) / (2.0 * hu)
        assert d_lam * d_u > 0.0

    def test_residual_shrinks_with_step(self, sol_mu1_A20, params_mu1_A20):
        coarse = norm_identity_check(params_mu1_A20, sol_mu1_A20.se, h_scale=3e-2)
        fine = norm_identity_check(params_mu1_A20, sol_mu1_A20.se, h_scale=3e-3)
        assert fine < coarse


class TestDecayRate:
    def test_survivor_decay_matches_eigenvalue(self, params_mu1_A20):
        # log-survivor regression over three horizons recovers the
        # eigenvalue; moderate path count keeps this a unit test
        lam = dominant_eigenvalue(params_mu1_A20).lam
        horizons = (10.0, 14.0, 18.0)
        counts = [
            simulate_killed_sr(params_mu1_A20, r=5.0, dt=2e-3, T=t, n_paths=60000, seed=5).n_survivors
            for t in horizons
        ]
        slope = np.polyfit(horizons, np.log(counts), 1)[0]
        assert abs(slope - lam) / abs(lam) < 0.1
