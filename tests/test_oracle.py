import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from oracles import ks_distance
from qsd_sr import checks, cli, oracle
from qsd_sr import (
    ConvergenceError,
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

    @pytest.mark.parametrize("n_grid", [200.7, 20000.0])
    def test_rejects_non_integer_grid(self, params_mu1_A20, n_grid):
        # a fractional n_grid ends the grid past A (x = 20.06 at 200.7)
        with pytest.raises(DomainError):
            sturm_liouville_eigen(params_mu1_A20, n_grid)


# (mu, A, n_grid): c = mu^2 A from C_MIN = 0.5 (slowest inverse iteration)
# to 2e4, and up to the mc-oracle grid size of 2e5 nodes
_GRID_CASES = [(1.0, 20.0, 2500), (1.0, 20.0, 20000), (1.0, 0.5, 20000), (0.5, 2.0, 20000),
               (1.0, 2000.0, 20000), (2.0, 5000.0, 200000)]

# lambda_hat of the LAPACK (scipy eigh_tridiagonal) solver this one replaced,
# whose Rayleigh quotient expanded K phi; at 2e5 nodes that cancellation
# left it 2.0e-8 off the discrete eigenvalue, so that case is pinned to
# LAPACK's eigenvector only (test_matches_lapack)
_LAPACK_LAMBDA_HAT = {
    (1.0, 20.0, 2500): -0.05885615099915639,
    (1.0, 20.0, 20000): -0.058856148669077464,
    (1.0, 0.5, 20000): -6.449376299189695,
    (0.5, 2.0, 20000): -1.6123440747974238,
    (1.0, 2000.0, 20000): -0.0005027032685048076,
}


def _lapack_vector(d, e):
    _, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    v = vecs[:, 0]
    return v if v.sum() > 0.0 else -v


class TestGridEigenAgainstLapack:
    @pytest.mark.parametrize("mu, A, n_grid", _GRID_CASES)
    def test_matches_lapack(self, monkeypatch, mu, A, n_grid):
        # the eigenvector against LAPACK's on the same matrix, then the whole
        # solution against the one built on LAPACK's vector
        params, seen = ModelParams(mu, A), {}
        solve = oracle._lowest_eigenvector

        def recording(d, e):
            seen["de"], seen["v"] = (d, e), solve(d, e)
            return seen["v"]

        monkeypatch.setattr(oracle, "_lowest_eigenvector", recording)
        gs = sturm_liouville_eigen(params, n_grid)
        assert np.max(np.abs(seen["v"] - _lapack_vector(*seen["de"]))) <= 1e-9
        monkeypatch.setattr(oracle, "_lowest_eigenvector", _lapack_vector)
        ref = sturm_liouville_eigen(params, n_grid)
        assert abs(gs.lambda_hat - ref.lambda_hat) <= 1e-12 * abs(ref.lambda_hat)
        assert np.max(np.abs(gs.q_hat - ref.q_hat)) <= 1e-9 * np.max(ref.q_hat)

    @pytest.mark.parametrize("mu, A, n_grid", sorted(_LAPACK_LAMBDA_HAT))
    def test_eigenvalue_matches_lapack_solver(self, mu, A, n_grid):
        ref = _LAPACK_LAMBDA_HAT[mu, A, n_grid]
        lam = sturm_liouville_eigen(ModelParams(mu, A), n_grid).lambda_hat
        assert abs(lam - ref) < 1e-9 * abs(ref)

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "SL_MAX_ITER", 3)
        with pytest.raises(ConvergenceError):
            sturm_liouville_eigen(ModelParams(1.0, 0.5), 2500)


class TestQuadrature:
    def test_matches_scipy_quad_on_validate_integrands(self, monkeypatch):
        calls = []
        quad_ = checks._quad

        def recording(f, a, b, epsabs, epsrel):
            calls.append((f, a, b, epsabs, epsrel))
            return quad_(f, a, b, epsabs, epsrel)

        monkeypatch.setattr(checks, "_quad", recording)
        assert cli.main(["validate", "--skip", "mc", "--out", os.devnull]) == 0
        assert calls
        for f, a, b, epsabs, epsrel in calls:
            value, err = quad_(f, a, b, epsabs, epsrel)
            ref, _ = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=300)
            tol = max(epsabs, epsrel * abs(ref))
            assert err <= tol and abs(value - ref) <= tol, (a, b, value, ref)

    def test_step_does_not_converge(self):
        # a jump leaves an O(h) error at every level
        with pytest.raises(ConvergenceError):
            checks._quad(lambda x: float(x < 1.0 / 3.0), 0.0, 1.0, 1e-12, 1e-10)

    def test_nonintegrable_end_raises(self):
        # the truncated rule would sum 1/x to a finite number
        with pytest.raises(ConvergenceError):
            checks._quad(lambda x: 1.0 / x, 0.0, 1.0, 1e-12, 1e-10)

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0), (-math.inf, 0.0), (math.nan, 1.0)])
    def test_bad_interval(self, a, b):
        with pytest.raises(DomainError):
            checks._quad(math.exp, a, b, 1e-12, 1e-10)


class TestSimulation:
    def test_seed_determinism(self, params_mu1_A20):
        a = simulate_killed_sr(params_mu1_A20, r=5.0, dt=1e-2, T=10.0, n_paths=4000, seed=42)
        b = simulate_killed_sr(params_mu1_A20, r=5.0, dt=1e-2, T=10.0, n_paths=4000, seed=42)
        assert np.array_equal(a.samples, b.samples)
        c = simulate_killed_sr(params_mu1_A20, r=5.0, dt=1e-2, T=10.0, n_paths=4000, seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_samples_inside_support(self, params_mu1_A20):
        law = simulate_killed_sr(params_mu1_A20, r=5.0, dt=1e-2, T=10.0, n_paths=4000, seed=1)
        assert np.all(law.samples >= 0.0)
        assert np.all(law.samples < 20.0)
        assert law.n_survivors <= law.n_paths_total

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
        {"T": math.inf}, {"n_paths": 2.5}, {"seed": -1}, {"n_paths": True}, {"seed": True},
    ], ids=["horizon-inf", "paths-fraction", "seed-negative", "paths-bool", "seed-bool"])
    def test_bad_arguments_are_domain_errors(self, params_mu1_A20, kwargs):
        args = dict(r=5.0, dt=1e-2, T=5.0, n_paths=10, seed=1) | kwargs
        with pytest.raises(DomainError):
            simulate_killed_sr(params_mu1_A20, **args)

    def test_layout_pinned(self):
        # two parts of 19 and 18 paths on the two substreams of seed 3, each
        # in two noise blocks (6898 and 7281 steps, then the rest); any
        # change to the draw layout changes this digest and must be deliberate
        law = simulate_killed_sr(ModelParams(mu=1.0, A=100.0), r=5.0, dt=1e-2, T=90.0,
                                 n_paths=37, seed=3)
        assert law.n_survivors == 16
        assert (hashlib.sha256(law.samples.tobytes()).hexdigest()
                == "77eaaa059c2ddf5f3231c5c965b6633286118b9148f519b3b4a95c769107e07a")

    @staticmethod
    def serial_reference(params, r, dt, T, n_paths, seed):
        """The two parts advanced one after another on this thread, each on
        its own substream and its own block."""
        c, dt32, A32 = np.float32(params.mu * math.sqrt(dt)), np.float32(dt), np.float32(params.A)
        n_steps = int(round(T / dt))
        parts = np.array_split(np.full(n_paths, np.float32(r)), 2)
        out = [
            oracle._advance(np.random.default_rng(seq), R, c, dt32, A32, n_steps,
                            np.empty(max(oracle.MC_BLOCK // 2, R.size), np.float32))
            for seq, R in zip(np.random.SeedSequence(seed).spawn(2), parts)
        ]
        return np.sort(np.concatenate(out).astype(np.float64))

    @pytest.mark.parametrize("n_paths, T", [(4001, 10.0), (300_001, 0.12), (1, 0.5)],
                             ids=["many-blocks", "part-over-block", "one-path"])
    def test_threads_match_serial_parts(self, params_mu1_A20, n_paths, T):
        # a generator or block shared between the threads would change the
        # draws; a part larger than its block takes one step per block
        args = (params_mu1_A20, 5.0, 1e-2, T, n_paths, 8)
        law = simulate_killed_sr(*args)
        assert law.n_survivors > 0
        assert np.array_equal(law.samples, self.serial_reference(*args))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
    def test_one_cpu_gives_the_same_samples(self, params_mu1_A20):
        script = (
            "import hashlib, os\n"
            "from qsd_sr import ModelParams, simulate_killed_sr\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "law = simulate_killed_sr(ModelParams(1.0, 20.0), r=5.0, dt=1e-2, T=5.0,\n"
            "                         n_paths=40000, seed=9)\n"
            "print(len(os.sched_getaffinity(0)), hashlib.sha256(law.samples.tobytes()).hexdigest())\n"
        )
        src = str(Path(oracle.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        law = simulate_killed_sr(params_mu1_A20, r=5.0, dt=1e-2, T=5.0, n_paths=40000, seed=9)
        assert proc.stdout.split() == ["1", hashlib.sha256(law.samples.tobytes()).hexdigest()]

    def test_touching_threshold_inside_a_block_kills(self):
        class FixedDraws:
            def __init__(self, xi):
                self.xi = xi

            def standard_normal(self, out, dtype):
                # one call for the whole run: every step lies in one block
                assert out.shape == self.xi.shape and dtype == np.float32
                out[...] = self.xi

        mu, A, r, dt, n_paths, n_steps = 1.0, 20.0, 5.0, 1e-2, 8, 50
        xi = np.random.default_rng(0).standard_normal((n_steps, n_paths), dtype=np.float32)
        xi[3, 0], xi[4, 0] = 40.0, -9.0  # path 0 jumps above A, then back below
        c, dt32, A32 = np.float32(mu * math.sqrt(dt)), np.float32(dt), np.float32(A)
        got = oracle._advance(FixedDraws(xi), np.full(n_paths, np.float32(r)), c, dt32, A32,
                              n_steps, np.empty(xi.size, np.float32))

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
        assert got.size == alive.size and np.array_equal(got, R)

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
        # the error names z, not the Whittaker argument z t it would reach
        for z in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(DomainError, match="z must be finite and positive"):
                integral_identity_check(0.2, z)


class TestNormIdentity:
    def test_relative_residual(self, sol_mu1_A20, params_mu1_A20):
        assert norm_identity_check(params_mu1_A20, sol_mu1_A20.se) < 5e-12

    @pytest.mark.parametrize("c", [0.5, 1.25, 20.0, 225.0, 1e4])
    def test_relative_residual_across_c(self, c):
        # b is imaginary at c = 0.5 and 1.25, real at 20 and above
        p = ModelParams(mu=1.0, A=c)
        assert norm_identity_check(p, dominant_eigenvalue(p)) < 5e-12

    def test_factors_positive_product(self, params_mu1_A20, sol_mu1_A20):
        # the squared norm is positive, so the derivative product must be too
        from qsd_sr import WhittakerIndex, whittaker_w
        from qsd_sr.eigensolver import _index_b

        se = sol_mu1_A20.se
        z_a = 0.1
        h = 1e-6 * abs(se.lam)
        d_lam = (
            whittaker_w(WhittakerIndex(1, _index_b(se.lam + h, 1.0)), z_a)
            - whittaker_w(WhittakerIndex(1, _index_b(se.lam - h, 1.0)), z_a)
        ) / (2.0 * h)
        hu = 1e-6 * z_a
        d_u = (
            whittaker_w(WhittakerIndex(1, se.b), z_a + hu)
            - whittaker_w(WhittakerIndex(1, se.b), z_a - hu)
        ) / (2.0 * hu)
        assert d_lam * d_u > 0.0


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
