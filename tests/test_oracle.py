import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
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


def _child_stdout(script, **env):
    """Run ``script`` in a fresh interpreter that imports this checkout's
    package, with ``env`` added to the environment; return its stdout."""
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
        # positive by construction, with the Dirichlet node A reported as 0
        assert np.all(gs.q_hat[:-1] > 0.0) and gs.q_hat[-1] == 0.0

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

    def test_working_set(self):
        # through the inverse iteration only the factor (three vectors over
        # all levels, and a half-length buffer that holds every reduced
        # system) and two iterates are live: 5.5 vectors.  The matrix build
        # before it holds about four (the two diagonals, pf and M^-1/2 at most),
        # and the Rayleigh quotient after it five (the grid, the density,
        # phi M^-1/2, pf and the squared differences)
        tracemalloc.start()
        try:
            gs = sturm_liouville_eigen(ModelParams(1.0, 20.0), 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.75 * 8 * gs.grid.size

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core: OpenBLAS starts one thread")
    def test_blas_thread_count_gives_the_same_result(self):
        # no BLAS call: a summation order that follows OpenBLAS's thread
        # count moved the last bits of lambda_hat and q_hat
        cases = [(1.0, 20.0, 20000), (2.0, 5000.0, 200000)]
        script = (
            "import hashlib\n"
            "from qsd_sr import ModelParams, sturm_liouville_eigen\n"
            f"for mu, A, n in {cases!r}:\n"
            "    gs = sturm_liouville_eigen(ModelParams(mu, A), n)\n"
            "    print(gs.lambda_hat.hex(), hashlib.sha256(gs.q_hat.tobytes()).hexdigest())\n"
        )
        expected = []
        for mu, A, n in cases:
            gs = sturm_liouville_eigen(ModelParams(mu, A), n)
            expected += [gs.lambda_hat.hex(), hashlib.sha256(gs.q_hat.tobytes()).hexdigest()]
        assert _child_stdout(script, OPENBLAS_NUM_THREADS="1").split() == expected

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


def _cr_solve_allocating(factor, f):
    """Reference for oracle._cr_solve: the same products and differences,
    each level's vectors freshly allocated."""
    levels, pivot, _ = factor
    odds = []
    for r, l, _ in levels:
        f_odd, f = f[1::2], f[0::2].copy()
        f[: r.size] -= r * f_odd
        f[1:] -= l * f_odd[: l.size]
        odds.append(f_odd)
    x = f / pivot
    for (r, l, inv_d), f_odd in zip(reversed(levels), reversed(odds)):
        x_odd = f_odd * inv_d - r * x[: r.size]
        x_odd[: l.size] -= l * x[1:]
        full = np.empty(x.size + x_odd.size)
        full[0::2], full[1::2] = x, x_odd
        x = full
    return x


class TestGridEigenAgainstLapack:
    @pytest.mark.parametrize("mu, A, n_grid", _GRID_CASES)
    def test_matches_lapack(self, monkeypatch, mu, A, n_grid):
        # the eigenvector against LAPACK's on the same matrix, then the whole
        # solution against the one built on LAPACK's vector
        params, seen = ModelParams(mu, A), {}
        solve = oracle._lowest_eigenvector

        def recording(de):
            seen["de"] = tuple(de)  # the solve empties the list
            seen["v"] = solve(de)
            return seen["v"]

        monkeypatch.setattr(oracle, "_lowest_eigenvector", recording)
        gs = sturm_liouville_eigen(params, n_grid)
        assert np.max(np.abs(seen["v"] - _lapack_vector(*seen["de"]))) <= 1e-9
        monkeypatch.setattr(oracle, "_lowest_eigenvector", lambda de: _lapack_vector(*de))
        ref = sturm_liouville_eigen(params, n_grid)
        assert abs(gs.lambda_hat - ref.lambda_hat) <= 1e-12 * abs(ref.lambda_hat)
        assert np.max(np.abs(gs.q_hat - ref.q_hat)) <= 1e-9 * np.max(ref.q_hat)

    @pytest.mark.parametrize("mu, A, n_grid", sorted(_LAPACK_LAMBDA_HAT))
    def test_eigenvalue_matches_lapack_solver(self, mu, A, n_grid):
        ref = _LAPACK_LAMBDA_HAT[mu, A, n_grid]
        lam = sturm_liouville_eigen(ModelParams(mu, A), n_grid).lambda_hat
        assert abs(lam - ref) < 1e-9 * abs(ref)

    @pytest.mark.parametrize("n", sorted({*range(1, 65), 1000, 1001,
                                          *(2**k + j for k in range(7, 13) for j in (-1, 0, 1))}))
    def test_in_place_solve_matches_allocating_reference(self, n):
        # the solve works in strided views of the factor's buffer, whose
        # sizes take every parity over these n, and in the output vector:
        # bit for bit the reference's result, twice in a row, and f untouched
        rng = np.random.default_rng(n)
        d, e = 2.5 + rng.random(n), -rng.random(n - 1)
        factor = oracle._cr_factor([d, e])
        f, out = rng.random(n), np.empty(n)
        f0, ref = f.copy(), _cr_solve_allocating(factor, f)
        for _ in range(2):
            assert oracle._cr_solve(factor, f, out) is out
            assert np.array_equal(out, ref) and np.array_equal(f, f0)

    def test_in_place_solve_allocates_no_array(self):
        # the levels are views of the factor's buffer and the output vector:
        # the peak is a few hundred bytes per level of view objects
        n = 200_000
        rng = np.random.default_rng(0)
        factor = oracle._cr_factor([2.5 + rng.random(n), -rng.random(n - 1)])
        f, out = rng.random(n), np.empty(n)
        tracemalloc.start()
        try:
            oracle._cr_solve(factor, f, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

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
        # 37 paths on the stream of seed 3, all 9000 steps in one noise block
        # (MC_BLOCK // 37 = 28339 steps); any change to the draw layout or
        # the step law changes this digest and must be deliberate
        law = simulate_killed_sr(ModelParams(mu=1.0, A=100.0), r=5.0, dt=1e-2, T=90.0,
                                 n_paths=37, seed=3)
        assert law.n_survivors == 12
        assert (hashlib.sha256(law.samples.tobytes()).hexdigest()
                == "dade9cf27ab373deaea6c3d94420b3c157162b15a1da76d7070ba618a6c9ea04")

    def test_step_law(self):
        # one step of 10**6 paths from R = 1 with dt = 0 that nobody leaves
        # returns the factors themselves: the two values fl(1 +- c), each
        # taken with probability 1/2
        c, n = np.float32(0.1), 10**6
        F = oracle._advance(np.random.default_rng(7), np.ones(n, np.float32), c, np.float32(0),
                            np.float32(np.inf), 1)
        up, down = np.float32(1) + c, np.float32(1) - c
        assert F.size == n and set(np.unique(F).tolist()) == {float(up), float(down)}
        assert abs(np.count_nonzero(F == up) / n - 0.5) < 5 * 0.5 / math.sqrt(n)

    def test_paths_stay_positive(self):
        # |mu| sqrt(dt) = 0.4: the down factor 0.6 keeps every path positive;
        # at 1.5 it would be negative, so that step size is refused
        law = simulate_killed_sr(ModelParams(mu=4.0, A=20.0), r=5.0, dt=1e-2, T=1.0,
                                 n_paths=2000, seed=1)
        assert law.n_survivors > 0 and law.samples[0] > 0.0
        with pytest.raises(DomainError, match="sqrt"):
            simulate_killed_sr(ModelParams(mu=15.0, A=20.0), r=5.0, dt=1e-2, T=1.0,
                               n_paths=2000, seed=1)

    @pytest.mark.parametrize("n_paths", [7, 100], ids=["steps-per-block", "paths-over-block"])
    def test_block_layout(self, monkeypatch, n_paths):
        # a block of k = MC_BLOCK // alive steps (at least one) draws its
        # bits in one rng.bytes((k alive + 7) // 8) call; a step-by-step
        # reference on the same bits keeps the same survivors
        class RecordedBits:
            def __init__(self, seed):
                self.rng, self.draws = np.random.default_rng(seed), []

            def bytes(self, n):
                self.draws.append(self.rng.bytes(n))
                return self.draws[-1]

        block, n_steps = 64, 400
        monkeypatch.setattr(oracle, "MC_BLOCK", block)
        c, dt32, A32, r = np.float32(0.1), np.float32(1e-2), np.float32(8.0), np.float32(5.0)
        rng = RecordedBits(1)
        got = oracle._advance(rng, np.full(n_paths, r), c, dt32, A32, n_steps)

        R, left = np.full(n_paths, r), n_steps
        for draw in rng.draws:
            k = max(1, min(left, block // R.size))
            assert len(draw) == (k * R.size + 7) // 8
            bits = np.unpackbits(np.frombuffer(draw, np.uint8), count=k * R.size)
            alive = np.arange(R.size)  # the block's columns still alive
            for row in bits.reshape(k, R.size):
                R = R * np.where(row[alive] == 1, np.float32(1) + c, np.float32(1) - c) + dt32
                alive, R = alive[R < A32], R[R < A32]
            left -= k
        assert left == 0 and len(rng.draws) > 1
        if n_paths > block:
            assert len(rng.draws[0]) == (n_paths + 7) // 8  # one step
        assert 0 < got.size < n_paths and np.array_equal(got, R)

    def test_simd_dispatch_gives_the_same_samples(self, params_mu1_A20):
        # numpy picks a SIMD kernel at run time; with every dispatch target
        # above its baseline disabled the samples must not change
        umath = pytest.importorskip("numpy._core._multiarray_umath")
        targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
        if not targets:
            pytest.skip("this CPU supports no dispatch target above numpy's baseline")
        script = (
            "import hashlib\n"
            "from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__\n"
            "from qsd_sr import ModelParams, simulate_killed_sr\n"
            "assert not any(__cpu_features__.get(t) for t in __cpu_dispatch__)\n"
            "law = simulate_killed_sr(ModelParams(1.0, 20.0), r=5.0, dt=1e-2, T=5.0,\n"
            "                         n_paths=40000, seed=9)\n"
            "print(hashlib.sha256(law.samples.tobytes()).hexdigest())\n"
        )
        stdout = _child_stdout(script, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
        law = simulate_killed_sr(params_mu1_A20, r=5.0, dt=1e-2, T=5.0, n_paths=40000, seed=9)
        assert stdout.split() == [hashlib.sha256(law.samples.tobytes()).hexdigest()]

    def test_touching_threshold_inside_a_block_kills(self):
        class FixedBits:
            def __init__(self, bits):
                self.bits = bits

            def bytes(self, n):
                # one call for the whole run: every step lies in one block
                assert n == (self.bits.size + 7) // 8
                return np.packbits(self.bits).tobytes()

        mu, A, r, dt, n_paths, n_steps = 1.0, 20.0, 5.0, 1e-2, 8, 50
        bits = np.random.default_rng(0).integers(0, 2, (n_steps, n_paths), dtype=np.uint8)
        bits[:16, 0], bits[16:, 0] = 1, 0  # path 0 climbs above A, then falls back below
        c, dt32, A32 = np.float32(mu * math.sqrt(dt)), np.float32(dt), np.float32(A)
        got = oracle._advance(FixedBits(bits), np.full(n_paths, np.float32(r)), c, dt32, A32,
                              n_steps)

        factors = np.where(bits == 1, np.float32(1) + c, np.float32(1) - c)
        free = np.full(n_paths, np.float32(r))  # the same paths without the kill
        R, alive = free.copy(), np.arange(n_paths)
        peak = free.copy()
        for row in factors:
            free = free * row + dt32
            peak = np.maximum(peak, free)
            R = R * row[alive] + dt32
            alive, R = alive[R < A32], R[R < A32]
        assert peak[0] >= A32 and free[0] < A32
        assert 0 not in alive
        assert got.size == alive.size and np.array_equal(got, R)

    def test_working_set(self, params_mu1_A20):
        # mc-oracle's batch (10k paths, T = 18): a block's float32 factors
        # and unpacked bits take 5 bytes per path-step, plus a quarter for
        # the packed draw and rng's copy of it; the previous block's bits
        # are freed before the next block's are drawn.  The bound is fixed
        # at MC_BLOCK = 2**20, so a grown block fails here before it
        # overtakes the grid oracle as mc-oracle's peak
        import numpy.random  # noqa: F401  (numpy loads it lazily: import it outside the trace)

        tracemalloc.start()
        try:
            simulate_killed_sr(params_mu1_A20, r=5.0, dt=1e-3, T=18.0, n_paths=10_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.25 * 2**20 + 16 * 10_000

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
