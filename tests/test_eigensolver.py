import math
import sys

import pytest
from scipy.integrate import quad

from conftest import REFERENCE_TABLE
from qsd_sr import (
    BracketError,
    DomainError,
    ModelParams,
    ThresholdTooSmallError,
    WhittakerIndex,
    boundary_flux_identity,
    build_approx,
    build_solution,
    cdf,
    dominant_eigenvalue,
    eigen_bracket,
    lambda_order2,
    lambda_order3,
    mode,
    pdf,
    sturm_liouville_eigen,
    whittaker_w,
    whittaker_w_scaled,
)
from qsd_sr import eigensolver
from qsd_sr import qsd as qsd_module
from qsd_sr.specfun import C_MAX, C_MIN, _cosh_bts

PARAM_SWEEP = [(mu, A) for mu in (0.5, 1.0, 1.5) for A in (5.0, 20.0, 100.0)]


class TestBracket:
    def test_closed_form_mu1_A20(self):
        # sqrt(4*20+1) = 9 exactly
        br = eigen_bracket(ModelParams(mu=1.0, A=20.0))
        assert br.lo == pytest.approx(-1.0 / 20.0 - 10.0 / 800.0, rel=1e-15)
        assert br.hi == pytest.approx(-1.0 / 20.0 + 8.0 / 800.0, rel=1e-15)
        assert br.lo < br.hi < 0.0

    def test_contains_reference_eigenvalue(self):
        br = eigen_bracket(ModelParams(mu=1.0, A=20.0))
        assert br.lo <= -0.058856148622 <= br.hi

    def test_midpoint_tends_to_first_order(self):
        # midpoint = -1/A - 1/(2 mu^2 A^2): the -1/A term dominates as
        # A grows, consistent with lambda = -1/A + O(A^(-3/2))
        for A in (1e2, 1e4, 1e6):
            br = eigen_bracket(ModelParams(mu=1.0, A=A))
            mid = 0.5 * (br.lo + br.hi)
            assert abs(mid + 1.0 / A) <= 1.0 / A**1.5


class TestDominantEigenvalue:
    def test_reference_values(self):
        for A, refs in REFERENCE_TABLE.items():
            res = dominant_eigenvalue(ModelParams(mu=1.0, A=float(A)))
            assert abs(-res.lam - float(refs[0])) < 1e-10, A

    def test_reference_values_tight(self):
        # the printed references are 12-decimal truncations of the true
        # roots; the solver lands within the print resolution
        for A, refs in REFERENCE_TABLE.items():
            res = dominant_eigenvalue(ModelParams(mu=1.0, A=float(A)))
            assert abs(-res.lam - float(refs[0])) < 5e-13, A

    def test_residual_small(self):
        for mu, A in PARAM_SWEEP:
            res = dominant_eigenvalue(ModelParams(mu=mu, A=A))
            assert res.residual < 1e-9, (mu, A)

    def test_bracket_containment(self):
        for mu, A in PARAM_SWEEP:
            p = ModelParams(mu=mu, A=A)
            br = eigen_bracket(p)
            assert br.lo <= dominant_eigenvalue(p).lam <= br.hi, (mu, A)

    def test_drift_sign_invariance(self):
        for mu, A in PARAM_SWEEP:
            lam_pos = dominant_eigenvalue(ModelParams(mu=mu, A=A)).lam
            lam_neg = dominant_eigenvalue(ModelParams(mu=-mu, A=A)).lam
            assert lam_pos == lam_neg, (mu, A)

    def test_nonpositive(self):
        for mu, A in PARAM_SWEEP:
            assert dominant_eigenvalue(ModelParams(mu=mu, A=A)).lam <= 0.0


class TestScaling:
    @pytest.mark.parametrize("mu", [0.3, 0.7, 1.7, 2.2, 4.0, 13.0])
    @pytest.mark.parametrize("c", [0.9, 3.3, 20.0, 77.7, 1e3, 1e5])
    def test_exact_in_c(self, mu, c):
        # lam(mu, A) = mu^2 lam(1, mu^2 A) holds bit for bit when the solve
        # sees the same double c = mu^2 A, and so do the law's index b and
        # denominator D, formed from the solver's root s at c (lam / mu^2
        # need not round back to lam(1, c)); the order-2 and order-3
        # approximations are solved in c too, or raise at both
        p = ModelParams(mu=mu, A=c / mu**2)
        one = ModelParams(mu=1.0, A=p.mu2 * p.A)
        sol, ref = build_solution(p), build_solution(one)
        assert sol.se.lam == p.mu2 * ref.se.lam
        assert sol.se.iterations == ref.se.iterations
        assert sol.w1.b == ref.w1.b
        assert sol.denom == ref.denom
        for approx in (lambda_order2, lambda_order3):
            try:
                lam = approx(p)
            except ThresholdTooSmallError:
                with pytest.raises(ThresholdTooSmallError):
                    approx(one)
            else:
                assert lam == p.mu2 * approx(one)

    # lam(1, c) to 20 digits in 50-digit arithmetic (mpmath)
    LARGE_C = {
        1e4: -1.0013927797538558281e-4,
        5e4: -2.0006845100130897509e-5,
        1e5: -1.0001849315229074507e-5,
        3e5: -3.3335631738050732317e-6,
    }

    @pytest.mark.parametrize("mu", [0.5, 1.0, 1.7, 4.0])
    @pytest.mark.parametrize("c", sorted(LARGE_C))
    def test_large_c(self, mu, c):
        # rounding s = 1 + 8 lam/mu^2 to a double costs about eps c/8 of lam
        ref = self.LARGE_C[c]
        lam = dominant_eigenvalue(ModelParams(mu=mu, A=c / mu**2)).lam
        assert abs(lam / mu**2 - ref) <= 5e-17 * c * abs(ref)


class TestSingleScan:
    PARAMS = ModelParams(mu=1.0, A=20.0)

    def test_no_sign_change_raises_after_one_scan(self, monkeypatch):
        calls = []

        def no_root(s, terms):
            calls.append(s)
            return 1.0

        monkeypatch.setattr(eigensolver, "_eigen_equation", no_root)
        with pytest.raises(BracketError) as exc:
            dominant_eigenvalue(self.PARAMS)
        assert len(calls) == 65
        assert exc.value.changes == 0

    @pytest.mark.parametrize("mu,A", [(1.0, 20.0), (1.0, 3.0), (0.5, 2.0), (2.0, 1e4)])
    def test_iterations_count_every_evaluation(self, monkeypatch, mu, A):
        # the residual is |W| at the root as the polish evaluated it, so a
        # solve makes exactly `iterations` evaluations
        calls = []
        equation = eigensolver._eigen_equation
        p = ModelParams(mu=mu, A=A)

        def counted(s, terms):
            calls.append((s, equation(s, terms)))
            return calls[-1][1]

        monkeypatch.setattr(eigensolver, "_eigen_equation", counted)
        res = dominant_eigenvalue(p)
        assert len(calls) == res.iterations
        at_root = {abs(v) for s, v in calls if eigensolver._lam(s, p.mu2) == res.lam}
        assert res.residual in at_root

    def test_three_sign_changes_raise_bracket_error(self, monkeypatch):
        # the scan finds all three, so the solve stops after its 65
        # evaluations and polishes none of them
        br = eigen_bracket(self.PARAMS)
        roots = [br.lo + (br.hi - br.lo) * f for f in (0.87, 0.21, 0.53)]
        mu2 = self.PARAMS.mu2
        calls = []

        def three_roots(s, terms):
            calls.append(s)
            lam = mu2 * (s - 1.0) / 8.0
            return (lam - roots[0]) * (lam - roots[1]) * (lam - roots[2])

        monkeypatch.setattr(eigensolver, "_eigen_equation", three_roots)
        with pytest.raises(BracketError) as exc:
            dominant_eigenvalue(self.PARAMS)
        assert exc.value.changes == 3
        assert len(calls) == 65
        assert "3 sign changes" in str(exc.value)


class TestUniqueRoot:
    # The scan requires exactly one sign change in the bracket [lo, hi] of
    # s.  Over the whole domain the equation changes sign once on
    # [lo - w, hi] (w = hi - lo), a bracket twice as wide, and keeps its
    # sign from hi up to s = 1 (lam = 0), so the root in the bracket is the
    # only one above lo - w
    CS = [min(C_MIN * (C_MAX / C_MIN) ** (i / 199), C_MAX) for i in range(200)]

    @staticmethod
    def sign_changes(vs):
        return sum((a < 0.0) != (b < 0.0) for a, b in zip(vs, vs[1:]))

    def test_one_sign_change_and_none_above_the_bracket(self):
        for c in self.CS:
            lo, hi = eigensolver._s_bracket(c)
            w = hi - lo
            terms = eigensolver._eigen_terms(c)
            vs = [eigensolver._eigen_equation(lo - w + 2.0 * w * j / 256, terms) for j in range(257)]
            above = [eigensolver._eigen_equation(hi + (1.0 - hi) * j / 32, terms) for j in range(1, 33)]
            assert self.sign_changes(vs) == 1, c
            assert self.sign_changes(vs[-1:] + above) == 0, c


# stalling cases for regula falsi: a steep one-sided step keeps the far end
# fixed, and so does a cubic (s - r)^3 whose far end lies 1e4 root-gaps away
ROOT = 0.1
STALLING = {
    "step-up": (lambda x: -1.0 if x < ROOT else 1e300, 0.0, 1.0),
    "step-down": (lambda x: 1e300 if x < ROOT else -1.0, 0.0, 1.0),
    "cubic-far-right": (lambda x: (x - ROOT) ** 3, ROOT - 1e-3, 10.0),
    "cubic-far-left": (lambda x: (ROOT - x) ** 3, -10.0, ROOT + 1e-3),
}


class TestItp:
    N0 = 1  # the routine's n0

    @staticmethod
    def bisection_evals(f, a, b):
        fa, evals = f(a), 0
        while a < (m := 0.5 * (a + b)) < b:
            fm = f(m)
            evals += 1
            if fm == 0.0:
                break
            if (fa < 0.0) != (fm < 0.0):
                b = m
            else:
                a, fa = m, fm
        return evals

    @pytest.mark.parametrize("case", sorted(STALLING))
    def test_worst_case_within_bisection_plus_n0(self, case):
        # after j steps the bracket is no wider than bisection's after
        # j - n0; the end game starts from a width that need not be a power
        # of two in ulps, which can cost one halving more than bisection
        f, a, b = STALLING[case]
        budget = self.bisection_evals(f, a, b) + self.N0 + 1
        calls = []

        def counted(x):
            calls.append(x)
            if len(calls) > budget:  # a stalling routine fails here
                raise AssertionError(f"{case}: more than {budget} evaluations")
            return f(x)

        root, residual, evals = eigensolver._itp(counted, a, b, f(a), f(b))
        assert evals == len(calls) <= budget
        # the sign change lies between the double below ROOT and ROOT
        assert math.nextafter(ROOT, -math.inf) <= root <= ROOT
        assert residual == abs(f(root))


class TestEvaluationBudget:
    # the maxima at these 41 c: 80 evaluations per solve (65 of them the
    # scan) and 19 of W_2 per mode, ends included; bisection took 71-113 and
    # 55-85 here.  ROADMAP's targets once the scan is deleted: 32 and 16
    SOLVE_BUDGET = 80
    MODE_BUDGET = 19
    CS = [C_MIN * (C_MAX / C_MIN) ** (i / 40) for i in range(41)]

    def test_solve(self):
        worst = max((dominant_eigenvalue(ModelParams(mu=1.0, A=c)).iterations, c) for c in self.CS)
        assert worst[0] <= self.SOLVE_BUDGET, worst

    def test_mode(self, monkeypatch):
        calls = []

        def counted(idx, z):
            calls.append(z)
            return whittaker_w_scaled(idx, z)

        monkeypatch.setattr(qsd_module, "whittaker_w_scaled", counted)
        worst = (0, None)
        for c in self.CS:
            sol = build_solution(ModelParams(mu=1.0, A=c))
            calls.clear()
            mode(sol)
            worst = max(worst, (len(calls), c))
        assert worst[0] <= self.MODE_BUDGET, worst


class TestPinnedRoots:
    # lam(1, c) as bisection found it before ITP replaced it, at the golden
    # rows and at C_MAX.  Rounding noise gives the equation several sign
    # changes within a few ulps of s, so ITP may land on another of them,
    # but within 2 eps c/8 of the pinned root
    PINNED = {
        20.0: "-0x1.e2264a2ffa670p-5",
        30.0: "-0x1.358c1b1d7efc0p-5",
        40.0: "-0x1.c648d3e4e52d0p-6",
        50.0: "-0x1.662e334785150p-6",
        100.0: "-0x1.5a21c19138048p-7",
        500.0: "-0x1.0a7a640435ec0p-9",
        1000.0: "-0x1.08a38d6e51200p-10",
        10000.0: "-0x1.a403bb21fc400p-14",
        C_MAX: "-0x1.12e0c04000000p-30",
    }

    def test_covers_golden_rows(self):
        assert set(self.PINNED) == {float(A) for A in REFERENCE_TABLE} | {C_MAX}

    @pytest.mark.parametrize("c", sorted(PINNED))
    def test_within_two_eps_c_over_8(self, c):
        ref = float.fromhex(self.PINNED[c])
        lam = dominant_eigenvalue(ModelParams(mu=1.0, A=c)).lam
        assert abs(lam - ref) <= 2.0 * sys.float_info.epsilon * c / 8.0 * abs(ref)


class TestSharedTerms:
    @pytest.mark.parametrize("mu,A", [(1.0, 20.0), (1.0, 3.0), (0.5, 2.0), (2.0, 1e4)])
    def test_equation_is_w1_at_z_a(self, mu, A):
        # the terms shared by the scan and the polish give W_{1,b}(z_A), to
        # rounding in the sum of |terms| (the sum cancels near a root)
        p = ModelParams(mu=mu, A=A)
        br = eigen_bracket(p)
        ts, ws = terms = eigensolver._eigen_terms(p.mu2 * A)
        for f in (0.0, 0.3, 0.7, 1.0):
            lam = br.lo + (br.hi - br.lo) * f
            idx = WhittakerIndex(1, eigensolver._index_b(lam, p.mu2))
            magnitude = sum(abs(w * x) for w, x in zip(ws, _cosh_bts(idx.b, ts)))
            ref = whittaker_w(idx, 2.0 / (p.mu2 * A))
            got = eigensolver._eigen_equation(1.0 + 8.0 * lam / p.mu2, terms)
            assert abs(got - ref) <= 1e-14 * magnitude, (lam, f)


class TestCheckedDomain:
    @pytest.mark.parametrize("mu", [1.0, 2.0])
    @pytest.mark.parametrize("c", [0.01, 0.12, 0.3, 0.49])
    def test_below_c_min_raises(self, mu, c):
        p = ModelParams(mu=mu, A=c / mu**2)
        with pytest.raises(DomainError):
            dominant_eigenvalue(p)
        with pytest.raises(DomainError):
            build_solution(p)
        for order in (1, 2, 3):
            with pytest.raises(DomainError):
                build_approx(p, order)

    @pytest.mark.parametrize("mu", [1.0, 2.0])
    @pytest.mark.parametrize("c", [1.000001e9, 1e10, 1e12])
    def test_above_c_max_raises(self, mu, c):
        # at c = 1e10 rounding noise gave three sign changes, at 1e12 none
        p = ModelParams(mu=mu, A=c / mu**2)
        with pytest.raises(DomainError):
            dominant_eigenvalue(p)
        with pytest.raises(DomainError):
            build_solution(p)
        for order in (1, 2, 3):
            with pytest.raises(DomainError):
                build_approx(p, order)

    @pytest.mark.parametrize("A, side, bound", [(math.nextafter(C_MIN, 0.0), "below", C_MIN),
                                                (C_MAX * (1 + 2**-52), "above", C_MAX)])
    def test_message_tells_c_from_the_bound(self, A, side, bound):
        # one ulp outside the domain: c to six digits printed as the bound
        with pytest.raises(DomainError, match=f"lies {side} the checked domain") as exc:
            dominant_eigenvalue(ModelParams(mu=1.0, A=A))
        printed = str(exc.value).split(" = ")[1].split(" lies")[0]
        assert float(printed) == A != bound

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_law_at_c_min(self, mu):
        p = ModelParams(mu=mu, A=C_MIN / mu**2)
        sol = build_solution(p)
        total, _ = quad(lambda x: pdf(x, sol), 0.0, p.A, epsabs=1e-11, epsrel=1e-10, limit=300)
        assert abs(total - 1.0) <= 1e-8
        lam_grid = sturm_liouville_eigen(p, 20000).lambda_hat
        assert abs(lam_grid - sol.se.lam) <= 1e-6 * abs(sol.se.lam)
        assert cdf(p.A, sol) == 1.0
        m = mode(sol)
        assert 0.0 < m < p.A
        assert pdf(m, sol) > max(pdf(0.99 * m, sol), pdf(1.01 * m, sol))

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_law_at_c_max(self, mu):
        # the kernel's smallest argument, 2/C_MAX, is z at x = A
        p = ModelParams(mu=mu, A=C_MAX / mu**2)
        assert p.mu2 * p.A == C_MAX
        sol = build_solution(p)
        xs = [p.A * i / 999 for i in range(1000)]  # the CLI's default grid
        q = [pdf(x, sol) for x in xs]
        Q = [cdf(x, sol) for x in xs]
        assert q[0] == q[-1] == 0.0 and all(0.0 <= v < math.inf for v in q)
        assert Q[0] == 0.0 and Q[-1] == cdf(p.A, sol) == 1.0
        assert all(0.0 <= a <= b <= 1.0 for a, b in zip(Q, Q[1:]))
        m = mode(sol)
        assert 0.0 < m < p.A and pdf(m, sol) >= max(q)
        # the flux matches lam to 3e-12 at moderate c; here lam itself
        # carries the solver's eps c/8 relative error (its root
        # s = 1 + 8 lam/mu^2 is a double near 1), and the flux is 2.3e-8 off
        lam = sol.se.lam
        bound = 2.0 * sys.float_info.epsilon * C_MAX / 8.0
        assert abs(boundary_flux_identity(sol) - lam) <= bound * abs(lam)


class TestEigenfunction:
    # phi(x, lam) = exp(z/2) z^-1 W_{1,b}(z), z = 2/(mu^2 x), constant fixed to 1

    @staticmethod
    def phi(x, b, params):
        return whittaker_w_scaled(WhittakerIndex(1, b), 2.0 / (params.mu2 * x))

    def test_dirichlet_at_threshold(self, sol_mu1_A20, params_mu1_A20):
        phi_a = self.phi(20.0, sol_mu1_A20.se.b, params_mu1_A20)
        grid_max = max(
            self.phi(x, sol_mu1_A20.se.b, params_mu1_A20)
            for x in [20.0 * k / 64 for k in range(1, 64)]
        )
        assert abs(phi_a) < 1e-9 * grid_max

    def test_positive_inside(self, sol_mu1_A20, params_mu1_A20):
        for k in range(1, 400):
            x = 20.0 * k / 400.0
            assert self.phi(x, sol_mu1_A20.se.b, params_mu1_A20) > 0.0, x

    def test_constant_at_lambda_zero(self, params_mu1_A20):
        b0 = eigensolver._index_b(0.0, 1.0)
        vals = [
            self.phi(x, b0, params_mu1_A20) for x in (1e-4, 0.1, 1.0, 10.0, 20.0)
        ]
        for v in vals:
            assert v == pytest.approx(1.0, rel=1e-10)


class TestMonotonicity:
    def test_limit_to_zero(self):
        lams = [
            dominant_eigenvalue(ModelParams(mu=1.0, A=float(A))).lam
            for A in sorted(REFERENCE_TABLE)
        ]
        assert all(l2 > l1 for l1, l2 in zip(lams, lams[1:]))
        assert abs(lams[-1]) < 2e-4  # approaching zero from below
