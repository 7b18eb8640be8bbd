"""What the ``validate`` checks catch: mutation analysis (DeMillo, Lipton
and Sayward, IEEE Computer 11(4), 1978).

Each mutation perturbs one result of the package by a relative ``eps``,
runs the ``exact``, ``identities`` and ``sl`` suites of
:data:`qsd_sr.checks.SUITES` in process, and asserts which named checks fail.
The ``mc`` suite is left out for its cost.
"""

import pytest

from qsd_sr import checks, eigensolver, qsd, specfun
from qsd_sr.eigensolver import _index_b

GROUPS = ("exact", "identities", "sl")
# the eps at which every check passes under each mutation, and the decades
# above it, at each of which every mutation is run
SMALLEST_EPS = 1e-15
DECADES = (1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)

FLUX = [f"boundary_flux_mu{mu}_A{a:g}" for mu in (0.5, 1.0, 1.5) for a in (5.0, 20.0, 100.0)]
# every golden eigenvalue, held to 2 eps c/8, and the eps it failed at
GOLDEN = {f"eigenvalue_A{a}": eps for a, eps in (
    (20, 1e-14), (30, 1e-14), (40, 1e-14), (50, 1e-14), (100, 1e-14),
    (500, 1e-13), (1000, 1e-13), (10000, 1e-12))}

# mutation -> {check: the smallest of DECADES at which it failed when
# measured}; every check not named passed at 1e-8, and every check passed at
# SMALLEST_EPS, where eigenvalue_A100 reads 0.77 of its tolerance under lam.
# Formed from the mutated lam, b moves the pdf's index, and the law stays
# nearly self-consistent: boundary_flux_mu0.5_A5 reads 0.97 of its
# tolerance at 1e-11.  Kept, b leaves the law exact and only lam wrong.  G
# moves the order-2 and order-3 golden rows, held to 2 eps, by a share of
# eps that falls as A grows (lambda_order3_A10000 passes at 1e-8), and
# reaches the index-derivative closed forms for k = 2 and 3 and the tail
# form of G.
CAUGHT = {
    "lam, b from it": {
        **GOLDEN,
        **dict.fromkeys(FLUX, 1e-11),
        "boundary_flux_mu0.5_A5": 1e-10,
        "norm_identity_relative": 1e-10,
    },
    "lam, b kept": {**GOLDEN, **dict.fromkeys(FLUX, 1e-11)},
    "G": {
        **{f"lambda_order2_A{a}": eps for a, eps in (
            (20, 1e-14), (30, 1e-13), (40, 1e-13), (50, 1e-13), (100, 1e-12),
            (500, 1e-11), (1000, 1e-11), (10000, 1e-9))},
        **{f"lambda_order3_A{a}": eps for a, eps in (
            (20, 1e-13), (30, 1e-11), (40, 1e-10), (50, 1e-11), (100, 1e-11),
            (500, 1e-9), (1000, 1e-8))},
        **{f"index_derivative_k{k}_x{x}": 1e-12 for k in (2, 3) for x in ("0.5", "2", "10")},
        "meijer_g_tail_form_x2": 1e-10,
    },
}


def mutate_lam(monkeypatch, eps, b_from_lam):
    """lam x (1 + eps) at the solver's output, for the law and the checks."""
    solve = eigensolver.dominant_eigenvalue

    def mutated(params):
        se = solve(params)
        lam = se.lam * (1.0 + eps)
        return se._replace(lam=lam, b=_index_b(lam, params.mu2) if b_from_lam else se.b)

    for module in (qsd, checks):
        monkeypatch.setattr(module, "dominant_eigenvalue", mutated)


def mutate_g(monkeypatch, eps):
    """G x (1 + eps) where it is read: specfun, for L and the expansion's
    coefficients, and checks, for the tail form of G."""
    g = specfun.meijer_g_special

    def mutated(x):
        return g(x) * (1.0 + eps)

    for module in (specfun, checks):
        monkeypatch.setattr(module, "meijer_g_special", mutated)


MUTATIONS = {
    "lam, b from it": lambda mp, eps: mutate_lam(mp, eps, True),
    "lam, b kept": lambda mp, eps: mutate_lam(mp, eps, False),
    "G": mutate_g,
}


def failed_checks():
    return {c["name"] for g in GROUPS for c in checks.SUITES[g]() if c["status"] == "fail"}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_every_check_passes_at_the_smallest_eps(monkeypatch, mutation):
    MUTATIONS[mutation](monkeypatch, SMALLEST_EPS)
    assert failed_checks() == set()


@pytest.mark.parametrize("mutation,eps", [(m, eps) for m in sorted(MUTATIONS) for eps in DECADES])
def test_each_check_fails_at_its_eps(monkeypatch, mutation, eps):
    MUTATIONS[mutation](monkeypatch, eps)
    expected = {name for name, at in CAUGHT[mutation].items() if at <= eps}
    assert expected <= failed_checks()
