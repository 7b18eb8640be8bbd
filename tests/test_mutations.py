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
# mutation -> the eps at which every check passes under it
SMALLEST_EPS = {"lam, b from it": 1e-12, "lam, b kept": 1e-12, "G": 1e-13}

FLUX = [f"boundary_flux_mu{mu}_A{a:g}" for mu in (0.5, 1.0, 1.5) for a in (5.0, 20.0, 100.0)]
GOLDEN = [f"eigenvalue_A{a}" for a in (20, 30, 40, 50, 100)]

# mutation -> {check: the smallest eps, by decades from its SMALLEST_EPS up
# to 1e-8, at which it failed when measured}; every check not named passed
# at 1e-8.  Formed from the mutated lam, b moves the pdf's index, and the
# law stays nearly self-consistent: boundary_flux_mu0.5_A5 reads 0.97 of
# its tolerance at 1e-11.  Kept, b leaves the law exact and only lam wrong.
# G reaches the index-derivative closed forms for k = 2 and 3 (0.33 of
# their tolerance at 1e-13) and the tail form of G; the order-2 and
# order-3 golden eigenvalues, held to 1e-9 absolute, pass at 1e-8.
CAUGHT = {
    "lam, b from it": {
        **dict.fromkeys(FLUX, 1e-11),
        "boundary_flux_mu0.5_A5": 1e-10,
        "norm_identity_relative": 1e-10,
        **dict.fromkeys(GOLDEN, 1e-8),
    },
    "lam, b kept": {**dict.fromkeys(FLUX, 1e-11), **dict.fromkeys(GOLDEN, 1e-8)},
    "G": {
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
    MUTATIONS[mutation](monkeypatch, SMALLEST_EPS[mutation])
    assert failed_checks() == set()


@pytest.mark.parametrize("mutation,eps", sorted(
    {(m, eps) for m, caught in CAUGHT.items() for eps in caught.values()}))
def test_each_check_fails_at_its_eps(monkeypatch, mutation, eps):
    MUTATIONS[mutation](monkeypatch, eps)
    expected = {name for name, at in CAUGHT[mutation].items() if at <= eps}
    assert expected <= failed_checks()
