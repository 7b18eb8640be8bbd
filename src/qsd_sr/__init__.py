"""Quasi-stationary distribution of the Generalized Shiryaev-Roberts
diffusion dR = dt + mu R dB killed at a threshold A.

Exact dominant eigenvalue, density, distribution function, moments and mode,
together with order-1/2/3 large-threshold approximations and independent
numerical oracles (discretized eigenproblem, Monte Carlo, quadrature
identities).
"""

# each module's __all__ is the one list of its public names
from . import asymptotics, checks, eigensolver, errors, qsd, specfun
from .asymptotics import *
from .checks import *
from .eigensolver import *
from .errors import *
from .qsd import *
from .specfun import *

# The names of qsd_sr.oracle.  They load on first access (PEP 562), so
# importing the package does not pull numpy in.
_ORACLE_NAMES = ("GridSolution", "EmpiricalLaw", "sturm_liouville_eigen", "simulate_killed_sr")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *specfun.__all__,
    *eigensolver.__all__,
    *qsd.__all__,
    *asymptotics.__all__,
    *checks.__all__,
    *_ORACLE_NAMES,
]
