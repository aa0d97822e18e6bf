"""Desk-scale numerical laboratory for large-deviation rate functions.

Subpackages cover, bottom up:

* measures          -- discrete and grid measures, empirical map, and the
                       relative entropy and log-MGF of mass arrays
* legendre          -- grid Legendre conjugates and the entropy/log-MGF duality
* transport         -- assignments, Kantorovich plans, Wasserstein distances
* torus_theta       -- lattice points and Gaussian-sum kernels on the torus
* hamiltonian_gibbs -- permanents, particle Hamiltonians, Gibbs ensembles
* monge_ampere      -- the transport operator, master equation, rate function
* cli               -- reproducible experiment runner
"""

__version__ = "0.1.0"

from . import measures
from . import legendre
from . import transport
from . import torus_theta
from . import hamiltonian_gibbs
from . import monge_ampere

__all__ = [
    "measures",
    "legendre",
    "transport",
    "torus_theta",
    "hamiltonian_gibbs",
    "monge_ampere",
    "__version__",
]
