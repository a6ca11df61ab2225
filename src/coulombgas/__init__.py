"""Log-partition functions of planar Coulomb gases with radial potentials.

Three independent evaluation routes are provided: exact monomial-norm
quadrature, five-term free-energy expansions built from equilibrium-measure
functionals, and closed-form special-function oracles for the power-log and
hard-wall families.  The test suite checks the routes against each other.
"""

__version__ = "0.1.0"

from .droplet import Droplet, dr_dtau, droplet_of, solve_r_tau
from .equilibrium import (
    EquilibriumReport,
    ZWCoefficients,
    b1,
    b1_integral,
    energy,
    entropy,
    equilibrium_report,
    f_annulus,
    f_disc,
    f_disc_chi_form,
    log_potential_origin,
    mu_mass,
    zw_coefficients,
)
from .errors import (
    CoulombGasError,
    DomainError,
    IntegrationError,
    InvalidPotentialError,
    SolverError,
    UnsupportedOrderError,
)
from .norms import (
    NormQuery,
    log_norm_exact,
    log_norm_laplace,
    log_norm_lowdeg,
)
from .oracles import ml_equilibrium, ml_log_z, tu_equilibrium, tu_log_z
from .partition import (
    ConvergenceRow,
    ConvergenceTable,
    ExpansionTerms,
    convergence_study,
    default_rel_tol,
    expansion_terms,
    lemma_sum,
    log_z_asymptotic,
    log_z_exact,
)
from .potential import (
    Custom,
    Ginibre,
    MittagLeffler,
    RadialPotential,
    TruncatedUnitary,
    dilate,
    v_tau,
)
from .quadrature import integrate
from .specialfn import (
    LOG_2PI,
    ZETA_PRIME_MINUS_ONE,
    ln_barnes_g,
    ln_factorial,
    ln_gamma,
)

__all__ = [
    "__version__",
    "CoulombGasError",
    "DomainError",
    "UnsupportedOrderError",
    "InvalidPotentialError",
    "SolverError",
    "IntegrationError",
    "RadialPotential",
    "Ginibre",
    "MittagLeffler",
    "TruncatedUnitary",
    "Custom",
    "dilate",
    "v_tau",
    "Droplet",
    "droplet_of",
    "solve_r_tau",
    "dr_dtau",
    "EquilibriumReport",
    "ZWCoefficients",
    "energy",
    "entropy",
    "log_potential_origin",
    "b1",
    "b1_integral",
    "f_annulus",
    "f_disc",
    "f_disc_chi_form",
    "zw_coefficients",
    "equilibrium_report",
    "mu_mass",
    "NormQuery",
    "log_norm_exact",
    "log_norm_laplace",
    "log_norm_lowdeg",
    "ExpansionTerms",
    "expansion_terms",
    "log_z_exact",
    "log_z_asymptotic",
    "lemma_sum",
    "convergence_study",
    "ConvergenceTable",
    "ConvergenceRow",
    "default_rel_tol",
    "ml_log_z",
    "tu_log_z",
    "ml_equilibrium",
    "tu_equilibrium",
    "integrate",
    "ln_gamma",
    "ln_factorial",
    "ln_barnes_g",
    "LOG_2PI",
    "ZETA_PRIME_MINUS_ONE",
]
