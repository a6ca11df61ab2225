"""Exception types shared across the package.

The hierarchy separates caller mistakes (bad arguments, potentials that
violate the admissibility assumptions) from numerical failures (a root
solve or an adaptive quadrature that did not converge).  The command line
driver maps the two groups to distinct exit codes.
"""


class CoulombGasError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CoulombGasError):
    """An argument lies outside the mathematical domain of the operation."""


class UnsupportedOrderError(DomainError):
    """A derivative order outside the implemented range was requested."""


class InvalidPotentialError(CoulombGasError):
    """The potential fails an admissibility requirement.

    Typical causes: the radial Laplacian is not strictly positive near the
    droplet, r q'(r) never reaches the requested level, or the equilibrium
    measure does not integrate to one.
    """


class SolverError(CoulombGasError):
    """A scalar root solve failed to converge."""


class IntegrationError(CoulombGasError):
    """An adaptive quadrature failed to reach the requested accuracy."""


def _in_context(exc, context):
    """A new exception of exc's class with context before its message, for
    `raise _in_context(exc, ...) from exc`."""
    return type(exc)(f"{context}: {exc}")
