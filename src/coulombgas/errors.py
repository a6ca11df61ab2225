"""Exception types shared across the package.

The hierarchy separates caller mistakes (bad arguments, potentials that
violate the admissibility assumptions) from numerical failures (a root
solve or an adaptive quadrature that did not converge).  The command line
driver maps the two groups to distinct exit codes.
"""

import functools
import math
from dataclasses import astuple


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
    `raise _in_context(exc, ...) from exc`; a message that already starts
    with the context keeps it once."""
    msg = str(exc)
    return type(exc)(msg if msg.startswith(f"{context}: ") else f"{context}: {msg}")


def _finite(fn):
    """Have fn raise DomainError when its float64 result is not finite: a
    term overflows, or infinite terms cancel to nan.  fn returns a float or
    a dataclass, whose float fields are checked; a nested one (a report's
    droplet) is not, as its radii are inputs or powers, and a power raises
    OverflowError instead of returning inf."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
            values = (out,) if isinstance(out, float) else astuple(out)
            if all(math.isfinite(v) for v in values if isinstance(v, float)):
                return out
        except (OverflowError, ValueError):  # float64 range: overflow, log(0), inf - inf
            pass
        call = ", ".join([*map(repr, args), *(f"{k}={v!r}" for k, v in kwargs.items())])
        raise DomainError(f"{fn.__name__}({call}) is not finite in float64")

    return checked
