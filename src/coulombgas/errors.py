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
    droplet, or not finite and positive where a route reads it at a point
    (a saddle, a droplet edge, or the origin of a disc without ΔQ(0)),
    r q'(r) never reaches the requested level, or the equilibrium measure
    does not integrate to one.
    """


class SolverError(CoulombGasError):
    """A scalar root solve failed to converge."""


class IntegrationError(CoulombGasError):
    """An adaptive quadrature failed to reach the requested accuracy."""


def _in_context(exc, name, *details):
    """A new exception of exc's class whose message starts with the context
    "name, detail, ...", for `raise _in_context(exc, ...) from exc`; a
    message that already starts with the name drops it, so it appears once."""
    msg = str(exc).removeprefix(f"{name}: ")
    return type(exc)(f"{', '.join((name, *details))}: {msg}")


def _named(details=None):
    """Decorator for a public entry point fn(p, ...) that re-raises a package
    error as its class with p.name, and details(*args, **kwargs) of the
    arguments after p, in front of the message: the one error context of
    the package.  details runs only on failure.  A message that already
    starts with "p.name, " carries an inner entry point's fuller context
    and passes unchanged; one that starts with "p.name: " drops it."""

    def wrap(fn):
        @functools.wraps(fn)
        def named(p, *args, **kwargs):
            try:
                return fn(p, *args, **kwargs)
            except CoulombGasError as exc:
                if str(exc).startswith(f"{p.name}, "):
                    raise
                extra = details(*args, **kwargs) if details is not None else ()
                raise _in_context(exc, p.name, *extra) from exc

        return named

    return wrap


def _finite(fn):
    """Have fn raise DomainError when its float64 result is not finite: a
    term overflows, or infinite terms cancel to nan.  fn returns a float or
    a dataclass, whose float fields are checked; a nested one (a report's
    droplet) is not.  Its radii are inputs or powers: a power that
    overflows raises OverflowError, but one can also underflow to 0.0 or
    round r0 and r1 to one float, so a function that builds its droplet
    from powers holds it to the disc rule itself (droplet._given)."""

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
