"""Exception types shared across the package.

The hierarchy separates caller mistakes (bad arguments, potentials that
violate the admissibility assumptions) from numerical failures (a root
solve or an adaptive quadrature that did not converge).  The command line
driver maps the two groups to distinct exit codes.
"""

import functools
import math
from dataclasses import astuple, is_dataclass


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
                msg = str(exc).removeprefix(f"{p.name}: ")
                raise type(exc)(f"{', '.join((p.name, *extra))}: {msg}") from exc

        return named

    return wrap


def _finite(fn):
    """Have fn raise DomainError when its float64 result is not finite: a
    term overflows, or infinite terms cancel to nan.  fn returns a float or
    a dataclass, whose float fields are checked; a nested one (a report's
    droplet) is not.  Its radii are inputs or powers: a power that
    overflows raises OverflowError, but one can also underflow to 0.0 or
    round r0 and r1 to one float, so a function that builds its droplet
    from powers holds it to the disc rule itself (droplet._given).  The
    message names the call with _short_repr of each argument."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
            values = (out,) if isinstance(out, float) else astuple(out)
            if all(math.isfinite(v) for v in values if isinstance(v, float)):
                return out
        except (OverflowError, ValueError):  # float64 range: overflow, log(0), inf - inf
            pass
        call = ", ".join([*map(_short_repr, args),
                          *(f"{k}={_short_repr(v)}" for k, v in kwargs.items())])
        raise DomainError(f"{fn.__name__}({call}) is not finite in float64")

    return checked


def _short_repr(value):
    """repr(value) for an error message, but a dataclass instance is named by
    its class and an int of more than 20 digits by its digit count, so an
    argument cannot stretch the message over lines."""
    if is_dataclass(value) and not isinstance(value, type):
        return f"<{type(value).__name__}>"
    if isinstance(value, int) and abs(value) >= 10**20:
        digits = int(abs(value).bit_length() * math.log10(2.0)) + 1  # exact or one more
        return f"<{digits - (10 ** (digits - 1) > abs(value))}-digit int>"
    return repr(value)
