"""Closed-form partition functions and equilibrium data for two families.

Both built-in families admit special-function evaluations of log Z_n that
bypass quadrature entirely, which makes them reference points for the
exact route and for convergence-rate measurements.

Power-log family (profile r^(2 lam) - 2 c log r): each monomial norm is a
Gamma value, and when the norm arguments are commensurate (1/lam a positive
integer for the determinantal ensemble, 2/lam for the symplectic one) the
product over degrees telescopes into Barnes G factors through the Gauss
multiplication theorem.

Hard-wall family (profile -alpha log(1 - r^2/beta)): each norm is a Beta
value, and the product telescopes into Barnes G directly.
"""

import itertools
import math

from .droplet import Droplet
from .equilibrium import EquilibriumReport
from .errors import DomainError, _finite
from .potential import (
    _check_ensemble,
    _check_n,
    _check_nonnegative,
    _check_positive,
)
from .specialfn import LOG_2PI, ln_barnes_g, ln_factorial, ln_gamma

_INT_TOL = 1e-9

# Cap on p, the number of Barnes G factors in ml_log_z.  A factor costs two
# ln_barnes_g calls: 2 us on 2 vCPU at large arguments, up to 14 us at
# arguments near 1, which recur upward to 30 first.  The cap bounds the loop
# at about 1.5 s; a tiny lam would otherwise run it for up to 1e300 factors.
_MAX_FACTORS = 10**5


def _as_int(x, what):
    k = round(x) if math.isfinite(x) else 0
    if abs(x - k) > _INT_TOL or k < 1:
        raise DomainError(f"{what} must be a positive integer, got {x!r}")
    if k > _MAX_FACTORS:
        raise DomainError(
            f"{what} = {x!r} needs more than {_MAX_FACTORS} Barnes G factors"
        )
    return int(k)


@_finite
def ml_log_z(lam, c, n, ensemble="normal"):
    """log Z_n for the power-log family, via Barnes G.

    Requires 1/lam to be a positive integer for the determinantal ensemble
    and 2/lam for the symplectic one, at most _MAX_FACTORS.  c = 0 is
    allowed and reproduces the pure power case.
    """
    lam = _check_positive("lam", lam)
    c = _check_nonnegative("c", c)
    n = _check_n(n)
    _check_ensemble(ensemble)

    if ensemble == "normal":
        p = _as_int(1.0 / lam, "1/lam")
        log_base = math.log(n)
        step = lam
    else:
        p = _as_int(2.0 / lam, "2/lam")
        log_base = math.log(2 * n)
        step = lam / 2.0

    # sum over degrees of the power-of-base and power-of-p prefactors:
    # p * (n(n+1)/2 + c n^2) appears against both log(base) and log(p).
    exponent = p * (n * (n + 1) / 2.0 + c * n * n)
    terms = [
        ln_factorial(n),
        -exponent * log_base,
        n * (1.0 - p) / 2.0 * LOG_2PI,
        (exponent - n / 2.0 + n) * math.log(p),
    ]
    shifts = (c * n + 1.0 + k * step for k in range(p))
    factors = (ln_barnes_g(n + shift) - ln_barnes_g(shift) for shift in shifts)
    return math.fsum(itertools.chain(terms, factors))


@_finite
def ml_equilibrium(lam, c):
    """Closed-form equilibrium report for the power-log family (c > 0)."""
    lam = _check_positive("lam", lam)
    c = _check_nonnegative("c", c)
    if c == 0.0:
        raise DomainError("the closed-form equilibrium report requires c > 0")
    r0 = (c / lam) ** (1.0 / (2.0 * lam))
    r1 = ((1.0 + c) / lam) ** (1.0 / (2.0 * lam))
    log_ratio = math.log((1.0 + c) / c)
    log_r1_arg = math.log((1.0 + c) / lam)

    i_q = (
        (1.0 + c) / lam
        - (c / lam) * log_r1_arg
        - log_r1_arg / (2.0 * lam)
        - (1.0 - 2.0 * c) / (4.0 * lam)
        - (c * c / (2.0 * lam)) * log_ratio
    )
    e_q = 2.0 * math.log(lam) + (lam - 1.0) / lam * (
        (1.0 + c) * log_r1_arg - c * math.log(c / lam) - 1.0
    )
    u_0 = (1.0 - c * log_ratio) / (2.0 * lam) - log_r1_arg / (2.0 * lam)
    f_term = log_ratio / 12.0 * ((lam - 1.0) ** 2 / lam - 1.0)
    return EquilibriumReport(
        energy=i_q,
        entropy=e_q,
        log_potential_origin=u_0,
        f_term=f_term,
        droplet=Droplet(r0=r0, r1=r1, kind="annulus"),
    )


@_finite
def tu_log_z(alpha, R, n, ensemble="normal"):
    """log Z_n for the hard-wall family, via Barnes G."""
    alpha = _check_positive("alpha", alpha)
    R = _check_positive("R", R)
    n = _check_n(n)
    _check_ensemble(ensemble)
    log_beta = 2.0 * math.log(R) + math.log1p(alpha)
    a = alpha * n

    if ensemble == "normal":
        terms = [
            ln_factorial(n),
            n * (n + 1) / 2.0 * log_beta,
            n * ln_gamma(a + 1.0),
            ln_barnes_g(n + 1.0),
            ln_barnes_g(a + 2.0),
            -ln_barnes_g(a + n + 2.0),
        ]
    else:
        terms = [
            ln_factorial(n),
            n * (n + 1.0) * log_beta,
            n * ln_gamma(2.0 * a + 1.0),
            -2.0 * a * n * math.log(2.0),
            ln_barnes_g(n + 1.0),
            ln_barnes_g(n + 1.5),
            ln_barnes_g(a + 2.0),
            ln_barnes_g(a + 1.5),
            -ln_barnes_g(a + n + 2.0),
            -ln_barnes_g(a + n + 1.5),
            -ln_barnes_g(1.5),
        ]
    return math.fsum(terms)


@_finite
def tu_equilibrium(alpha, R):
    """Closed-form equilibrium report for the hard-wall family."""
    alpha = _check_positive("alpha", alpha)
    R = _check_positive("R", R)
    ell = math.log(alpha / (1.0 + alpha))
    i_q = -0.5 * alpha - 0.5 * alpha * (2.0 + alpha) * ell - math.log(R)
    e_q = -2.0 - (1.0 + 2.0 * alpha) * ell - 2.0 * math.log(R)
    u_0 = -math.log(R) - 0.5 * alpha * ell
    f_term = (1.0 / alpha + 5.0 * ell) / 12.0
    return EquilibriumReport(
        energy=i_q,
        entropy=e_q,
        log_potential_origin=u_0,
        f_term=f_term,
        droplet=Droplet(r0=0.0, r1=R, kind="disc"),
    )
