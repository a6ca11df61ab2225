"""Closed-form partition functions and equilibrium data for two families.

Both built-in families admit special-function evaluations of log Z_n that
bypass quadrature entirely, which makes them reference points for the
exact route and for convergence-rate measurements.  Each norm is a Gamma
value (power-log family, profile r^(2 lam) - 2 c log r, with p = k/lam a
positive integer) or a ratio of Gamma values (hard-wall family, profile
-alpha log(1 - r^2/beta)), k = 1 for the determinantal ensemble and 2 for
the symplectic one.  One multiplication sum (_gamma_sum) telescopes both
products over degrees into Barnes G factors.
"""

import math

from .droplet import Droplet, _given, droplet_of
from .equilibrium import EquilibriumReport
from .errors import DomainError, _finite
from .potential import (
    MittagLeffler,
    TruncatedUnitary,
    _EPS,
    _check_ensemble,
    _check_n,
    _check_nonnegative,
    _check_positive,
)
from .specialfn import LOG_2PI, ln_barnes_g, ln_factorial, ln_gamma

# Cap on p, the number of Barnes G factors in ml_log_z.  A factor costs two
# ln_barnes_g calls: 2 us on 2 vCPU at large arguments, up to 14 us at
# arguments near 1, which recur upward to 30 first.  The cap bounds the loop
# at about 1.5 s; a tiny lam would otherwise run it for up to 1e300 factors.
_MAX_FACTORS = 10**5


def _as_int(x, what):
    # x = fl(k / lam) is taken as the integer p when lam can be fl(k / p):
    # then lam = (k / p)(1 + d1) and x = p (1 + d2) / (1 + d1), |d1|, |d2|
    # <= eps / 2, so |x - p| <= eps p (1 + eps).  The bound 2 eps p, under
    # 4 ulps of p, covers that twice over.  A wider window would accept a
    # lam off k / p by more than rounding: another weight, whose log Z the
    # Barnes G product does not give.
    p = round(x) if math.isfinite(x) else 0
    if abs(x - p) > 2.0 * _EPS * p or p < 1:
        raise DomainError(f"{what} must be a positive integer, got {x!r}")
    if p > _MAX_FACTORS:
        raise DomainError(
            f"{what} = {x!r} needs more than {_MAX_FACTORS} Barnes G factors"
        )
    return int(p)


def _gamma_sum(p, n, z0):
    """The fsum terms of sum_{j=1}^{n} ln Gamma(p (j + z0)), integer p >= 1:
    Gauss's multiplication formula (DLMF 5.5.6) gives two prefactor terms
    and, for x = z0 + i/p, i < p, ln G(n + 1 + x) - ln G(1 + x) (DLMF 5.17)."""
    terms = [
        n * (1.0 - p) / 2.0 * LOG_2PI,
        (p * (n * (n + 1) / 2.0 + n * z0) - n / 2.0) * math.log(p),
    ]
    for i in range(p):
        x = z0 + i / p
        terms += (ln_barnes_g(n + 1.0 + x), -ln_barnes_g(1.0 + x))
    return terms


@_finite
def ml_log_z(lam, c, n, ensemble="normal"):
    """log Z_n for the power-log family, via Barnes G.

    Requires 1/lam to be a positive integer for the determinantal ensemble
    and 2/lam for the symplectic one, at most _MAX_FACTORS, to within the
    rounding of lam = fl(1/p) or fl(2/p).  c = 0 is allowed and reproduces
    the pure power case.
    """
    lam = _check_positive("lam", lam)
    c = _check_nonnegative("c", c)
    n = _check_n(n)
    k = _check_ensemble(ensemble)
    p = _as_int(k / lam, f"{k}/lam")
    # log h = -log lam + ln Gamma(p (j + c n)) - p (j + c n) log(k n) over
    # j = 1..n, and the symplectic n log 2: -n log lam becomes n log p.
    terms = [
        ln_factorial(n),
        n * math.log(p),
        -p * (n * (n + 1) / 2.0 + c * n * n) * math.log(k * n),
        *_gamma_sum(p, n, c * n),
    ]
    return math.fsum(terms)


@_finite
def ml_equilibrium(lam, c):
    """Closed-form equilibrium report for the power-log family (c > 0).

    The radii r_tau(0) and r_tau(1) are MittagLeffler(lam, c).r_tau, the
    closed form that droplet_of uses, held to the one disc rule
    (droplet._given): where r0 underflows to 0.0 or rounds to r1,
    DomainError."""
    p = MittagLeffler(lam, c)
    lam, c = p.lam, p.c
    if c == 0.0:
        raise DomainError("the closed-form equilibrium report requires c > 0")
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
        droplet=_given(Droplet(r0=p.r_tau(0.0), r1=p.r_tau(1.0), kind="annulus")),
    )


@_finite
def tu_log_z(alpha, R, n, ensemble="normal"):
    """log Z_n for the hard-wall family, via Barnes G."""
    alpha = _check_positive("alpha", alpha)
    R = _check_positive("R", R)
    n = _check_n(n)
    k = _check_ensemble(ensemble)
    log_beta = 2.0 * math.log(R) + math.log1p(alpha)
    b = k * n * alpha + 1.0
    # log h = k j log beta + ln Gamma(k j) + ln Gamma(b) - ln Gamma(k (j + b/k))
    # over j = 1..n, and the symplectic n log 2.
    terms = [
        ln_factorial(n),
        n * math.log(k),
        k * n * (n + 1) / 2.0 * log_beta,
        n * ln_gamma(b),
        *_gamma_sum(k, n, 0.0),
        *(-t for t in _gamma_sum(k, n, b / k)),
    ]
    return math.fsum(terms)


@_finite
def tu_equilibrium(alpha, R):
    """Closed-form equilibrium report for the hard-wall family.

    The droplet is droplet_of(TruncatedUnitary(alpha, R)): the disc of
    radius r_1 = sqrt(beta / (1 + alpha)), R up to rounding, from the
    family's one closed form, so the report raises where droplet_of does
    (r_1 underflows to 0, or ΔQ leaves float64 near the droplet).  A
    functional beyond float64 raises DomainError first."""
    alpha = _check_positive("alpha", alpha)
    R = _check_positive("R", R)
    ell = math.log(alpha / (1.0 + alpha))
    i_q = -0.5 * alpha - 0.5 * alpha * (2.0 + alpha) * ell - math.log(R)
    e_q = -2.0 - (1.0 + 2.0 * alpha) * ell - 2.0 * math.log(R)
    u_0 = -math.log(R) - 0.5 * alpha * ell
    f_term = (1.0 / alpha + 5.0 * ell) / 12.0
    # Where a functional is not finite, _finite raises before droplet_of can.
    finite = all(math.isfinite(v) for v in (i_q, e_q, u_0, f_term))
    droplet = droplet_of(TruncatedUnitary(alpha, R)) if finite else None
    return EquilibriumReport(
        energy=i_q,
        entropy=e_q,
        log_potential_origin=u_0,
        f_term=f_term,
        droplet=droplet,
    )
