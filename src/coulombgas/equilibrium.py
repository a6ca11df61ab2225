"""Equilibrium-measure functionals of a radial potential.

For an admissible radial potential the equilibrium measure is
2 r laplacian(r) dr on [r0, r1].  This module evaluates the energy,
entropy and origin log-potential of that measure, the order-one
free-energy terms for annular and disc droplets, the pointwise 1/s
correction entering norm asymptotics, and the planar free-energy
coefficients in the squared-radius parametrization used for the
self-consistency checks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .droplet import Droplet, _droplet, _positive_origin_laplacian
from .errors import CoulombGasError, InvalidPotentialError, _in_context
from .potential import _evaluate
from .quadrature import integrate

_DISC_CUT = 1e-12  # relative inner cutoff for disc-case radial integrals


@dataclass(frozen=True)
class ZWCoefficients:
    f0: float
    f_half: float
    f1: float


@dataclass(frozen=True)
class EquilibriumReport:
    energy: float
    entropy: float
    log_potential_origin: float
    f_term: float
    droplet: Droplet


def _inner_cut(d):
    return d.r0 if d.kind == "annulus" else _DISC_CUT * d.r1


def _integral(f, a, b):
    """Integral of f over [a, b] under the equilibrium quadrature policy.

    Where f's noise sits above the 1e-13 target, as with finite-difference
    derivatives, refinement stalls and integrate raises IntegrationError.
    f runs under np.errstate(all="ignore"): a Laplacian that underflows to
    0 gives no numpy warning.  integrate is looked up as a module global
    on every call, so a wrapper at equilibrium.integrate sees each integral.
    """
    with np.errstate(all="ignore"):
        val, _ = integrate(f, a, b, rel_tol=1e-13, abs_tol=1e-16)
    return val


def mu_mass(p, droplet=None):
    """Total mass of 2 r laplacian(r) dr over the droplet (should be 1)."""
    d = _droplet(p, droplet)
    return _integral(lambda r: 2.0 * r * p.laplacian(r), _inner_cut(d), d.r1)


def energy(p, droplet=None):
    """Weighted logarithmic energy of the equilibrium measure.

    Evaluates q(r1) - log r1 - (1/4) * integral of r q'(r)^2 over the
    droplet.
    """
    d = _droplet(p, droplet)
    val = _integral(lambda r: r * p.q_derivs(r, 1) ** 2, _inner_cut(d), d.r1)
    return float(p.q_derivs(d.r1, 0)) - math.log(d.r1) - 0.25 * val


def entropy(p, droplet=None):
    """Differential entropy integral of the equilibrium density.

    Evaluates the integral of log(laplacian) against the equilibrium
    measure 2 r laplacian(r) dr.
    """
    d = _droplet(p, droplet)

    def f(r):
        dq = p.laplacian(r)
        return np.log(dq) * 2.0 * r * dq

    return _integral(f, _inner_cut(d), d.r1)


def log_potential_origin(p, droplet=None):
    """Logarithmic potential of the equilibrium measure at the origin.

    Equals -log r1 + (q(r1) - q(r0)) / 2, with q(0) in place of q(r0) for
    a disc droplet.
    """
    d = _droplet(p, droplet)
    if d.kind == "disc":
        q_in = p.q_at_zero()
    else:
        q_in = float(p.q_derivs(d.r0, 0))
    return -math.log(d.r1) + 0.5 * (float(p.q_derivs(d.r1, 0)) - q_in)


def b1(p, r):
    """Pointwise 1/s correction term of the orthogonal-norm expansion.

    b1 = -d2(laplacian)/(32 laplacian^2) - 19 d(laplacian)/(96 r laplacian^2)
         + 5 d(laplacian)^2/(96 laplacian^3) + 1/(12 r^2 laplacian).
    """
    return _evaluate(_b1_formula, p, r, None)


def _b1_formula(p, r, _):
    dq = p._laplacian(r, 0)
    dq1 = p._laplacian(r, 1)
    dq2 = p._laplacian(r, 2)
    return (
        -dq2 / (32.0 * dq**2)
        - 19.0 * dq1 / (96.0 * r * dq**2)
        + 5.0 * dq1**2 / (96.0 * dq**3)
        + 1.0 / (12.0 * r**2 * dq)
    )


def _f_term(p, d):
    """Order-one free-energy term of droplet d.

    (1/12) log(r0^2 laplacian(r0) / (r1^2 laplacian(r1)))
    - (r1 laplacian'(r1)/laplacian(r1) - r0 laplacian'(r0)/laplacian(r0)) / 16
    + (1/24) * integral of (laplacian'/laplacian)^2 r over the droplet; a
    disc has no inner edge, so its inner factor is 1 and its inner edge
    term 0.
    """
    dq1 = float(p.laplacian(d.r1))
    ratio1 = float(p.laplacian_dr(d.r1)) / dq1
    if d.kind == "annulus":
        dq0 = float(p.laplacian(d.r0))
        inner = d.r0**2 * dq0
        inner_edge = d.r0 * (float(p.laplacian_dr(d.r0)) / dq0)
    else:
        _require_origin_laplacian(p)
        inner = 1.0
        inner_edge = 0.0

    def f(r):
        return (p.laplacian_dr(r) / p.laplacian(r)) ** 2 * r

    val = _integral(f, _inner_cut(d), d.r1)
    return (
        math.log(inner / (d.r1**2 * dq1)) / 12.0
        - (d.r1 * ratio1 - inner_edge) / 16.0
        + val / 24.0
    )


def _require_origin_laplacian(p):
    """The disc functionals whose integrand runs into the origin assume ΔQ(0)
    finite and > 0; without it the integrand diverges (like
    (2 lam - 2)^2 / r for ML(lam, 0)) and the value depends on _DISC_CUT."""
    if not _positive_origin_laplacian(p):
        raise InvalidPotentialError(
            f"{p.name}: the disc functionals assume ΔQ(0) finite and > 0, "
            "and laplacian_at_zero() does not supply it"
        )


def f_annulus(p, droplet=None):
    """Order-one free-energy term for an annular droplet."""
    return _f_term(p, _droplet(p, droplet, "annulus", "f_annulus"))


def f_disc(p, droplet=None):
    """Order-one free-energy term for a disc droplet; needs ΔQ(0) > 0."""
    return _f_term(p, _droplet(p, droplet, "disc", "f_disc"))


def f_disc_chi_form(p, droplet=None):
    """Disc order-one term through chi = (1/2) log(laplacian).

    Splits the same quantity as f_disc into boundary, curvature, zero-mode
    and Dirichlet-energy pieces:
    (1/12) log(1/r1^2) - chi(r1)/6 - (1/8) * integral of (chi'' r + chi')
    + (1/6) * integral of chi'^2 r.  Used as an independent evaluation
    route for cross-checking.
    """
    d = _droplet(p, droplet, "disc", "f_disc_chi_form")
    _require_origin_laplacian(p)
    dq1 = float(p.laplacian(d.r1))
    lo = _inner_cut(d)

    def chi_prime(r):
        return p.laplacian_dr(r) / (2.0 * p.laplacian(r))

    def zero_mode(r):
        dq = p.laplacian(r)
        chi2 = p.laplacian_dr2(r) / (2.0 * dq) - p.laplacian_dr(r) ** 2 / (2.0 * dq**2)
        return chi2 * r + chi_prime(r)

    zm = _integral(zero_mode, lo, d.r1)
    dir_en = _integral(lambda r: chi_prime(r) ** 2 * r, lo, d.r1)
    return (
        math.log(1.0 / d.r1**2) / 12.0
        - 0.5 * math.log(dq1) / 6.0
        - zm / 8.0
        + dir_en / 6.0
    )


def b1_integral(p, droplet=None):
    """Integral of b1 against the equilibrium measure, two ways.

    Returns (direct, identity): the direct quadrature of b1 * 2 r laplacian
    over the annulus, and the closed combination
    f_annulus - (1/4) log(laplacian(r1)/laplacian(r0)) + (1/3) log(r1/r0)
    that must agree with it.
    """
    d = _droplet(p, droplet, "annulus", "b1_integral")
    direct = _integral(lambda r: b1(p, r) * 2.0 * r * p.laplacian(r), d.r0, d.r1)
    dq0 = float(p.laplacian(d.r0))
    dq1 = float(p.laplacian(d.r1))
    identity = (
        f_annulus(p, d)
        - math.log(dq1 / dq0) / 4.0
        + math.log(d.r1 / d.r0) / 3.0
    )
    return direct, identity


def zw_coefficients(p, droplet=None):
    """Planar free-energy coefficients in the squared-radius variable.

    For a disc droplet, with x = r^2, w(x) = -q(sqrt(x)),
    s(x) = laplacian(sqrt(x)) and chi(x) = (1/2) log laplacian(sqrt(x)):

    f0     = integral of (w - w' x log x) * s dx,
    f_half = -(1/2) * integral of s log(s) dx,
    f1     = (1/12) log(1/r1^2) - chi(r1^2)/6 - (1/4) r1^2 chi'(r1^2)
             + (1/3) * integral of x chi'(x)^2 dx,

    all over x in (0, r1^2).  These must match -energy, -entropy/2 and
    f_disc respectively, which is the consistency check exposed by the
    command line driver.
    """
    d = _droplet(p, droplet, "disc", "zw_coefficients")
    _require_origin_laplacian(p)
    x1 = d.r1**2
    lo = _DISC_CUT * x1

    def f0_integrand(x):
        r = np.sqrt(x)
        w = -p.q_derivs(r, 0)
        wprime = -p.q_derivs(r, 1) / (2.0 * r)
        return (w - wprime * x * np.log(x)) * p.laplacian(r)

    def f_half_integrand(x):
        s = p.laplacian(np.sqrt(x))
        return s * np.log(s)

    def chi_prime_x(x):
        r = np.sqrt(x)
        return p.laplacian_dr(r) / (4.0 * r * p.laplacian(r))

    f0 = _integral(f0_integrand, lo, x1)
    fh = _integral(f_half_integrand, lo, x1)
    dirich = _integral(lambda x: x * chi_prime_x(x) ** 2, lo, x1)
    dq1 = float(p.laplacian(d.r1))
    chi1 = 0.5 * math.log(dq1)
    chi1_prime = float(p.laplacian_dr(d.r1)) / (4.0 * d.r1 * dq1)
    f1 = (
        math.log(1.0 / x1) / 12.0
        - chi1 / 6.0
        - 0.25 * x1 * chi1_prime
        + dirich / 3.0
    )
    return ZWCoefficients(f0=f0, f_half=-0.5 * fh, f1=f1)


def equilibrium_report(p, droplet=None):
    """Bundle of the equilibrium functionals, with a mass sanity check.

    A failure re-raises its exception class with the potential name in the
    message, once.
    """
    try:
        d = _droplet(p, droplet)
        mass = mu_mass(p, d)
        if abs(mass - 1.0) > 1e-9:
            raise InvalidPotentialError(
                f"equilibrium measure has mass {mass!r}, expected 1"
            )
        f_term = _f_term(p, d)
        return EquilibriumReport(
            energy=energy(p, d),
            entropy=entropy(p, d),
            log_potential_origin=log_potential_origin(p, d),
            f_term=f_term,
            droplet=d,
        )
    except CoulombGasError as exc:
        raise _in_context(exc, p.name) from exc
