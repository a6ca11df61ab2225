"""Equilibrium-measure functionals of a radial potential.

For an admissible radial potential the equilibrium measure is
2 r laplacian(r) dr on [r0, r1], or laplacian(sqrt(x)) dx in x = r^2:
every integral here runs over [r0^2, r1^2], from x = 0 for a disc.
This module evaluates the energy, entropy and origin log-potential of
that measure, the order-one free-energy terms for annular and disc
droplets, the pointwise 1/s correction entering norm asymptotics, and
the planar free-energy coefficients in the squared-radius
parametrization used for the self-consistency checks.  Every functional
of the measure re-raises a package error as its class with the potential
name in front of the message (errors._named).
"""

import math
from dataclasses import dataclass

import numpy as np

from .droplet import Droplet, _droplet, _edge_laplacians
from .errors import InvalidPotentialError, _named
from .potential import _evaluate, _pow_or_inf
from .quadrature import integrate


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


def _integral(f, d):
    """Integral of f(x) dx over droplet d in x = r^2, on [r0^2, r1^2].

    f calls the unchecked hooks at r = sqrt(x), as the norm integrand does:
    integrate runs it under np.errstate on nodes in [r0^2, r1^2], whose
    roots already pass the entry points' domain check.

    Where f's noise sits above the 1e-13 target, refinement stalls and
    integrate raises IntegrationError; where r1^2 overflows float64, it
    raises DomainError.  integrate is looked up as a module global on every
    call, so a wrapper at equilibrium.integrate sees each integral.
    """
    bounds = _pow_or_inf(d.r0, 2), _pow_or_inf(d.r1, 2)  # inf, not OverflowError
    return integrate(f, *bounds, rel_tol=1e-13, abs_tol=1e-16)[0]


@_named()
def mu_mass(p, droplet=None):
    """Total mass of 2 r laplacian(r) dr over the droplet (should be 1)."""
    d = _droplet(p, droplet)
    return _integral(lambda x: p._laplacian(np.sqrt(x), (0,))[0], d)


@_named()
def energy(p, droplet=None):
    """Weighted logarithmic energy of the equilibrium measure.

    Evaluates q(r1) - log r1 - (1/8) * integral of q'(sqrt(x))^2 dx over
    the droplet.
    """
    d = _droplet(p, droplet)
    val = _integral(lambda x: p._profile(np.sqrt(x), 1) ** 2, d)
    return float(p.q_derivs(d.r1, 0)) - math.log(d.r1) - 0.125 * val


@_named()
def entropy(p, droplet=None):
    """Differential entropy integral of the equilibrium density.

    Evaluates the integral of log(laplacian) against the equilibrium
    measure 2 r laplacian(r) dr.
    """
    d = _droplet(p, droplet)

    def f(x):
        dq = p._laplacian(np.sqrt(x), (0,))[0]
        return np.log(dq) * dq

    return _integral(f, d)


@_named()
def log_potential_origin(p, droplet=None):
    """Logarithmic potential of the equilibrium measure at the origin.

    Equals -log r1 + (q(r1) - q(r0)) / 2, with q(0) in place of q(r0) for
    a disc droplet; an annulus reads q at both edges in one call.
    """
    d = _droplet(p, droplet)
    if d.kind == "disc":
        q_in, q_out = p.q_at_zero(), p.q_derivs(d.r1, 0)
    else:
        q_in, q_out = np.broadcast_to(p.q_derivs(np.array([d.r0, d.r1]), 0), 2).tolist()
    return -math.log(d.r1) + 0.5 * (q_out - q_in)


def b1(p, r):
    """Pointwise 1/s correction term of the orthogonal-norm expansion.

    b1 = -d2(laplacian)/(32 laplacian^2) - 19 d(laplacian)/(96 r laplacian^2)
         + 5 d(laplacian)^2/(96 laplacian^3) + 1/(12 r^2 laplacian),
    evaluated as [-r^2 d2/(32 laplacian) - 19 r d/(96 laplacian)
    + 5 (r d/laplacian)^2/96 + 1/12] / (r^2 laplacian), whose pieces are
    scale-free: no power of the Laplacian leaves float64 where b1 does not.
    """
    return _evaluate(_b1_formula, p, r, False)


def _b1_formula(p, r, weighted):
    """b1 at r, times laplacian(r) when weighted, from one Laplacian read."""
    dq, dq1, dq2 = p._laplacian(r, (0, 1, 2))
    u1 = r * (dq1 / dq)  # r laplacian' / laplacian
    u2 = r * (r * (dq2 / dq))  # r^2 laplacian'' / laplacian
    b = (-u2 / 32.0 - 19.0 * u1 / 96.0 + 5.0 * u1 * u1 / 96.0 + 1.0 / 12.0) / (r * (r * dq))
    return b * dq if weighted else b


def _f_term(p, d):
    """Order-one free-energy term of droplet d.

    (1/12) log(r0^2 laplacian(r0) / (r1^2 laplacian(r1)))
    - (r1 laplacian'(r1)/laplacian(r1) - r0 laplacian'(r0)/laplacian(r0)) / 16
    + (1/48) * integral of (laplacian'/laplacian)^2 dx over the droplet; a
    disc has no inner edge, so its inner factor is 1 and its inner edge term
    0, and it needs ΔQ(0) finite and > 0, or the integrand diverges at x = 0.
    ΔQ and ΔQ' at both edges come from one read (_edge_laplacians).
    """
    (dq0, dq1), (dr0, dr1) = _edge_laplacians(p, d, dr=True)

    def f(x):
        dq, dq1 = p._laplacian(np.sqrt(x), (0, 1))
        return (dq1 / dq) ** 2

    val = _integral(f, d)  # first, so that r0^2 and r1^2 below are finite
    inner = d.r0**2 * dq0 if d.kind == "annulus" else 1.0
    return (
        math.log(inner / (d.r1**2 * dq1)) / 12.0
        - (d.r1 * (dr1 / dq1) - d.r0 * (dr0 / dq0)) / 16.0
        + val / 48.0
    )


@_named()
def f_annulus(p, droplet=None):
    """Order-one free-energy term for an annular droplet."""
    return _f_term(p, _droplet(p, droplet, "annulus", "f_annulus"))


@_named()
def f_disc(p, droplet=None):
    """Order-one free-energy term for a disc droplet; needs ΔQ(0) > 0."""
    return _f_term(p, _droplet(p, droplet, "disc", "f_disc"))


@_named()
def f_disc_chi_form(p, droplet=None):
    """Disc order-one term through chi = (1/2) log(laplacian).

    Splits the same quantity as f_disc into boundary, curvature, zero-mode
    and Dirichlet-energy pieces:
    (1/12) log(1/r1^2) - chi(r1)/6 - (1/8) * integral of (chi'' + chi'/r)/2 dx
    + (1/6) * integral of chi'^2/2 dx.  Used as an independent evaluation
    route for cross-checking.
    """
    d = _droplet(p, droplet, "disc", "f_disc_chi_form")
    _, dq1 = _edge_laplacians(p, d)  # as in _f_term, the integrands need ΔQ(0) > 0

    def zero_mode(x):
        r = np.sqrt(x)
        dq, dq1, dq2 = p._laplacian(r, (0, 1, 2))
        chi2 = dq2 / (2.0 * dq) - dq1**2 / (2.0 * dq**2)
        return 0.5 * (chi2 + dq1 / (2.0 * dq) / r)

    def dirichlet(x):
        dq, dq1 = p._laplacian(np.sqrt(x), (0, 1))
        return 0.5 * (dq1 / (2.0 * dq)) ** 2

    zm = _integral(zero_mode, d)
    dir_en = _integral(dirichlet, d)
    return (
        math.log(1.0 / d.r1**2) / 12.0
        - 0.5 * math.log(dq1) / 6.0
        - zm / 8.0
        + dir_en / 6.0
    )


@_named()
def b1_integral(p, droplet=None):
    """Integral of b1 against the equilibrium measure, two ways.

    Returns (direct, identity): the direct quadrature of b1 * laplacian dx
    over the annulus, and the closed combination
    f_annulus - (1/4) log(laplacian(r1)/laplacian(r0)) + (1/3) log(r1/r0)
    that must agree with it.
    """
    d = _droplet(p, droplet, "annulus", "b1_integral")
    direct = _integral(lambda x: _b1_formula(p, np.sqrt(x), True), d)
    dq0, dq1 = _edge_laplacians(p, d)
    identity = (
        f_annulus(p, d)
        - math.log(dq1 / dq0) / 4.0
        + math.log(d.r1 / d.r0) / 3.0
    )
    return direct, identity


@_named()
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
    # As in _f_term, the integrands need ΔQ(0) > 0.
    (_, dq1), (_, dr1) = _edge_laplacians(p, d, dr=True)

    def f0_integrand(x):
        r = np.sqrt(x)
        w = -p._profile(r, 0)
        wprime = -p._profile(r, 1) / (2.0 * r)
        return (w - wprime * x * np.log(x)) * p._laplacian(r, (0,))[0]

    def f_half_integrand(x):
        s = p._laplacian(np.sqrt(x), (0,))[0]
        return s * np.log(s)

    def dirichlet(x):
        r = np.sqrt(x)
        dq, dq1 = p._laplacian(r, (0, 1))
        return x * (dq1 / (4.0 * r * dq)) ** 2

    f0 = _integral(f0_integrand, d)
    fh = _integral(f_half_integrand, d)
    dirich = _integral(dirichlet, d)
    x1 = d.r1**2  # finite, as the integrals returned
    chi1 = 0.5 * math.log(dq1)
    chi1_prime = dr1 / (4.0 * d.r1 * dq1)
    f1 = (
        math.log(1.0 / x1) / 12.0
        - chi1 / 6.0
        - 0.25 * x1 * chi1_prime
        + dirich / 3.0
    )
    return ZWCoefficients(f0=f0, f_half=-0.5 * fh, f1=f1)


@_named()
def equilibrium_report(p, droplet=None):
    """Bundle of the equilibrium functionals, with a mass sanity check."""
    d = _droplet(p, droplet)
    mass = mu_mass(p, d)
    if abs(mass - 1.0) > 1e-9:
        raise InvalidPotentialError(f"equilibrium measure has mass {mass!r}, expected 1")
    f_term = _f_term(p, d)
    return EquilibriumReport(
        energy=energy(p, d),
        entropy=entropy(p, d),
        log_potential_origin=log_potential_origin(p, d),
        f_term=f_term,
        droplet=d,
    )
