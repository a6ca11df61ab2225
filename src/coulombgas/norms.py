"""Orthogonal monomial norms for radial weights, exact and asymptotic.

The squared norm of the degree-j monomial with respect to the planar
measure e^{-s q(|z|)} dA(z), dA = d^2z / pi, is

    h_j = 2 * integral of r^(2j+1) e^{-s q(r)} dr over (0, infinity),

with s = n for the determinantal (normal) ensemble and s = 2n for the
symplectic one.  The exact route rewrites the integrand through the
effective potential V_tau, tau = j/s, shifts by its minimum so the
quadrature sees a bounded integrand, and truncates where the shifted
exponent is negligible.  The asymptotic routes implement the two-term
Laplace approximation at the saddle r_tau, the factorial form valid for
low degrees over a disc droplet, and the gated high-degree form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .droplet import _droplet, solve_r_tau
from .equilibrium import b1
from .errors import CoulombGasError, DomainError, IntegrationError, _in_context
from .potential import (
    _check_ensemble,
    _check_n,
    _is_integer,
    _v_tau0,
    v_tau,
)
from .quadrature import integrate
from .specialfn import ln_factorial


@dataclass(frozen=True)
class NormQuery:
    """Degree j norm request at matrix size n for one ensemble.

    n and j follow the rules of the matrix size check (bools, nan, inf and
    non-integers raise DomainError) and are stored as ints.
    """

    n: int
    j: int
    ensemble: str = "normal"

    def __post_init__(self):
        _check_ensemble(self.ensemble)
        object.__setattr__(self, "n", _check_n(self.n))
        if not _is_integer(self.j) or not 0 <= self.j <= self.s - 1:
            raise DomainError(
                f"degree must be an integer in [0, {self.s - 1}], got {self.j!r}"
            )
        object.__setattr__(self, "j", int(self.j))

    @property
    def s(self):
        """Inverse temperature scale in the weight e^{-s q}."""
        return self.n if self.ensemble == "normal" else 2 * self.n

    @property
    def tau(self):
        return self.j / self.s


# Relative accuracy of every norm integral whose roundoff floor is lower.
# The exponent s (V_tau(r) - v_min) is formed by cancellation: V_tau(r) =
# q(r) - 2 tau log r carries an ulp of |q| from the profile and one of
# |2 tau log r| from the log term and the difference, v_min the same two at
# r*.  Near the peak, where the integral's mass lies, the integrand is thus
# off relatively by 4 ulp of s (|q(r*)| + |2 tau log r*|): the floor.
_REL_TOL = 1e-13
_FLOOR = 4.0 * float(np.finfo(float).eps)


# Initial panel boundaries r* +- k*width: the partition the adaptive rule
# converges to, so most norms need no refinement round.  With
# t = (r - r*)/width the shifted integrand is about e^{-t^2}, because
# s (V_tau - V_min) ~ 2 s laplacian(r*) (r - r*)^2 = t^2: half-width panels
# cover the bulk out to |t| = 3, unit panels the tail out to |t| = 6, where
# e^{-36} ~ 2e-16 is below every tolerance, and the doubling offsets beyond
# bound the panel widths where the integrand leaves its Gaussian form.
_SEED_OFFSETS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 16.0, 32.0)

# The same cuts in units of width, sorted, r* included: r* + _SEED_T * width
# is bit for bit r* +- k*width, because negating k is exact.
_SEED_T = np.array(sorted({0.0, *_SEED_OFFSETS, *(-k for k in _SEED_OFFSETS)}))


def _peak(p, query):
    """Saddle radius, V minimum, and Gaussian width for the shifted weight."""
    s = query.s
    tau = query.tau
    r_star = solve_r_tau(p, tau)
    if r_star == 0.0:
        v_min = p.q_at_zero()
        dq_star = p.laplacian_at_zero()
    else:
        v_min = float(v_tau(p, tau, r_star))
        dq_star = float(p.laplacian(r_star))
    if not dq_star > 0.0:
        raise IntegrationError(f"nonpositive Laplacian at the saddle r = {r_star!r}")
    width = 1.0 / math.sqrt(2.0 * s * dq_star)
    return r_star, v_min, width


def _r_cut(p, query, r_star, v_min):
    """Truncation radius: first dyadic point where the shifted exponent
    exceeds 40 + log s, capped at the support radius."""
    s = query.s
    tau = query.tau
    thresh = 40.0 + math.log(s)
    r = max(2.0 * r_star, r_star + 1.0)
    support = p.support_radius
    while r <= 1e300:
        if support is not None and r >= support:
            return support
        if s * (float(v_tau(p, tau, r)) - v_min) >= thresh:
            return r
        r *= 2.0
    raise IntegrationError("failed to locate a truncation radius")


def log_norm_exact(p, query):
    """log h_j by shifted adaptive quadrature.

    Accuracy target is max(1e-13, 4 s eps (|q(r*)| + |2 tau log r*|)) on the
    norm value, the larger term being its roundoff floor at the saddle r*,
    and about the same absolute error on the log.  A failure re-raises its
    exception class with the potential name, n, j and ensemble in the message.
    """
    try:
        return _log_norm_exact(p, query)
    except CoulombGasError as exc:
        context = f"{p.name}, n={query.n}, j={query.j}, ensemble={query.ensemble}"
        raise _in_context(exc, context) from exc


def _log_norm_exact(p, query):
    s = query.s
    tau = query.tau
    r_star, v_min, width = _peak(p, query)
    cut = _r_cut(p, query, r_star, v_min)
    log_term = 2.0 * tau * math.log(r_star) if r_star > 0.0 else 0.0  # q(r*) - v_min
    rel_tol = max(_REL_TOL, _FLOOR * s * (abs(v_min + log_term) + abs(log_term)))

    seeds = r_star + _SEED_T * width  # integrate drops those outside (0, cut)

    def integrand(r):
        # tau is checked once per norm; the node array on every call.
        return 2.0 * r * np.exp(-s * (_v_tau0(p, r, tau) - v_min))

    val, _ = integrate(integrand, 0.0, cut, rel_tol=rel_tol, abs_tol=0.0, seeds=seeds)
    if not val > 0.0:
        raise IntegrationError(f"nonpositive norm integral {val!r}")
    return -s * v_min + math.log(val)


def _laplace_value(p, s, tau):
    r = solve_r_tau(p, tau)
    if r == 0.0:
        raise DomainError(
            "the Laplace form needs a positive saddle radius; "
            "use the low-degree form for small j over a disc droplet"
        )
    dq = float(p.laplacian(r))
    v = float(v_tau(p, tau, r))
    corr = float(b1(p, r)) / s
    return -s * v + 0.5 * math.log(2.0 * math.pi * r * r / (s * dq)) + math.log1p(corr)


def log_norm_laplace(p, query):
    """Two-term Laplace approximation of log h_j at the saddle r_tau.

    Error is O(s^-2) uniformly in j as long as r_tau stays away from 0.
    """
    return _laplace_value(p, query.s, query.tau)


def log_norm_lowdeg(p, query):
    """Factorial form of log h_j for low degrees over a disc droplet.

    log h_j ~ -s q(0) - (j+1) log(s laplacian(0)) + log j!; exact for the
    quadratic profile and accurate while j stays well below the droplet
    scale.
    """
    _droplet(p, kind="disc", what="log_norm_lowdeg")
    s = query.s
    q0 = p.q_at_zero()
    dq0 = p.laplacian_at_zero()
    return -s * q0 - (query.j + 1) * math.log(s * dq0) + ln_factorial(query.j)


def log_norm_highdeg(p, query):
    """Laplace form of log h_j gated to degrees above the splitting scale.

    Requires a disc droplet and j >= n^(1/6) (twice that for the symplectic
    grid), the regime where the saddle is uniformly separated from the
    origin.
    """
    _droplet(p, kind="disc", what="log_norm_highdeg")
    gate = query.n ** (1.0 / 6.0)
    if query.ensemble == "symplectic":
        gate *= 2.0
    if query.j < gate:
        raise DomainError(
            f"degree {query.j} below the high-degree gate {gate!r} at n = {query.n}"
        )
    return _laplace_value(p, query.s, query.tau)
