"""Droplet geometry of a radial potential.

The equilibrium support is the annulus (or disc) r0 <= |z| <= r1 where r0 is
the largest solution of r q'(r) = 0 and r1 the smallest solution of
r q'(r) = 2.  More generally solve_r_tau(p, tau) inverts r q'(r) = 2 tau,
which gives the outer radius of the weighted droplet seen by monomials of
rotated degree tau: in closed form for the built-in families and their
dilations, otherwise by a safeguarded Newton iteration on the increasing
function r q'(r).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidPotentialError, SolverError
from .potential import _check_tau

_MAX_ITER = 200
_DISC_PROBE = 1e-9
_DISC_LEVEL = 1e-8


@dataclass(frozen=True)
class Droplet:
    r0: float
    r1: float
    kind: str  # "disc" or "annulus"


def _rqp(p, r):
    return float(r * p.q_derivs(r, 1))


def _not_nan(rqp, r, tau):
    # A NaN r q'(r) compares as neither above nor below the target, so the
    # root search would walk past it; +-inf still orders correctly.
    if math.isnan(rqp):
        raise InvalidPotentialError(
            f"r q'(r) is {rqp!r} at r = {r!r} while solving for tau = {tau!r}; "
            "the derivative of the profile is not finite there"
        )
    return rqp


def _is_disc(p):
    # Disc iff q' is already positive at the origin side: probe q'(1e-9)
    # and confirm r q'(r) has no zero above 1e-8 (r q' is increasing, so a
    # positive value at the probe radius settles it).
    try:
        qp = float(p.q_derivs(_DISC_PROBE, 1))
    except DomainError:
        return False
    return qp > 0.0 and _rqp(p, _DISC_LEVEL) > 0.0


# Upward bracket scan for potentials without a support radius.
_DYADIC_CANDIDATES = tuple(2.0**k for k in range(1024))


def _bracket_candidates(p):
    if p.support_radius is not None:
        s = p.support_radius
        return [s * (1.0 - 0.5**k) for k in range(1, 60)]
    return _DYADIC_CANDIDATES


def solve_r_tau(p, tau):
    """Solve r q'(r) = 2 tau for the outer radius, tau in [0, 1].

    Potentials with a closed-form root (p.r_tau) use it; the others go
    through the safeguarded Newton iteration of _bisect_r_tau.  For a disc
    potential tau = 0 returns 0.
    """
    tau = _check_tau(tau)
    try:
        r = p.r_tau(tau)
    except OverflowError:
        r = math.inf
    if r is None:
        return _bisect_r_tau(p, tau)
    if r == math.inf:
        raise InvalidPotentialError(
            f"r q'(r) never reaches {2.0 * tau!r}; the potential does not confine this level"
        )
    return r


def _bisect_r_tau(p, tau):
    """Safeguarded Newton for r q'(r) = 2 tau on a bracket found by scanning
    upward.

    Newton runs on g(r) = r q'(r) - 2 tau, with g' = q' + r q'' > 0, and keeps
    [lo, hi] around the root at every step.  A step that leaves the bracket
    or is not half the step before last, or a nonpositive g', falls back to
    the midpoint, so the bracket shrinks at least as fast as by bisection.
    Converged once a Newton step or the bracket is below 1e-13 max(1, r),
    well under the iteration cap.  A NaN r q'(r) on the way raises
    InvalidPotentialError.
    """
    if tau == 0.0 and _is_disc(p):
        return 0.0
    target = 2.0 * tau

    lo = 1e-12
    if p.support_radius is not None:
        lo = min(1e-12, p.support_radius * 1e-15)
    if _rqp(p, lo) - target >= 0.0:
        if tau == 0.0:
            return 0.0
        raise InvalidPotentialError(
            f"r q'(r) already exceeds {target!r} at r = {lo!r}; no inner bracket"
        )
    hi = None
    prev = lo
    for cand in _bracket_candidates(p):
        if cand <= prev:
            continue
        if _not_nan(_rqp(p, cand), cand, tau) - target > 0.0:
            hi = cand
            break
        prev = cand
    if hi is None:
        raise InvalidPotentialError(
            f"r q'(r) never reaches {target!r}; the potential does not confine this level"
        )
    lo = prev

    r = 0.5 * (lo + hi)
    dx = dx_prev = hi - lo
    for _ in range(_MAX_ITER):
        q1 = float(p.q_derivs(r, 1))
        g = _not_nan(r * q1, r, tau) - target
        if g == 0.0:
            return r
        if g < 0.0:
            lo = r
        else:
            hi = r
        gp = q1 + r * float(p.q_derivs(r, 2))
        if gp > 0.0:
            step = g / gp
            # Convergence comes first: at the root the step is zero and r
            # sits on a bracket end, which the bracket test would reject.
            if abs(step) <= 1e-13 * max(1.0, r):
                return r - step
            r_new = r - step
            # A step must also halve the one before last: on steep profiles
            # such as r q' = r^1000 plain Newton creeps by r/1000 a step.
            if lo < r_new < hi and abs(step) <= 0.5 * dx_prev:
                dx_prev, dx = dx, abs(step)
                r = r_new
                continue
        r = 0.5 * (lo + hi)
        dx_prev, dx = dx, 0.5 * (hi - lo)
        if r <= lo or r >= hi or hi - lo <= 1e-13 * max(1.0, hi):
            break
    if hi - lo > 1e-13 * max(1.0, hi):
        raise SolverError(
            f"safeguarded Newton stalled at bracket width {hi - lo!r} for tau = {tau!r}"
        )
    return 0.5 * (lo + hi)


def droplet_of(p):
    """Droplet radii and kind, with an admissibility check on the Laplacian.

    Raises InvalidPotentialError when the Laplacian of Q fails to be
    strictly positive on a grid spanning a neighborhood of the droplet.
    """
    r1 = solve_r_tau(p, 1.0)
    if _is_disc(p):
        d = Droplet(0.0, r1, "disc")
    else:
        d = Droplet(solve_r_tau(p, 0.0), r1, "annulus")

    lo = max(0.9 * d.r0, 1e-6)
    hi = 1.1 * d.r1
    if p.support_radius is not None:
        hi = min(hi, p.support_radius * (1.0 - 1e-9))
    grid = np.linspace(lo, hi, 64)
    dq = np.asarray(p.laplacian(grid), dtype=float)
    if not np.all(np.isfinite(dq)) or np.any(dq <= 0.0):
        raise InvalidPotentialError(
            "the Laplacian of Q is not strictly positive near the droplet"
        )
    return d


def dr_dtau(p, tau):
    """Derivative of the outer radius with respect to tau.

    d r_tau / d tau = 1 / (2 r_tau laplacian(r_tau)).  tau must be positive;
    for disc potentials the map degenerates as tau -> 0 and values below
    1e-12 are rejected.
    """
    tau = _check_tau(tau)
    if tau == 0.0:
        raise DomainError(f"tau must lie in (0, 1], got {tau!r}")
    if tau < 1e-12 and _is_disc(p):
        raise DomainError("dr_dtau is singular as tau -> 0 for a disc droplet")
    r = solve_r_tau(p, tau)
    dq = float(p.laplacian(r))
    if not dq > 0.0:
        raise InvalidPotentialError(f"nonpositive Laplacian at r_tau = {r!r}")
    return 1.0 / (2.0 * r * dq)
