"""Droplet geometry of a radial potential.

The equilibrium support is the annulus (or disc) r0 <= |z| <= r1 where r0 is
the largest solution of r q'(r) = 0 and r1 the smallest solution of
r q'(r) = 2.  More generally solve_r_tau(p, tau) inverts r q'(r) = 2 tau,
which gives the outer radius of the weighted droplet seen by monomials of
rotated degree tau: in closed form for the built-in families and their
dilations, otherwise by a safeguarded Newton iteration on the increasing
function r q'(r), which stops at a relative step or bracket of 1e-13.
The iteration's bracket comes from an upward scan at tau in {0, 1}, and
at 0 < tau < 1 from a table of r q'(r) between the droplet edges that
each potential builds once, on its first interior solve, with one array
call.  Only a potential without a table scans at interior levels.

The droplet is a disc exactly when r0 = solve_r_tau(p, 0) is 0.0, and an
annulus when r0 > 0; droplet_of and dr_dtau both use that one rule.
_given holds a caller's droplet to it, so ΔQ(d.r0) is ΔQ(0) just for a disc.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidPotentialError, SolverError, _named
from .potential import _check_tau, _is_real

_MAX_ITER = 200


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


# Upward bracket scan for potentials without a support radius.
_DYADIC_CANDIDATES = tuple(2.0**k for k in range(1024))


def _bracket_candidates(p):
    if p.support_radius is not None:
        s = p.support_radius
        return [s * (1.0 - 0.5**k) for k in range(1, 60)]
    return _DYADIC_CANDIDATES


@_named()
def solve_r_tau(p, tau):
    """Solve r q'(r) = 2 tau for the outer radius, tau in [0, 1].

    Potentials with a closed-form root (p.r_tau) use it; the others run a
    safeguarded Newton iteration (_newton) to a relative 1e-13.  At
    0 < tau < 1 it starts at the linear interpolate in the cell of the
    potential's r q'(r) table (_table) that holds 2 tau, widened by one
    cell a side (array and scalar pow may differ in the last bit); at tau
    in {0, 1}, or without a table, from an upward bracket scan
    (_scan_root).  The result depends only on p and tau.  A level whose
    root lies so close to 0 that 200 steps cannot reach a relative bracket
    of 1e-13 (tau <= 1e-128 for q = r^2) raises SolverError naming tau.
    At tau = 0 the result is the inner droplet radius r0: 0.0 for a disc, where
    r q'(r) >= 0 already at the bottom of the bracket or the potential
    supplies a finite positive laplacian_at_zero() (so r q' > 0 near 0,
    whatever the rounding of q' there), and the root of
    r q'(r) = 0 for an annulus.
    """
    tau = _check_tau(tau)
    try:
        r = p.r_tau(tau)
    except OverflowError:
        r = math.inf
    if r is None:
        table = _table(p) if 0.0 < tau < 1.0 else ()
        return _table_root(p, tau, *table) if table else _scan_root(p, tau)
    if r == math.inf:
        raise InvalidPotentialError(
            f"r q'(r) never reaches {2.0 * tau!r}; the potential does not confine this level"
        )
    return r


# Points of the r q'(r) table, quadratically spaced between the droplet
# edges r0 and r1 so that a disc resolves r ~ sqrt(tau) near the origin.
_TABLE_POINTS = 256


def _table(p):
    """The r q'(r) table of p, built on first use and kept in p's instance
    dict (so a frozen subclass keeps it too): a pair of lists
    (radii, values), or () when p has none."""
    cache = vars(p)
    table = cache.get("_r_tau_table")
    if table is None:
        table = cache["_r_tau_table"] = _build_table(p)
    return table


def _build_table(p):
    """Radii r0 = r_0 < ... < r_M = r1 and values g_i = r_i q'(r_i), with
    g_0 = 0 and g_M = 2 at the droplet edges (_scan_root at tau = 0 and 1)
    and one array call for the rest.  () when an edge solve or the array
    call raises, or the values are not strictly increasing (this also
    rejects inf and nan)."""
    try:
        r0 = _scan_root(p, 0.0)
        r1 = _scan_root(p, 1.0)
        x = np.arange(1, _TABLE_POINTS) / _TABLE_POINTS
        inner = r0 + (r1 - r0) * (x * x)
        g = inner * np.asarray(p.q_derivs(inner, 1), dtype=float)
    except Exception:  # an interior scan then raises whatever it must
        return ()
    if g.shape != inner.shape:
        return ()
    values = [0.0, *g.tolist(), 2.0]
    if not all(a < b for a, b in zip(values, values[1:])):
        return ()
    return [r0, *inner.tolist(), r1], values


def _table_root(p, tau, radii, values):
    """Newton from the table's bracket for 2 tau."""
    target = 2.0 * tau
    i = bisect.bisect_right(values, target) - 1
    lo = radii[max(i - 1, 0)]
    hi = radii[min(i + 2, len(radii) - 1)]
    r = radii[i] + (target - values[i]) * (radii[i + 1] - radii[i]) / (values[i + 1] - values[i])
    if not lo < r < hi:  # at the smallest tau the interpolate underflows to r0 = 0
        r = 0.5 * (lo + hi)
    return _newton(p, tau, lo, hi, r)


def _scan_root(p, tau):
    """Root of r q'(r) = 2 tau on a bracket found by scanning upward from
    r = 1e-12 (dyadic points, or towards the support radius), with Newton
    started at the bracket midpoint."""
    target = 2.0 * tau
    if tau == 0.0:
        try:
            _laplacian_at(p, 0.0)
            return 0.0
        except InvalidPotentialError:
            pass

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
        if _not_nan(_rqp(p, cand), cand, tau) - target > 0.0:
            hi = cand
            break
        prev = cand
    if hi is None:
        raise InvalidPotentialError(
            f"r q'(r) never reaches {target!r}; the potential does not confine this level"
        )
    return _newton(p, tau, prev, hi, 0.5 * (prev + hi))


def _newton(p, tau, lo, hi, r):
    """Safeguarded Newton for r q'(r) = 2 tau from r in the bracket [lo, hi].

    Newton runs on g(r) = r q'(r) - 2 tau, with g' = q' + r q'' > 0, and keeps
    [lo, hi] around the root at every step.  Each step reads q' and q''
    in one evaluation (p._q_derivs_each), for a Custom without derivs one
    circle of q values.  A step that leaves the bracket or is not half the
    step before last, or a nonpositive g', falls back to the midpoint, so
    the bracket shrinks at least as fast as by bisection.
    Converged once a Newton step is at most 1e-13 r or the bracket at most
    1e-13 hi, well under the iteration cap; a root too close to 0 for the
    cap to reach that relative width raises SolverError.  A NaN r q'(r) on
    the way raises InvalidPotentialError.
    """
    target = 2.0 * tau
    dx = dx_prev = hi - lo
    for _ in range(_MAX_ITER):
        q1, q2 = p._q_derivs_each(r, (1, 2))
        q1 = float(q1)
        g = _not_nan(r * q1, r, tau) - target
        if g == 0.0:
            return r
        if g < 0.0:
            lo = r
        else:
            hi = r
        gp = q1 + r * float(q2)
        if gp > 0.0:
            step = g / gp
            # Convergence comes first: at the root the step is zero and r
            # sits on a bracket end, which the bracket test would reject.
            if abs(step) <= 1e-13 * r:
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
        if r <= lo or r >= hi or hi - lo <= 1e-13 * hi:
            break
    if hi - lo > 1e-13 * hi:
        raise SolverError(
            f"safeguarded Newton stalled at bracket width {hi - lo!r} for tau = {tau!r}"
        )
    return 0.5 * (lo + hi)


@_named()
def droplet_of(p):
    """Droplet radii and kind, with an admissibility check on the Laplacian.

    The inner radius is r0 = solve_r_tau(p, 0), and the droplet is a disc
    iff r0 == 0.0.  Raises InvalidPotentialError when r0 is not below r1
    (a zero-width droplet, e.g. once r0 and r1 round to the same float) or
    when the Laplacian of Q fails to be strictly positive on a grid
    spanning a neighborhood of the droplet.
    """
    r1 = solve_r_tau(p, 1.0)
    r0 = solve_r_tau(p, 0.0)
    if not r0 < r1:
        raise InvalidPotentialError(
            f"zero-width droplet: r0 = {r0!r} is not below r1 = {r1!r}"
        )
    d = Droplet(r0, r1, "disc" if r0 == 0.0 else "annulus")

    # A neighbourhood relative to the droplet, so a tiny droplet's grid
    # stays near it: from 0.9 r0, or 1e-6 r1 for a disc (ΔQ(0) can be 0
    # or inf), to 1.1 r1.
    lo = 0.9 * d.r0 if d.r0 else 1e-6 * d.r1
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


def _given(d):
    """A caller's droplet d; DomainError unless the disc rule holds for it."""
    if not (isinstance(d, Droplet) and _is_real(d.r0) and _is_real(d.r1) and 0.0 <= d.r0 < d.r1
            and d.kind == ("disc" if d.r0 == 0.0 else "annulus")):
        raise DomainError(f"{d!r} breaks the droplet rule: finite 0 <= r0 < r1, a disc iff r0 == 0.0")
    return d


def _droplet(p, droplet=None, kind=None, what=None):
    """_given(droplet), or droplet_of(p) when it is None: the one droplet-kind
    guard.  With kind ("disc" or "annulus") given, a droplet of the other
    kind raises DomainError naming what needs it; the entry point that
    calls it adds p's name."""
    d = droplet_of(p) if droplet is None else _given(droplet)
    if kind is not None and d.kind != kind:
        need = "requires a disc droplet" if kind == "disc" else "requires an annular droplet"
        raise DomainError(f"{what} {need}")
    return d


@_named()
def dr_dtau(p, tau):
    """Derivative of the outer radius with respect to tau.

    d r_tau / d tau = 1 / (2 r_tau laplacian(r_tau)).  tau must be positive;
    for disc potentials the map degenerates as tau -> 0 and values below
    1e-12 are rejected.
    """
    tau = _check_tau(tau)
    if tau == 0.0:
        raise DomainError(f"tau must lie in (0, 1], got {tau!r}")
    if tau < 1e-12 and solve_r_tau(p, 0.0) == 0.0:
        raise DomainError("dr_dtau is singular as tau -> 0 for a disc droplet")
    r = solve_r_tau(p, tau)
    return 1.0 / (2.0 * r * _laplacian_at(p, r))


def _laplacian_at(p, r):
    """ΔQ(r) as a float: the one scalar read of the Laplacian, p.laplacian(r)
    at a saddle or droplet edge r > 0 and p.laplacian_at_zero() at a disc's
    inner edge r == 0.0 (with the potential's reason when it has none).  Anything
    but a finite positive value raises InvalidPotentialError naming r, and
    the hard wall when r has rounded onto it."""
    if r == 0.0:
        try:
            dq = float(p.laplacian_at_zero())
            reason = f"laplacian_at_zero() gave {dq!r}"
        except DomainError as exc:
            dq, reason = math.nan, str(exc).removeprefix(f"{p.name}: ")
        if 0.0 < dq < math.inf:
            return dq
        raise InvalidPotentialError(f"a disc's inner edge needs ΔQ(0) finite and > 0: {reason}")
    dq = float(p.laplacian(r))
    if not dq > 0.0:
        raise InvalidPotentialError(f"nonpositive Laplacian {dq!r} at r_tau = {r!r}")
    if dq == math.inf:
        wall = p.support_radius
        where = "" if wall is None or r < wall else f", on the hard wall at {wall!r}"
        raise InvalidPotentialError(f"infinite Laplacian at r_tau = {r!r}{where}")
    return dq
