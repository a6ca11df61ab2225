"""Droplet geometry of a radial potential.

The equilibrium support is the annulus (or disc) r0 <= |z| <= r1 where r0 is
the largest solution of r q'(r) = 0 and r1 the smallest solution of
r q'(r) = 2.  More generally solve_r_tau(p, tau) inverts r q'(r) = 2 tau,
which gives the outer radius of the weighted droplet seen by monomials of
rotated degree tau: in closed form for the built-in families and their
dilations, otherwise by a safeguarded Newton iteration on the increasing
function r q'(r), which stops at a relative step or bracket of 1e-13.
_roots is the one solver off the closed forms: one iteration (_newton)
for an array of levels, one read of q' and q'' a round for every
unfinished row.  A level 0 < tau < 1 starts in a table of r q'(r)
between the droplet edges that each potential builds once, on its first
interior solve, from one two-row edge solve and one array call; the
edges tau in {0, 1}, and every level of a potential without a table,
start from one upward bracket scan that they share, one read of r q' a
point.  solve_r_tau is a one-row call, and droplet_of takes both edges
from one two-row call (_radii).  _saddles gives the saddles of many
levels in [0, 1], and ΔQ and V_tau at each, from one such call, one
array read of ΔQ and one of V: the norms' set-up (norms._rows) and
lemma_sum take theirs from it.

The droplet is a disc exactly when r0 = solve_r_tau(p, 0) is 0.0, and an
annulus when r0 > 0; droplet_of and dr_dtau both use that one rule.
_given holds a caller's droplet to it, so ΔQ(d.r0) is ΔQ(0) just for a disc.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoulombGasError, DomainError, InvalidPotentialError, SolverError, _named
from .potential import _check_tau, _evaluate, _is_real, _v_tau_formula

_MAX_ITER = 200


@dataclass(frozen=True)
class Droplet:
    r0: float
    r1: float
    kind: str  # "disc" or "annulus"


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


def _closed_root(p, tau):
    """p.r_tau(tau), or None when p has no closed form; InvalidPotentialError
    where the closed form overflows (a level the potential does not confine)."""
    try:
        r = p.r_tau(tau)
    except OverflowError:
        r = math.inf
    if r == math.inf:
        raise InvalidPotentialError(
            f"r q'(r) never reaches {2.0 * tau!r}; the potential does not confine this level"
        )
    return r


@_named()
def solve_r_tau(p, tau):
    """Solve r q'(r) = 2 tau for the outer radius, tau in [0, 1].

    Potentials with a closed-form root (p.r_tau) use it; for the others it
    is a one-row _roots call, so the result depends only on p and tau and
    is bit for bit the row for tau of any _roots or _saddles call.  A level
    whose root lies so close to 0 that 200 steps cannot reach a relative
    bracket of 1e-13 (tau <= 1e-128 for q = r^2) raises SolverError naming
    tau.  At tau = 0 the result is the inner droplet radius r0: 0.0 for a
    disc, where r q'(r) >= 0 already at the bottom of the scan or the
    potential supplies a finite positive laplacian_at_zero() (so r q' > 0
    near 0, whatever the rounding of q' there), and the root of
    r q'(r) = 0 for an annulus.
    """
    tau = _check_tau(tau)
    r = _closed_root(p, tau)
    return r if r is not None else _roots(p, np.array([tau])).item()


def _radii(p, taus):
    """Roots of r q'(r) = 2 tau for the levels taus in [0, 1], as a float
    array: for a potential with a closed form (decided at taus[0], as
    solve_r_tau decides) each level's solve_r_tau, so their bits and calls
    stay; for the others one _roots call."""
    if _closed_root(p, taus[0]) is not None:
        return np.array([solve_r_tau(p, t) for t in taus])
    return _roots(p, np.asarray(taus, dtype=float))


def _saddles(p, taus):
    """(radii, ΔQ, V_tau) at the levels taus in [0, 1], as three float
    arrays: the one entry point for the saddles of many levels.  The radii
    come from _radii, ΔQ at all of them from one array read
    (_laplacian_at), and V_tau(r_tau) from one formula call once that read
    has checked the radii.  Each row is bit for bit solve_r_tau(p, tau),
    _laplacian_at of it and v_tau(p, tau, r_tau)."""
    radii = _radii(p, taus)
    dq = _laplacian_at(p, radii)
    with np.errstate(all="ignore"):
        v = _v_tau_formula(p, radii, np.asarray(taus, dtype=float))
    return radii, dq, v


def _roots(p, taus):
    """Roots of r q'(r) = 2 tau for an array of levels of a potential
    without a closed form, from one Newton call (_newton) for every row.
    With a table (_table), a level 0 < tau < 1 starts in its table cell
    (_table_start); the others, and every level of a potential without a
    table, start at the midpoint of their bracket from one shared upward
    scan (_scan_brackets).  A bracket of zero width is its root: a disc's
    r0 = 0.0 needs no solve."""
    inner = (0.0 < taus) & (taus < 1.0)
    table = _table(p) if np.count_nonzero(inner) else ()
    lo, hi, r = np.zeros_like(taus), np.zeros_like(taus), np.zeros_like(taus)
    scan = np.ones_like(inner)
    if table:
        lo[inner], hi[inner], r[inner] = _table_start(taus[inner], *table)
        scan = ~inner
    if np.count_nonzero(scan):
        lo[scan], hi[scan] = a, b = _scan_brackets(p, taus[scan])
        r[scan] = 0.5 * (a + b)
    solve = lo < hi
    if np.count_nonzero(solve):
        r[solve] = _newton(p, taus[solve], lo[solve], hi[solve], r[solve])
    return r


# Points of the r q'(r) table, quadratically spaced between the droplet
# edges r0 and r1 so that a disc resolves r ~ sqrt(tau) near the origin.
_TABLE_POINTS = 256


def _table(p):
    """The r q'(r) table of p, built on first use and kept in p's instance
    dict (so a frozen subclass keeps it too): a pair of arrays
    (radii, values), or () when p has none."""
    cache = vars(p)
    table = cache.get("_r_tau_table")
    if table is None:
        table = cache["_r_tau_table"] = _build_table(p)
    return table


def _build_table(p):
    """Radii r0 = r_0 < ... < r_M = r1 and values g_i = r_i q'(r_i), with
    g_0 = 0 and g_M = 2 at the droplet edges (one two-row _roots call) and
    one array read of q' and q'' for the rest, the read each Newton round
    makes.  () when the edge solve or the array read raises, or the values
    are not strictly increasing (this also rejects inf and nan)."""
    try:
        r0, r1 = _roots(p, np.array([0.0, 1.0])).tolist()
        x = np.arange(1, _TABLE_POINTS) / _TABLE_POINTS
        inner = r0 + (r1 - r0) * (x * x)
        values = np.concatenate(([0.0], inner * p._q_derivs_each(inner, (1, 2))[0], [2.0]))
    except CoulombGasError:  # an interior solve then raises whatever it must
        return ()
    if not np.all(values[:-1] < values[1:]):
        return ()
    return np.concatenate(([r0], inner, [r1])), values


def _table_start(taus, radii, values):
    """(lo, hi, r) for an array of levels 0 < tau < 1 from the table: the
    cell that holds 2 tau, widened by one cell a side (a safety margin: the
    table and the rows read r q' on the one array path, so the root lies
    in its own cell), and the linear interpolate in that cell."""
    target = 2.0 * taus
    i = np.searchsorted(values, target, side="right") - 1
    lo = radii[np.maximum(i - 1, 0)]
    hi = radii[np.minimum(i + 2, radii.size - 1)]
    r = radii[i] + (target - values[i]) * (radii[i + 1] - radii[i]) / (values[i + 1] - values[i])
    # At the smallest tau the interpolate underflows to r0 = 0.
    return lo, hi, np.where((lo < r) & (r < hi), r, 0.5 * (lo + hi))


def _scan_brackets(p, taus):
    """Brackets (lo, hi) of the roots of r q'(r) = 2 tau for an array of
    levels, from one upward scan from r = 1e-12 (dyadic points, or towards
    the support radius) shared by every row: each read is r q' at one
    point, once for all the rows still pending there, and the scan ends at
    the last pending row's crossing.  A disc's tau = 0 gets (0.0, 0.0).
    Each row gets the bracket of a scan of its own, and where rows fail,
    the lowest of them raises the error of its own scan."""
    target = 2.0 * taus
    lo, hi = np.zeros_like(taus), np.zeros_like(taus)
    pending = np.ones(taus.size, dtype=bool)
    if np.count_nonzero(taus == 0.0) and _has_origin_laplacian(p):
        pending = taus != 0.0
    if not np.count_nonzero(pending):
        return lo, hi

    # A row above its target at the start is a disc's r0 = 0.0 at tau = 0,
    # and has no bracket at tau > 0: the scan goes on only for the rows
    # before the first such row, whose error is raised once they are done.
    start = 1e-12
    if p.support_radius is not None:
        start = min(1e-12, p.support_radius * 1e-15)
    above = pending & (start * p.q_derivs(start, 1) - target >= 0.0)
    pending &= ~(above & (taus == 0.0))
    stuck = above & (taus > 0.0)
    k = stuck.argmax() if np.count_nonzero(stuck) else taus.size
    pending[k:] = False
    points = iter(_bracket_candidates(p))
    below = start  # the last point read, below every pending row's target
    while np.count_nonzero(pending):
        # Rows cross in the order of their targets, so each point is one
        # scalar read, held against the least pending target.
        least = target[pending].min()
        for r in points:
            rqp = r * p.q_derivs(r, 1)
            if math.isnan(rqp):
                _not_nan(rqp, r, taus.item(pending.argmax()))
            if rqp - least > 0.0:
                break
            below = r
        else:
            raise InvalidPotentialError(
                f"r q'(r) never reaches {target.item(pending.argmax())!r}; "
                "the potential does not confine this level"
            )
        crossed = pending & (rqp - target > 0.0)
        lo[crossed], hi[crossed] = below, r
        pending &= ~crossed
        below = r
    if k < taus.size:
        raise InvalidPotentialError(
            f"r q'(r) already exceeds {target.item(k)!r} at r = {start!r}; no inner bracket"
        )
    return lo, hi


def _newton(p, taus, lo, hi, r):
    """Safeguarded Newton for r q'(r) = 2 tau, one row per level: arrays of
    levels taus and brackets [lo, hi] around their roots, with r in each.

    Newton runs on g(r) = r q'(r) - 2 tau, with g' = q' + r q'' > 0, and keeps
    each row's [lo, hi] around its root at every step.  Each round reads
    q' and q'' at every unfinished row in one array evaluation
    (p._q_derivs_each), for a Custom without derivs one circle of q values
    per row.  Row by row, a step that leaves the bracket or is not half the
    step before last, or a nonpositive g', falls back to the midpoint, so
    the bracket shrinks at least as fast as by bisection.  A row is done
    once its Newton step is at most 1e-13 r or its bracket at most
    1e-13 hi, well under the iteration cap; a root too close to 0 for the
    cap to reach that relative width raises SolverError.  A NaN r q'(r) on the way raises InvalidPotentialError.
    Each row's arithmetic is that of a lone row, so its result does not
    depend on the other rows.
    """
    target = 2.0 * taus
    dx = dx_prev = hi - lo
    out = np.empty_like(r)
    rows = np.arange(r.size)  # each unfinished row's place in out
    for _ in range(_MAX_ITER):
        q1, q2 = p._q_derivs_each(r, (1, 2))
        with np.errstate(all="ignore"):
            rq = r * q1
            nan = np.isnan(rq)
            if np.count_nonzero(nan):
                k = nan.argmax()
                _not_nan(rq.item(k), r.item(k), taus.item(k))
            g = rq - target
            gp = q1 + r * q2
            step = g / gp
            size = abs(step)
            slope = gp > 0.0
            r_new = r - step
            # Convergence comes first: at the root the step is zero and r
            # sits on a bracket end, which the bracket test would reject.
            done = (g == 0.0) | slope & (size <= 1e-13 * r)
            neg = g < 0.0
            lo = np.where(neg, r, lo)
            hi = np.where(neg, hi, r)
            # A step must also halve the one before last: on steep profiles
            # such as r q' = r^1000 plain Newton creeps by r/1000 a step.
            take = slope & (lo < r_new) & (r_new < hi) & (size <= 0.5 * dx_prev)
            width = hi - lo
            mid = 0.5 * (lo + hi)
            stop = done | ~take & ((mid <= lo) | (mid >= hi) | (width <= 1e-13 * hi))
            if np.count_nonzero(stop):
                _stalled(stop & ~done, width, hi, taus)
                out[rows[stop]] = np.where(g == 0.0, r, np.where(done, r_new, mid))[stop]
                keep = ~stop
                if not np.count_nonzero(keep):
                    return out
                taus, target, lo, hi, rows = taus[keep], target[keep], lo[keep], hi[keep], rows[keep]
                take, r_new, size, mid, width = take[keep], r_new[keep], size[keep], mid[keep], width[keep]
                dx, dx_prev = dx[keep], dx_prev[keep]
            r = np.where(take, r_new, mid)
            dx_prev, dx = dx, np.where(take, size, 0.5 * width)
    width = hi - lo
    _stalled(np.ones(r.size, dtype=bool), width, hi, taus)
    out[rows] = 0.5 * (lo + hi)
    return out


def _stalled(rows, width, hi, taus):
    """SolverError for the first of the given rows whose bracket is still
    wider than 1e-13 hi."""
    bad = rows & (width > 1e-13 * hi)
    if np.count_nonzero(bad):
        k = bad.argmax()
        raise SolverError(
            f"safeguarded Newton stalled at bracket width {width.item(k)!r} "
            f"for tau = {taus.item(k)!r}"
        )


@_named()
def droplet_of(p):
    """Droplet radii and kind, with an admissibility check on the Laplacian.

    The radii r1 and r0 = solve_r_tau(p, 0) come from one _radii call, and
    the droplet is a disc iff r0 == 0.0.  Raises InvalidPotentialError
    when r0 is not below r1 (a zero-width droplet, e.g. once r0 and r1
    round to the same float) or when the Laplacian of Q fails to be
    strictly positive on a grid spanning a neighborhood of the droplet, or
    finite and positive at its edges r1 and an annulus's r0 (_laplacian_at):
    at a hard wall the grid stops short of r1, which can round onto it.
    """
    r1, r0 = map(float, _radii(p, (1.0, 0.0)))
    if not r0 < r1:
        raise InvalidPotentialError(
            f"zero-width droplet: r0 = {r0!r} is not below r1 = {r1!r}"
        )
    d = Droplet(r0, r1, "disc" if r0 == 0.0 else "annulus")

    # A neighbourhood relative to the droplet, so a tiny droplet's grid
    # stays near it: from 0.9 r0 to 1.1 r1; for a disc from its origin,
    # checked by ΔQ(0), or from 1e-6 r1 where ΔQ(0) is 0 or inf.
    hi = 1.1 * d.r1
    if p.support_radius is not None:
        hi = min(hi, p.support_radius * (1.0 - 1e-9))
    if d.r0:
        grid = np.linspace(0.9 * d.r0, hi, 64)
    elif _has_origin_laplacian(p):
        grid = np.arange(1, 65) * (hi / 64)
    else:
        grid = np.linspace(1e-6 * d.r1, hi, 64)
    dq = np.asarray(p.laplacian(grid), dtype=float)
    if not np.all(np.isfinite(dq)) or np.any(dq <= 0.0):
        raise InvalidPotentialError(
            "the Laplacian of Q is not strictly positive near the droplet"
        )
    edges = np.array([d.r0, d.r1] if d.r0 else [d.r1])
    _laplacian_at(p, edges, _evaluate(type(p)._laplacian, p, edges, (0,))[0])
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


def _laplacian_at(p, r, dq=None):
    """ΔQ(r): the one checked read of the Laplacian, p.laplacian(r) (or the
    given dq = ΔQ(r)) at a saddle or droplet edge r > 0, a float, or at an
    array of them, and p.laplacian_at_zero() at a disc's inner edge
    r == 0.0 (with the potential's reason when it has none).  Anything but
    a finite positive value raises InvalidPotentialError naming r (an
    array's first such entry), and the hard wall when r has rounded onto
    it."""
    if type(r) is not np.ndarray and r == 0.0:
        try:
            dq = float(p.laplacian_at_zero())
            reason = f"laplacian_at_zero() gave {dq!r}"
        except DomainError as exc:
            dq, reason = math.nan, str(exc).removeprefix(f"{p.name}: ")
        if 0.0 < dq < math.inf:
            return dq
        raise InvalidPotentialError(f"a disc's inner edge needs ΔQ(0) finite and > 0: {reason}")
    dq = p.laplacian(r) if dq is None else dq
    ok = (dq > 0.0) & (dq < math.inf)
    if np.all(ok):
        return dq
    k = np.argmin(ok)
    r, dq = float(np.ravel(r)[k]), float(np.ravel(dq)[k])
    if not dq > 0.0:
        raise InvalidPotentialError(f"nonpositive Laplacian {dq!r} at r_tau = {r!r}")
    wall = p.support_radius
    where = "" if wall is None or r < wall else f", on the hard wall at {wall!r}"
    raise InvalidPotentialError(f"infinite Laplacian at r_tau = {r!r}{where}")


def _has_origin_laplacian(p):
    """Whether p gives a finite positive ΔQ(0), by _laplacian_at's check."""
    try:
        return _laplacian_at(p, 0.0) > 0.0
    except InvalidPotentialError:
        return False


def _edge_laplacians(p, d):
    """((ΔQ(r0), ΔQ(r1)), (ΔQ'(r0), ΔQ'(r1))) at the edges of droplet d, as
    floats from one read of the Laplacian hook: at both edges of an
    annulus, or at r1 of a disc, whose inner ΔQ is ΔQ(0) and inner ΔQ' is
    0.0, which r0 = 0 multiplies.  ΔQ passes _laplacian_at's check, the
    inner edge first."""
    inner = [] if d.r0 else [_laplacian_at(p, 0.0)]
    radii = np.array([d.r0, d.r1] if d.r0 else [d.r1])
    dq, dq1 = _evaluate(type(p)._laplacian, p, radii, (0, 1))
    return (tuple(inner + _laplacian_at(p, radii, dq).tolist()),
            tuple([0.0] * len(inner) + dq1.tolist()))
