"""Orthogonal monomial norms for radial weights, exact and asymptotic.

The squared norm of the degree-j monomial with respect to the planar
measure e^{-s q(|z|)} dA(z), dA = d^2z / pi, is

    h_j = 2 * integral of r^(2j+1) e^{-s q(r)} dr over (0, infinity),

with s = n for the determinantal (normal) ensemble and s = 2n for the
symplectic one.  The exact route integrates h_j = 2 * integral of
e^{-s V_tau'(r)} dr, tau' = (j + 1/2)/s, whose saddle r_tau' > 0 at every
degree, shifted by min V_tau' to keep the integrand bounded and truncated
where that exponent is negligible.  Each norm's set-up (its saddle r*,
v_min = V_tau'(r*), peak width, truncation radius and accuracy target) is
one row of an array stage over levels (_rows) on droplet._saddles' r*,
ΔQ(r*) and v_min: log_z_exact's queries (_grid) hold the rows of one call
for all n norms, and a norm asked for alone makes a one-row call, with
the same bits.
The asymptotic routes implement the two-term Laplace approximation at
r_tau and the factorial form valid for low degrees over a disc droplet.
Every route re-raises a package error as its class with the potential
name, n, j and ensemble in front of the message (errors._named).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .droplet import _laplacian_at, _saddles, solve_r_tau
from .equilibrium import _b1_formula
from .errors import CoulombGasError, DomainError, IntegrationError, _named
from .potential import (
    _check_ensemble,
    _check_n,
    _evaluate,
    _is_integer,
    _v_tau_formula,
    v_tau,
)
from .quadrature import integrate
from .specialfn import LOG_2PI, ln_factorial


@dataclass(frozen=True)
class NormQuery:
    """Degree j norm request at matrix size n for one ensemble.

    n and j follow the rules of the matrix size check (bools, nan, inf and
    non-integers raise DomainError) and are stored as ints.  k is the
    ensemble's factor (1 normal, 2 symplectic), s = k n the inverse
    temperature scale in the weight e^{-s q}, and level = (j + 1/2)/s the
    tau' of the exact route's e^{-s V_tau'}.  log_z_exact takes its n
    queries from _grid(p, n, ensemble), which checks n and the ensemble
    once per log Z and builds the same queries, each with its row of one
    set-up stage for all n (_rows).  A query a caller builds holds none,
    and its norm makes the one-row call _rows(p, query.s, (query.level,)).
    """

    n: int
    j: int
    ensemble: str = "normal"
    k: int = field(init=False, repr=False)
    s: int = field(init=False, repr=False)
    level: float = field(init=False, repr=False)
    # (r*, v_min, width, cut, target) of the norm for the potential of one
    # log Z (_rows), or None.
    _row: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        k = _check_ensemble(self.ensemble)
        n = _check_n(self.n)
        s = k * n
        j = self.j
        if not (_is_integer(j) and 0 <= j <= s - 1):
            raise DomainError(f"degree must be an integer in [0, {s - 1}], got {j!r}")
        j = int(j)
        self.__dict__.update(n=n, j=j, k=k, s=s, level=(j + 0.5) / s)

    @property
    def tau(self):
        return self.j / self.s


def _degrees(k, n):
    """The degrees k-1, 2k-1, ..., kn-1 whose norms make up log Z_n."""
    return range(k - 1, k * n, k)


def _grid(p, n, ensemble):
    """[NormQuery(n, j, ensemble) for j in _degrees(k, n)], the queries of
    log Z_n of potential p, with n and the ensemble checked once rather
    than once per degree, each built with its row of one _rows call for
    all the levels.  A bad n or ensemble raises NormQuery's DomainError; n
    is checked first, as log_z_exact always has.  Where _rows raises, the
    queries stay bare: each norm then makes its own one-row call, so the
    lowest degree that fails raises, with its norm's context, as it would
    on its own."""
    n = _check_n(n)
    k = _check_ensemble(ensemble)
    s = k * n
    degrees = _degrees(k, n)
    levels = [(j + 0.5) / s for j in degrees]
    try:
        rows = _rows(p, s, levels)
    except CoulombGasError:
        rows = [None] * n
    grid = []
    for j, level, row in zip(degrees, levels, rows):
        # What NormQuery.__post_init__ stores, for a j known to be in range.
        q = object.__new__(NormQuery)
        q.__dict__.update(n=n, j=j, ensemble=ensemble, k=k, s=s, level=level, _row=row)
        grid.append(q)
    return grid


# Relative accuracy of every norm integral whose roundoff floor is lower.
# The exponent s (V_tau'(r) - v_min) is formed by cancellation: V_tau'(r) =
# q(r) - 2 tau' log r carries the rounding of q, an ulp of the magnitudes of
# its terms (p._q_magnitude; a sum rounds with the sum of its terms'
# magnitudes, not with its value), and an ulp of |2 tau' log r| from the log
# term and the difference, v_min the same two at r*.  Near the peak, where
# the integral's mass lies, the integrand is thus off relatively by 4 ulp of
# s (|q|_terms(r*) + |2 tau' log r*|): the floor.
_REL_TOL = 1e-13
_FLOOR = 4.0 * float(np.finfo(float).eps)


# Initial panel boundaries r* +- k*width: the partition the adaptive rule
# converges to, so most norms need no refinement round.  With
# t = (r - r*)/width the shifted integrand is about e^{-t^2}, because
# s (V_tau' - V_min) ~ 2 s laplacian(r*) (r - r*)^2 = t^2, whose integral
# is sqrt(pi); a norm's target is then 1e-13 sqrt(pi) = 1.8e-13 in t.  The
# Kronrod-Gauss estimate |K15 - G7| of e^{-t^2} is 5.6e-15, 7.3e-15,
# 2.3e-15 and 2.9e-16 on the panels of width 0.75 from t = 0 to 3, which
# with their mirror images and the tails sum to 3.1e-14, a sixth of the
# target; width-1 panels would give 7.9e-13 on [0, 1] alone.  So 0.75-wide
# panels cover the bulk out to |t| = 3 and unit panels the tail out to
# |t| = 6 (estimates 1.2e-16 on [3, 4], below 1e-16 further out), where
# e^{-36} ~ 2e-16 is below every tolerance.  The doubling offsets beyond
# bound the panel widths where the integrand leaves its Gaussian form;
# integrate drops those beyond the cut (_cuts).
_SEED_OFFSETS = (0.75, 1.5, 2.25, 3.0, 4.0, 5.0, 6.0, 8.0, 16.0, 32.0)

# The same cuts in units of width, sorted, r* included: r* + _SEED_T * width
# is bit for bit r* +- k*width, because negating k is exact.
_SEED_T = np.array(sorted({0.0, *_SEED_OFFSETS, *(-k for k in _SEED_OFFSETS)}))


def _rows(p, s, levels):
    """The set-up of the norm of weight scale s at each level tau' as one
    row (r*, v_min, width, cut, target) of Python floats, from one array
    stage for all the levels.

    r*, ΔQ(r*) and v_min = V_tau'(r*) come from one _saddles call, and the
    rest from arrays over the rows: the Gaussian width 1/sqrt(2 s ΔQ(r*))
    of the shifted weight, the accuracy target
    max(_REL_TOL, _FLOOR s (|q|_terms(r*) + |2 tau' log r*|)) (p._q_magnitude
    of q(r*) = v_min + 2 tau' log r*), and the truncation radius (_cuts).
    Each row's arithmetic is that of a lone row, so a query alone (a
    one-row call) gets the bits it gets among the n queries of log Z.
    """
    r_star, dq, v_min = _saddles(p, levels)
    t = np.array(levels)
    with np.errstate(all="ignore"):
        log_term = 2.0 * t * np.log(r_star)  # q(r*) - v_min
        q_terms = p._q_magnitude(r_star, v_min + log_term)
        # fmax, as Python's max, keeps _REL_TOL where the floor is nan.
        target = np.fmax(_REL_TOL, _FLOOR * s * (q_terms + abs(log_term)))
        width = 1.0 / np.sqrt(2.0 * s * dq)
        cut = _cuts(p, s, t, r_star, v_min, width)
    return list(zip(r_star.tolist(), v_min.tolist(), width.tolist(), cut.tolist(),
                    target.tolist()))


def _cuts(p, s, t, r_star, v_min, width):
    """Truncation radii: for each row the first r* + 8 width 2^k, k = 0, 1, ...,
    where the shifted exponent s (V_tau'(r) - v_min) reaches 40 + log s,
    capped at the support radius.

    On the Gaussian e^{-t^2} the exponent at t = 8 is 64, above 40 + log s
    for every s < 2.6e10, so the search usually stops at k = 0 and the seeds
    beyond t = 8 fall outside (0, cut).  Each round reads V once for every
    row still searching, and only the rows that fall short step on.  The
    step is at least an ulp of r*, so the search moves on where the width
    underflows to 0.  A row at or beyond the support radius stops there,
    and reads V at r*, not at the wall.  A row whose radius passes 1e300
    raises IntegrationError."""
    thresh = 40.0 + math.log(s)
    wall = p.support_radius
    step = np.maximum(8.0 * width, np.spacing(r_star))
    cut = np.empty_like(r_star)
    rows = np.arange(cut.size)  # each searching row's place in cut
    while True:
        r = r_star + step
        if np.count_nonzero(r > 1e300):
            raise IntegrationError("failed to locate a truncation radius")
        at = r
        if wall is not None:
            free = r < wall
            at = np.where(free, r, r_star)
            r = np.where(free, r, wall)
        done = s * (_v_tau_formula(p, at, t) - v_min) >= thresh
        if wall is not None:
            done |= ~free
        finished = np.count_nonzero(done)
        if finished == r.size:
            cut[rows] = r
            return cut
        if finished:
            cut[rows[done]] = r[done]
            keep = ~done
            rows, r_star, t, v_min, step = (x[keep] for x in (rows, r_star, t, v_min, step))
        step *= 2.0


def _query_context(query):
    """The error context of a norm route after the potential's name."""
    return (f"n={query.n}", f"j={query.j}", f"ensemble={query.ensemble}")


@_named(_query_context)
def log_norm_exact(p, query):
    """log h_j by shifted adaptive quadrature of e^{-s V_tau'}, tau' = query.level,
    doubled.

    Accuracy target is max(1e-13, 4 s eps (|q|_terms(r*) + |2 tau' log r*|))
    on the norm value, the larger term being its roundoff floor at the
    saddle r* = r_tau' > 0, and about the same absolute error on the log.
    r*, v_min, the peak width, the cut and the target are the query's row
    of log_z_exact's one set-up stage (_grid), or for a query built by the
    caller a one-row call of that stage (_rows), with the same bits; the norm
    itself builds its seeds and makes one integrate call.
    |q|_terms is the sum of the magnitudes of q's terms at r*: for
    MittagLeffler r^(2 lam) + 2 c |log r|, for a dilation its base's, and
    |q(r*)| for the single-term Ginibre and TruncatedUnitary and for Custom.
    """
    s = query.s
    level = query.level
    r_star, v_min, width, cut, rel_tol = query._row or _rows(p, s, (level,))[0]
    seeds = r_star + _SEED_T * width  # integrate drops those outside (0, cut)

    def integrand(r):
        # integrate calls this under its own np.errstate, on positive nodes
        # in [0, cut] (none on cut in its first round, where a hard wall's
        # profile is inf or nan); cut is a finite radius below the support
        # radius or the support radius itself (_cuts).  So every node
        # passes _evaluate's domain check, and the formula runs directly.
        # In place on the formula's fresh array, in the order of
        # exp(-s (V - v_min)), so the bits are that expression's.
        v = _v_tau_formula(p, r, level)
        v -= v_min
        v *= -s
        np.exp(v, out=v)
        return v

    val, _ = integrate(integrand, 0.0, cut, rel_tol=rel_tol, abs_tol=0.0, seeds=seeds)
    # h_j = 2 val.  Doubling is exact, so outside the subnormal range these
    # are the bits of integrating 2 e^{-s (V - v_min)}, short of where
    # 2 val overflows.
    val *= 2.0
    if not val > 0.0:
        raise IntegrationError(f"nonpositive norm integral {val!r}")
    if val == math.inf:
        raise IntegrationError("the norm integral overflows float64")
    return -s * v_min + math.log(val)


@_named(_query_context)
def log_norm_laplace(p, query):
    """Two-term Laplace approximation of log h_j at the saddle r_tau.

    Error is O(s^-2) uniformly in j as long as r_tau stays away from 0.
    """
    s = query.s
    r = solve_r_tau(p, query.tau)
    if r == 0.0:
        raise DomainError(
            "the Laplace form needs a positive saddle radius; "
            "use the low-degree form for small j over a disc droplet"
        )
    b, dq = _evaluate(_b1_formula, p, r, None)  # one Laplacian read for both
    dq = _laplacian_at(p, r, dq)
    v = float(v_tau(p, query.tau, r))
    corr = b / s
    if not -1.0 < corr < math.inf:
        raise DomainError(f"the Laplace correction b1/s = {corr!r} at r_tau = {r!r} "
                          "is not in (-1, inf) in float64")
    # log(2 pi r^2 / (s dq)) as a sum of logs: the ratio can underflow to 0
    # (Ginibre scale 1e-100) or overflow while each factor is finite.
    log_ratio = LOG_2PI + 2.0 * math.log(r) - math.log(s) - math.log(dq)
    return -s * v + 0.5 * log_ratio + math.log1p(corr)


@_named(_query_context)
def log_norm_lowdeg(p, query):
    """Factorial form of log h_j for low degrees over a disc droplet.

    log h_j ~ -s q(0) - (j+1) log(s laplacian(0)) + log j!; exact for the
    quadratic profile and accurate while j stays well below the droplet
    scale.  It reads only the origin, and its two reads refuse what has
    no disc there: q_at_zero raises DomainError for MittagLeffler with
    c > 0 and a Custom without q_origin, and the ΔQ(0) read raises
    InvalidPotentialError for MittagLeffler(lam != 1, 0), whose Laplacian
    vanishes or diverges at 0, and a Custom without laplacian_origin.  A
    potential that passes both is a disc: the droplet's inner radius
    solve_r_tau(p, 0) is 0 whenever ΔQ(0) is finite and positive.
    """
    s = query.s
    q0 = p.q_at_zero()
    dq0 = _laplacian_at(p, 0.0)
    return -s * q0 - (query.j + 1) * math.log(s * dq0) + ln_factorial(query.j)

