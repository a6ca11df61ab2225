"""Orthogonal monomial norms for radial weights, exact and asymptotic.

The squared norm of the degree-j monomial with respect to the planar
measure e^{-s q(|z|)} dA(z), dA = d^2z / pi, is

    h_j = 2 * integral of r^(2j+1) e^{-s q(r)} dr over (0, infinity),

with s = n for the determinantal (normal) ensemble and s = 2n for the
symplectic one.  The exact route integrates h_j = 2 * integral of
e^{-s V_tau'(r)} dr, tau' = (j + 1/2)/s, whose saddle r_tau' > 0 at every
degree, shifted by min V_tau' to keep the integrand bounded and truncated
where that exponent is negligible.  The asymptotic routes implement the
two-term Laplace approximation at r_tau, the factorial form valid for low
degrees over a disc droplet, and the gated high-degree form.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .droplet import _droplet, _saddle_laplacian, solve_r_tau
from .equilibrium import b1
from .errors import CoulombGasError, DomainError, IntegrationError, _in_context
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
    tau' of the exact route's e^{-s V_tau'}.
    """

    n: int
    j: int
    ensemble: str = "normal"
    k: int = field(init=False, repr=False)
    s: int = field(init=False, repr=False)
    level: float = field(init=False, repr=False)

    def __post_init__(self):
        k = _check_ensemble(self.ensemble)
        n, j = self.n, self.j
        # ints up to 2^53 pass _check_n and _is_integer as they are
        if type(n) is int and type(j) is int and 0 < n <= 1 << 53:
            s = k * n
            ok = 0 <= j < s
        else:
            n = _check_n(n)
            s = k * n
            ok = _is_integer(j) and 0 <= j <= s - 1
        if not ok:
            raise DomainError(f"degree must be an integer in [0, {s - 1}], got {self.j!r}")
        j = int(j)
        self.__dict__.update(n=n, j=j, k=k, s=s, level=(j + 0.5) / s)

    @property
    def tau(self):
        return self.j / self.s


def _degrees(k, n):
    """The degrees k-1, 2k-1, ..., kn-1 whose norms make up log Z_n."""
    return range(k - 1, k * n, k)


# Relative accuracy of every norm integral whose roundoff floor is lower.
# The exponent s (V_tau'(r) - v_min) is formed by cancellation: V_tau'(r) =
# q(r) - 2 tau' log r carries an ulp of |q| from the profile and one of
# |2 tau' log r| from the log term and the difference, v_min the same two at
# r*.  Near the peak, where the integral's mass lies, the integrand is thus
# off relatively by 4 ulp of s (|q(r*)| + |2 tau' log r*|): the floor.
_REL_TOL = 1e-13
_FLOOR = 4.0 * float(np.finfo(float).eps)


# Initial panel boundaries r* +- k*width: the partition the adaptive rule
# converges to, so most norms need no refinement round.  With
# t = (r - r*)/width the shifted integrand is about e^{-t^2}, because
# s (V_tau' - V_min) ~ 2 s laplacian(r*) (r - r*)^2 = t^2: half-width panels
# cover the bulk out to |t| = 3, unit panels the tail out to |t| = 6, where
# e^{-36} ~ 2e-16 is below every tolerance, and the doubling offsets beyond
# bound the panel widths where the integrand leaves its Gaussian form.
_SEED_OFFSETS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 16.0, 32.0)

# The same cuts in units of width, sorted, r* included: r* + _SEED_T * width
# is bit for bit r* +- k*width, because negating k is exact.
_SEED_T = np.array(sorted({0.0, *_SEED_OFFSETS, *(-k for k in _SEED_OFFSETS)}))


def _peak(p, query):
    """Saddle radius, V minimum, and Gaussian width for the shifted weight."""
    r_star = solve_r_tau(p, query.level)
    v_min = float(_evaluate(_v_tau_formula, p, r_star, query.level))
    width = 1.0 / math.sqrt(2.0 * query.s * _saddle_laplacian(p, r_star))
    return r_star, v_min, width


def _r_cut(p, query, r_star, v_min):
    """Truncation radius: first dyadic point where the shifted exponent
    exceeds 40 + log s, capped at the support radius."""
    s = query.s
    thresh = 40.0 + math.log(s)
    r = max(2.0 * r_star, r_star + 1.0)
    support = p.support_radius
    while r <= 1e300:
        if support is not None and r >= support:
            return support
        if s * (float(_evaluate(_v_tau_formula, p, r, query.level)) - v_min) >= thresh:
            return r
        r *= 2.0
    raise IntegrationError("failed to locate a truncation radius")


def log_norm_exact(p, query):
    """log h_j by shifted adaptive quadrature of 2 e^{-s V_tau'}, tau' = query.level.

    Accuracy target is max(1e-13, 4 s eps (|q(r*)| + |2 tau' log r*|)) on
    the norm value, the larger term being its roundoff floor at the saddle
    r* = r_tau' > 0, and about the same absolute error on the log.  A
    failure re-raises its class with the potential name, n, j and ensemble.
    """
    try:
        return _log_norm_exact(p, query)
    except CoulombGasError as exc:
        detail = (f"n={query.n}", f"j={query.j}", f"ensemble={query.ensemble}")
        raise _in_context(exc, p.name, *detail) from exc


def _log_norm_exact(p, query):
    s = query.s
    level = query.level
    r_star, v_min, width = _peak(p, query)
    cut = _r_cut(p, query, r_star, v_min)
    log_term = 2.0 * level * math.log(r_star)  # q(r*) - v_min
    rel_tol = max(_REL_TOL, _FLOOR * s * (abs(v_min + log_term) + abs(log_term)))

    seeds = r_star + _SEED_T * width  # integrate drops those outside (0, cut)

    def integrand(r):
        # integrate calls this under its own np.errstate, on positive nodes
        # in [0, cut] (none on cut in its first round, where a hard wall's
        # profile is inf or nan); cut is a radius below the support that
        # _r_cut passed through _evaluate's check, or the support radius.
        # So every node passes that check, and the formula runs directly.
        # In place on the formula's fresh array, in the order of
        # 2 exp(-s (V - v_min)), so the bits are that expression's.
        v = _v_tau_formula(p, r, level)
        v -= v_min
        v *= -s
        np.exp(v, out=v)
        v *= 2.0
        return v

    val, _ = integrate(integrand, 0.0, cut, rel_tol=rel_tol, abs_tol=0.0, seeds=seeds)
    if not val > 0.0:
        raise IntegrationError(f"nonpositive norm integral {val!r}")
    return -s * v_min + math.log(val)


def _laplace_value(p, s, tau):
    r = solve_r_tau(p, tau)
    if r == 0.0:
        raise DomainError(
            f"{p.name}: the Laplace form needs a positive saddle radius; "
            "use the low-degree form for small j over a disc droplet"
        )
    dq = _saddle_laplacian(p, r)
    v = float(v_tau(p, tau, r))
    corr = float(b1(p, r)) / s
    if not -1.0 < corr < math.inf:
        raise DomainError(f"{p.name}: the Laplace correction b1/s = {corr!r} at r_tau = {r!r} "
                          "is not in (-1, inf) in float64")
    # log(2 pi r^2 / (s dq)) as a sum of logs: the ratio can underflow to 0
    # (Ginibre scale 1e-100) or overflow while each factor is finite.
    log_ratio = LOG_2PI + 2.0 * math.log(r) - math.log(s) - math.log(dq)
    return -s * v + 0.5 * log_ratio + math.log1p(corr)


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

    Requires a disc droplet and j >= k n^(1/6), k = 2 for the symplectic
    grid, the regime where the saddle is uniformly separated from the
    origin.
    """
    _droplet(p, kind="disc", what="log_norm_highdeg")
    gate = query.k * query.n ** (1.0 / 6.0)
    if query.j < gate:
        raise DomainError(
            f"{p.name}: degree {query.j} below the high-degree gate {gate!r} at n = {query.n}"
        )
    return _laplace_value(p, query.s, query.tau)
