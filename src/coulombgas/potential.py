"""Radially symmetric confining potentials and the rotated one-body potential.

A potential is described by its radial profile q(r) = Q(z)|_{|z|=r} together
with derivatives up to fourth order.  The planar Laplacian of Q in the
radial variable is laplacian(r) = (q'(r)/r + q''(r)) / 4, with the
convention that the equilibrium density is 2 r laplacian(r) dr on the
droplet.  All evaluation methods accept scalars or 1-D numpy arrays.

The degree-dependent effective potential for orthogonal-norm asymptotics is
V_tau(r) = q(r) - 2 tau log r; v_tau evaluates it and its first four radial
derivatives using the exact identities that express V'' through the
Laplacian of Q.
"""

import math
import numbers

import numpy as np

from .errors import DomainError, UnsupportedOrderError

_EPS = np.finfo(float).eps

# Ensemble names and the argument checks shared by potentials, droplet,
# norms, partition and oracles; underscored so they stay out of the public
# API.
_ENSEMBLES = ("normal", "symplectic")


def _check_ensemble(ensemble):
    if ensemble not in _ENSEMBLES:
        raise DomainError(f"ensemble must be one of {_ENSEMBLES}, got {ensemble!r}")


def _is_integer(x):
    """True for finite integral reals; bools, nan and inf are not integers."""
    return (not isinstance(x, bool) and isinstance(x, numbers.Real)
            and math.isfinite(x) and x == int(x))


def _check_n(n):
    """Matrix size n as an int; bools, non-integers, nan and inf raise DomainError."""
    if not _is_integer(n) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    return int(n)


def _check_tau(tau):
    """Rotated degree tau as a float in [0, 1]; anything else raises DomainError."""
    t = float(tau)
    if not (math.isfinite(t) and 0.0 <= t <= 1.0):
        raise DomainError(f"tau must lie in [0, 1], got {tau!r}")
    return t


def _check_positive(name, value):
    """Family parameter as a float; nan, inf and values <= 0 raise DomainError."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive, got {value!r}")
    return value


def _check_nonnegative(name, value):
    """Family parameter as a float; nan, inf and values < 0 raise DomainError."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise DomainError(f"{name} must be nonnegative, got {value!r}")
    return value


def _check_rel_tol(rel_tol):
    """Quadrature tolerance as a float; bools, nan, inf and values <= 0 raise
    DomainError."""
    if (isinstance(rel_tol, bool) or not isinstance(rel_tol, numbers.Real)
            or not math.isfinite(rel_tol) or rel_tol <= 0):
        raise DomainError(f"rel_tol must be a finite positive number, got {rel_tol!r}")
    return float(rel_tol)


def _const_like(r, val):
    return np.full_like(r, val) if np.ndim(r) else val


class RadialPotential:
    """Base class: radial profile plus Laplacian data.

    Subclasses implement _profile(r, order) for orders 0..4 without argument
    checking; vectorization over numpy arrays is required.  The Laplacian
    accessors have generic implementations in terms of the profile, which
    concrete potentials override with closed forms, as they do r_tau.
    """

    name = "potential"
    support_radius = None

    def _profile(self, r, order):
        raise NotImplementedError

    def r_tau(self, tau):
        """Closed-form root of r q'(r) = 2 tau for a validated tau in [0, 1],
        or None when there is none (droplet.solve_r_tau then runs a
        safeguarded Newton iteration)."""
        return None

    def _checked(self, r):
        if isinstance(r, float):
            # Scalar fast path: the array checks below without numpy reductions.
            if not 0.0 < r < math.inf:
                raise DomainError("evaluation points must be finite and positive")
            if self.support_radius is not None and r > self.support_radius * (1.0 + 1e-12):
                raise DomainError(
                    f"evaluation point beyond the support radius {self.support_radius!r}"
                )
            return float(r)
        arr = np.asarray(r, dtype=float)
        if arr.size == 0:
            raise DomainError("empty evaluation point array")
        # min and max propagate NaN, so one of each covers every check.
        lo = arr.min()
        hi = arr.max()
        if not (0.0 < lo and hi < math.inf):
            raise DomainError("evaluation points must be finite and positive")
        if self.support_radius is not None and hi > self.support_radius * (1.0 + 1e-12):
            raise DomainError(
                f"evaluation point beyond the support radius {self.support_radius!r}"
            )
        return arr if arr.ndim else float(arr)

    def q_derivs(self, r, order=0):
        """Radial profile derivative d^order q / dr^order, order in 0..4."""
        if order not in (0, 1, 2, 3, 4):
            raise UnsupportedOrderError(f"derivative order {order!r} not in 0..4")
        return self._profile(self._checked(r), order)

    def laplacian(self, r):
        """Planar Laplacian of Q at radius r: (q'/r + q'')/4."""
        r = self._checked(r)
        return (self._profile(r, 1) / r + self._profile(r, 2)) / 4.0

    def laplacian_dr(self, r):
        """Radial derivative of the Laplacian."""
        r = self._checked(r)
        q1 = self._profile(r, 1)
        q2 = self._profile(r, 2)
        q3 = self._profile(r, 3)
        return (q3 + q2 / r - q1 / (r * r)) / 4.0

    def laplacian_dr2(self, r):
        """Second radial derivative of the Laplacian."""
        r = self._checked(r)
        q1 = self._profile(r, 1)
        q2 = self._profile(r, 2)
        q3 = self._profile(r, 3)
        q4 = self._profile(r, 4)
        return (q4 + q3 / r - 2.0 * q2 / (r * r) + 2.0 * q1 / (r * r * r)) / 4.0

    def q_at_zero(self):
        """q(0) when the profile extends continuously to the origin."""
        raise DomainError(f"{self.name}: q is not defined at the origin")

    def laplacian_at_zero(self):
        """Limit of the Laplacian at the origin, when finite and positive."""
        raise DomainError(f"{self.name}: the Laplacian has no positive limit at 0")


class Ginibre(RadialPotential):
    """Quadratic confinement q(r) = (r / scale)^2."""

    def __init__(self, scale=1.0):
        scale = _check_positive("scale", scale)
        self.scale = scale
        self.name = f"ginibre(scale={scale!r})"

    def r_tau(self, tau):
        return self.scale * math.sqrt(tau)

    def _profile(self, r, order):
        s2 = self.scale * self.scale
        if order == 0:
            return r * r / s2
        if order == 1:
            return 2.0 * r / s2
        if order == 2:
            return _const_like(r, 2.0 / s2)
        return _const_like(r, 0.0)

    def laplacian(self, r):
        r = self._checked(r)
        return _const_like(r, 1.0 / (self.scale * self.scale))

    def laplacian_dr(self, r):
        r = self._checked(r)
        return _const_like(r, 0.0)

    def laplacian_dr2(self, r):
        r = self._checked(r)
        return _const_like(r, 0.0)

    def q_at_zero(self):
        return 0.0

    def laplacian_at_zero(self):
        return 1.0 / (self.scale * self.scale)


class MittagLeffler(RadialPotential):
    """Power-log confinement q(r) = r^(2 lam) - 2 c log r.

    c > 0 produces an annular droplet; c = 0 degenerates to the pure power
    case whose droplet is a disc (and coincides with Ginibre when lam = 1).
    """

    def __init__(self, lam, c):
        lam = _check_positive("lam", lam)
        c = _check_nonnegative("c", c)
        self.lam = lam
        self.c = c
        self.name = f"ml(lam={lam!r}, c={c!r})"

    def r_tau(self, tau):
        return ((tau + self.c) / self.lam) ** (1.0 / (2.0 * self.lam))

    def _profile(self, r, order):
        lam = self.lam
        c = self.c
        with np.errstate(all="ignore"):
            if order == 0:
                return r ** (2.0 * lam) - 2.0 * c * np.log(r)
            if order == 1:
                return 2.0 * lam * r ** (2.0 * lam - 1.0) - 2.0 * c / r
            if order == 2:
                return 2.0 * lam * (2.0 * lam - 1.0) * r ** (2.0 * lam - 2.0) + 2.0 * c / r**2
            if order == 3:
                coef = 2.0 * lam * (2.0 * lam - 1.0) * (2.0 * lam - 2.0)
                return coef * r ** (2.0 * lam - 3.0) - 4.0 * c / r**3
            coef = 2.0 * lam * (2.0 * lam - 1.0) * (2.0 * lam - 2.0) * (2.0 * lam - 3.0)
            return coef * r ** (2.0 * lam - 4.0) + 12.0 * c / r**4

    def laplacian(self, r):
        r = self._checked(r)
        with np.errstate(all="ignore"):
            return self.lam**2 * r ** (2.0 * self.lam - 2.0)

    def laplacian_dr(self, r):
        r = self._checked(r)
        with np.errstate(all="ignore"):
            return self.lam**2 * (2.0 * self.lam - 2.0) * r ** (2.0 * self.lam - 3.0)

    def laplacian_dr2(self, r):
        r = self._checked(r)
        with np.errstate(all="ignore"):
            coef = self.lam**2 * (2.0 * self.lam - 2.0) * (2.0 * self.lam - 3.0)
            return coef * r ** (2.0 * self.lam - 4.0)

    def q_at_zero(self):
        if self.c > 0.0:
            raise DomainError("q diverges at the origin when c > 0")
        return 0.0

    def laplacian_at_zero(self):
        if self.c > 0.0 or self.lam != 1.0:
            raise DomainError("the Laplacian has no positive finite limit at 0")
        return 1.0


class TruncatedUnitary(RadialPotential):
    """Logarithmic hard-wall confinement q(r) = -alpha log(1 - r^2 / beta).

    beta = R^2 (1 + alpha); the profile blows up at the finite support
    radius sqrt(beta) and the droplet is the disc of radius R.
    """

    def __init__(self, alpha, R=1.0):
        alpha = _check_positive("alpha", alpha)
        R = _check_positive("R", R)
        self.alpha = alpha
        self.R = R
        self.beta = R * R * (1.0 + alpha)
        self.support_radius = math.sqrt(self.beta)
        self.name = f"tu(alpha={alpha!r}, R={R!r})"

    def r_tau(self, tau):
        return math.sqrt(tau * self.beta / (self.alpha + tau))

    def _profile(self, r, order):
        a = self.alpha
        b = self.beta
        with np.errstate(all="ignore"):
            d = b - r * r
            if order == 0:
                return a * (np.log(b) - np.log(d))
            if order == 1:
                return 2.0 * a * r / d
            if order == 2:
                return 2.0 * a * (b + r * r) / d**2
            if order == 3:
                return 4.0 * a * r * (3.0 * b + r * r) / d**3
            return 12.0 * a * (b + r * r) / d**3 + 24.0 * a * r * r * (3.0 * b + r * r) / d**4

    def laplacian(self, r):
        r = self._checked(r)
        with np.errstate(all="ignore"):
            return self.alpha * self.beta / (self.beta - r * r) ** 2

    def laplacian_dr(self, r):
        r = self._checked(r)
        with np.errstate(all="ignore"):
            return 4.0 * self.alpha * self.beta * r / (self.beta - r * r) ** 3

    def laplacian_dr2(self, r):
        r = self._checked(r)
        with np.errstate(all="ignore"):
            d = self.beta - r * r
            return 4.0 * self.alpha * self.beta * (d + 6.0 * r * r) / d**4

    def q_at_zero(self):
        return 0.0

    def laplacian_at_zero(self):
        return self.alpha / self.beta


# Finite-difference step relative to max(r, 1).
_FD_STEP = float(_EPS ** (1.0 / 6.0))

# Fourth-order central difference stencils (offset -> coefficient), divided
# by h^order at evaluation time.
_FD_STENCILS = {
    1: ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0)),
    2: ((-2, -1.0 / 12.0), (-1, 16.0 / 12.0), (0, -30.0 / 12.0), (1, 16.0 / 12.0), (2, -1.0 / 12.0)),
    3: ((-3, 1.0 / 8.0), (-2, -1.0), (-1, 13.0 / 8.0), (1, -13.0 / 8.0), (2, 1.0), (3, -1.0 / 8.0)),
    4: ((-3, -1.0 / 6.0), (-2, 2.0), (-1, -13.0 / 2.0), (0, 28.0 / 3.0), (1, -13.0 / 2.0), (2, 2.0), (3, -1.0 / 6.0)),
}


def _call_user(fn, r):
    """fn(r) for a user callable.  Python floats raise OverflowError where
    numpy float64, as on the array path, gives inf, so a scalar that
    overflows is evaluated again as a float64."""
    try:
        return fn(r)
    except OverflowError:
        if not isinstance(r, float):
            raise
        with np.errstate(over="ignore"):
            return fn(np.float64(r))


class Custom(RadialPotential):
    """User-supplied radial profile, optionally with analytic derivatives.

    When derivs (a sequence of callables for q', q'', q''', q'''') is not
    given, derivatives fall back to fourth-order central differences with
    step h = max(r, 1) * eps^(1/6), shrunk near the origin so stencil
    points stay positive.  Pass vectorized=False for callables that only
    accept scalars.
    """

    def __init__(self, q, derivs=None, support_radius=None, q_origin=None,
                 laplacian_origin=None, vectorized=True, name="custom"):
        if derivs is not None and len(derivs) != 4:
            raise DomainError("derivs must supply exactly four callables (q' .. q'''')")
        if not vectorized:
            q = np.vectorize(q, otypes=[float])
            if derivs is not None:
                derivs = [np.vectorize(d, otypes=[float]) for d in derivs]
        self._q = q
        self._derivs = list(derivs) if derivs is not None else None
        if support_radius is not None:
            support_radius = _check_positive("support_radius", support_radius)
        self.support_radius = support_radius
        self._q_origin = q_origin
        self._laplacian_origin = laplacian_origin
        self.name = name

    def _fd(self, r, order):
        reach = _FD_STENCILS[order][-1][0]  # offsets are listed in increasing order
        if isinstance(r, float):
            # Scalar path: the same arithmetic without numpy calls on scalars.
            h = min(max(r, 1.0) * _FD_STEP, r / (reach + 1.0))
        else:
            h = np.minimum(np.maximum(r, 1.0) * _FD_STEP, r / (reach + 1.0))
        acc = 0.0
        for off, coef in _FD_STENCILS[order]:
            acc = acc + coef * _call_user(self._q, r + off * h)
        return acc / h**order

    def _profile(self, r, order):
        if order == 0:
            return _call_user(self._q, r)
        if self._derivs is not None:
            return _call_user(self._derivs[order - 1], r)
        return self._fd(r, order)

    def q_at_zero(self):
        if self._q_origin is None:
            raise DomainError(f"{self.name}: no origin value supplied")
        return float(self._q_origin)

    def laplacian_at_zero(self):
        if self._laplacian_origin is None:
            raise DomainError(f"{self.name}: no origin Laplacian supplied")
        val = float(self._laplacian_origin)
        if not val > 0.0:
            raise DomainError(f"{self.name}: origin Laplacian must be positive")
        return val


class _Dilated(RadialPotential):
    """Profile of z -> Q(z / a): q_a(r) = q(r / a)."""

    def __init__(self, base, a):
        self._base = base
        self._a = a
        if base.support_radius is not None:
            self.support_radius = base.support_radius * a
        self.name = f"dilated({base.name}, a={a!r})"

    def _profile(self, r, order):
        return self._base._profile(r / self._a, order) / self._a**order

    def r_tau(self, tau):
        r = self._base.r_tau(tau)
        return None if r is None else self._a * r

    def q_at_zero(self):
        return self._base.q_at_zero()

    def laplacian_at_zero(self):
        return self._base.laplacian_at_zero() / self._a**2


def dilate(p, a):
    """Return the potential r -> q(r / a) for a dilation factor a > 0."""
    return _Dilated(p, _check_positive("dilation factor", a))


def v_tau(p, tau, r, order=0):
    """Effective potential V_tau(r) = q(r) - 2 tau log r and derivatives.

    tau is a float in [0, 1]; a caller holding a norms.NormQuery passes
    query.tau.  r is checked once.  Orders 2..4 are assembled from the
    Laplacian of Q through V'' = 4 laplacian - V'/r, which keeps them exact
    for potentials whose Laplacian is known in closed form.
    """
    t = _check_tau(tau)
    if order not in (0, 1, 2, 3, 4):
        raise UnsupportedOrderError(f"derivative order {order!r} not in 0..4")
    rr = p._checked(r)
    if order == 0:
        return p._profile(rr, 0) - 2.0 * t * np.log(rr)
    v1 = p._profile(rr, 1) - 2.0 * t / rr
    if order == 1:
        return v1
    if order == 2:
        return 4.0 * p.laplacian(rr) - v1 / rr
    if order == 3:
        return 4.0 * p.laplacian_dr(rr) - 4.0 * p.laplacian(rr) / rr + 2.0 * v1 / rr**2
    return (
        4.0 * p.laplacian_dr2(rr)
        - 4.0 * p.laplacian_dr(rr) / rr
        + 12.0 * p.laplacian(rr) / rr**2
        - 6.0 * v1 / rr**3
    )
