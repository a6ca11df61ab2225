"""Radially symmetric confining potentials and the rotated one-body potential.

A potential is described by its radial profile q(r) = Q(z)|_{|z|=r} together
with derivatives up to fourth order.  The planar Laplacian of Q in the
radial variable is laplacian(r) = (q'(r)/r + q''(r)) / 4, with the
convention that the equilibrium density is 2 r laplacian(r) dr on the
droplet.  All evaluation methods accept scalars or 1-D numpy arrays.

Two hooks hold every formula, as plain arithmetic on floats and arrays:
_profile(r, order) for q and its derivatives and _laplacian(r, order) for
the Laplacian and its first two radial derivatives.  The checked entry
points (q_derivs, the laplacian accessors, v_tau and equilibrium.b1) hold
the one evaluation contract (_evaluate): a scalar gets the inf or nan
that a one-element array gets, and neither warns.

The degree-dependent effective potential for orthogonal-norm asymptotics is
V_tau(r) = q(r) - 2 tau log r, given by one formula (_v_tau_formula).  Its
second derivative enters the routes only as the Laplacian of Q at the
saddle, read from the Laplacian hook.
"""

import math
import numbers
from collections.abc import Iterable

import numpy as np

from .errors import DomainError, UnsupportedOrderError

_EPS = np.finfo(float).eps

# Ensemble names with k (weight e^{-kn q}, log Z over log(k h_j), j = k-1,
# 2k-1, ..., kn-1) and the argument checks shared by every module that takes
# numbers from a caller; underscored so they stay out of the public API.
_ENSEMBLE_K = {"normal": 1, "symplectic": 2}
_ENSEMBLES = tuple(_ENSEMBLE_K)


def _check_ensemble(ensemble):
    """k of the ensemble, 1 for normal and 2 for symplectic: the one map
    from a name to the convention.  Other names raise DomainError."""
    if ensemble not in _ENSEMBLES:
        raise DomainError(f"ensemble must be one of {_ENSEMBLES}, got {ensemble!r}")
    return _ENSEMBLE_K[ensemble]


def _is_real(x):
    """True for finite reals; bools, non-numbers, nan, inf and ints too
    large for a float are not."""
    try:
        if type(x) is float or type(x) is int:  # fast path; type() excludes bool
            return math.isfinite(x)
        return not isinstance(x, bool) and isinstance(x, numbers.Real) and math.isfinite(x)
    except OverflowError:
        return False


def _is_integer(x):
    """True for finite integral reals; bools, nan and inf are not integers."""
    return _is_real(x) and x == int(x)


def _check_n(n):
    """Matrix size n as an int; bools, non-integers, nan and inf raise DomainError."""
    if not _is_integer(n) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    return int(n)


def _check_tau(tau):
    """Rotated degree tau as a float in [0, 1]; bools, non-reals and
    anything else raise DomainError."""
    if not (_is_real(tau) and 0.0 <= tau <= 1.0):
        raise DomainError(f"tau must lie in [0, 1], got {tau!r}")
    return float(tau)


def _check_positive(name, value):
    """Family parameter or tolerance as a float; bools, non-reals, nan, inf
    and values <= 0 raise DomainError."""
    if not (_is_real(value) and value > 0):
        raise DomainError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def _check_nonnegative(name, value):
    """Family parameter as a float; bools, non-reals, nan, inf and values < 0
    raise DomainError."""
    if not (_is_real(value) and value >= 0):
        raise DomainError(f"{name} must be a finite nonnegative number, got {value!r}")
    return float(value)


def _const_like(r, val):
    return np.full_like(r, val) if np.ndim(r) else val


def _log(x):
    """np.log(x); for a Python float, np.log's bits as a Python float (math.log
    rounds differently), and ValueError unless x > 0."""
    if type(x) is float:
        if not x > 0.0:
            raise ValueError(f"log of {x!r}")
        return float(np.log(x))
    return np.log(x)


def _log1p(x):
    """np.log1p(x); for a Python float, np.log1p's bits as a Python float
    (math.log1p rounds differently), and ValueError unless x > -1."""
    if type(x) is float:
        if not x > -1.0:
            raise ValueError(f"log1p of {x!r}")
        return float(np.log1p(x))
    return np.log1p(x)


def _evaluate(formula, p, r, arg):
    """formula(p, r, arg) of potential p, arithmetic in r that works on
    floats and arrays alike, at a checked r: the one evaluation contract of
    the checked entry points.

    r is checked with p._checked first.  An array is computed under
    np.errstate(all="ignore"), a Python float in Python floats, which never
    warn.  Where Python raises instead of giving inf or nan (OverflowError
    from **, ZeroDivisionError, ValueError from _log), the float is
    evaluated again as a one-element array.  Each entry point is a plain
    function of fixed arity that calls this one, so a scalar call builds
    no argument tuple or dict.
    """
    r = p._checked(r)
    if type(r) is float:
        try:
            return formula(p, r, arg)
        except (OverflowError, ZeroDivisionError, ValueError):
            r = np.array([r])
        with np.errstate(all="ignore"):
            return float(np.ravel(formula(p, r, arg))[0])
    with np.errstate(all="ignore"):
        return formula(p, r, arg)


class RadialPotential:
    """Base class: radial profile plus Laplacian data.

    Subclasses implement _profile(r, order) for orders 0..4 as a plain
    formula in a checked r that works on Python floats and numpy arrays;
    the entry points give it the scalar contract (_evaluate).  The
    Laplacian hook _laplacian(r, order), orders 0..2, has the same contract.
    Its default is the generic formula in terms of the profile, which Custom
    uses; the closed-form families override the hook (never the checked
    laplacian accessors), as they override r_tau, and dilate scales its
    base's hook.
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
        """r as a float (no numpy call) or a nonempty array (its min and max
        propagate NaN), checked once: finite, positive, within the support."""
        if isinstance(r, float):
            lo = hi = r = float(r)
        else:
            arr = np.asarray(r, dtype=float)
            if arr.size == 0:
                raise DomainError("empty evaluation point array")
            lo = arr.min()
            hi = arr.max()
            r = arr if arr.ndim else float(arr)
        if not (0.0 < lo and hi < math.inf):
            raise DomainError("evaluation points must be finite and positive")
        if self.support_radius is not None and hi > self.support_radius * (1.0 + 1e-12):
            raise DomainError(
                f"evaluation point beyond the support radius {self.support_radius!r}"
            )
        return r

    def _laplacian(self, r, order):
        """d^order/dr^order of the Laplacian (q'/r + q'')/4, order in 0..2,
        from the profile, nested around q'' - q'/r = r (q'/r)' so that the
        cancellation it carries is taken first: for q = r^2 it is exactly 0."""
        q1 = self._profile(r, 1)
        q2 = self._profile(r, 2)
        if order == 0:
            return (q1 / r + q2) / 4.0
        q3 = self._profile(r, 3)
        if order == 1:
            return (q3 + (q2 - q1 / r) / r) / 4.0
        q4 = self._profile(r, 4)
        return (q4 + (q3 - 2.0 * (q2 - q1 / r) / r) / r) / 4.0

    def q_derivs(self, r, order=0):
        """Radial profile derivative d^order q / dr^order, order in 0..4;
        any other order raises UnsupportedOrderError."""
        if order not in (0, 1, 2, 3, 4):
            raise UnsupportedOrderError(f"derivative order {order!r} not in 0..4")
        return _evaluate(type(self)._profile, self, r, order)

    def laplacian(self, r):
        """Planar Laplacian of Q at radius r: (q'/r + q'')/4."""
        return _evaluate(type(self)._laplacian, self, r, 0)

    def laplacian_dr(self, r):
        """Radial derivative of the Laplacian."""
        return _evaluate(type(self)._laplacian, self, r, 1)

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
        # scale^2 underflows to 0 below scale ~1e-162; 1 / scale^2 is then
        # inf, so no formula of a Python float divides by 0.
        self._s2 = scale * scale
        self._inv_s2 = 1.0 / self._s2 if self._s2 else math.inf
        self.name = f"ginibre(scale={scale!r})"

    def r_tau(self, tau):
        return self.scale * math.sqrt(tau)

    def _profile(self, r, order):
        s2 = self._s2
        if order == 0:
            return r * r / s2
        if order == 1:
            return 2.0 * r / s2
        if order == 2:
            return _const_like(r, 2.0 * self._inv_s2)
        return _const_like(r, 0.0)

    def _laplacian(self, r, order):
        if order == 0:
            return _const_like(r, self._inv_s2)
        return _const_like(r, 0.0)

    def q_at_zero(self):
        return 0.0

    def laplacian_at_zero(self):
        return self._inv_s2


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
        self._lam2 = _pow_or_inf(lam, 2)  # inf from lam ~1.4e154, where ** raises
        self.name = f"ml(lam={lam!r}, c={c!r})"

    def r_tau(self, tau):
        return ((tau + self.c) / self.lam) ** (1.0 / (2.0 * self.lam))

    def _profile(self, r, order):
        lam = self.lam
        c = self.c
        if order == 0:
            return r ** (2.0 * lam) - 2.0 * c * _log(r)
        if order == 1:
            return 2.0 * lam * r ** (2.0 * lam - 1.0) - 2.0 * c / r
        if order == 2:
            return 2.0 * lam * (2.0 * lam - 1.0) * r ** (2.0 * lam - 2.0) + 2.0 * c / r**2
        if order == 3:
            coef = 2.0 * lam * (2.0 * lam - 1.0) * (2.0 * lam - 2.0)
            return coef * r ** (2.0 * lam - 3.0) - 4.0 * c / r**3
        coef = 2.0 * lam * (2.0 * lam - 1.0) * (2.0 * lam - 2.0) * (2.0 * lam - 3.0)
        return coef * r ** (2.0 * lam - 4.0) + 12.0 * c / r**4

    def _laplacian(self, r, order):
        if order == 0:
            return self._lam2 * r ** (2.0 * self.lam - 2.0)
        if order == 1:
            return self._lam2 * (2.0 * self.lam - 2.0) * r ** (2.0 * self.lam - 3.0)
        coef = self._lam2 * (2.0 * self.lam - 2.0) * (2.0 * self.lam - 3.0)
        return coef * r ** (2.0 * self.lam - 4.0)

    def q_at_zero(self):
        if self.c > 0.0:
            raise DomainError(f"{self.name}: q diverges at the origin when c > 0")
        return 0.0

    def laplacian_at_zero(self):
        if self.c > 0.0 or self.lam != 1.0:
            raise DomainError(f"{self.name}: the Laplacian has no positive finite limit at 0")
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
        if order == 0:
            # log1p of -r^2/beta carries no cancellation, which
            # log(beta) - log(beta - r^2) does near the wall.
            return -a * _log1p(r * r / -b)
        d = b - r * r
        if order == 1:
            return 2.0 * a * r / d
        if order == 2:
            return 2.0 * a * (b + r * r) / d**2
        if order == 3:
            return 4.0 * a * r * (3.0 * b + r * r) / d**3
        return 12.0 * a * (b + r * r) / d**3 + 24.0 * a * r * r * (3.0 * b + r * r) / d**4

    def _laplacian(self, r, order):
        if order == 0:
            return self.alpha * self.beta / (self.beta - r * r) ** 2
        if order == 1:
            return 4.0 * self.alpha * self.beta * r / (self.beta - r * r) ** 3
        d = self.beta - r * r
        return 4.0 * self.alpha * self.beta * (d + 6.0 * r * r) / d**4

    def q_at_zero(self):
        return 0.0

    def laplacian_at_zero(self):
        # beta = R^2 (1 + alpha) underflows to 0 below R ~1e-162
        return self.alpha / self.beta if self.beta else math.inf


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


class Custom(RadialPotential):
    """User-supplied radial profile, optionally with analytic derivatives.

    q must be callable, and derivs, when given, an iterable of exactly
    four callables for q', q'', q''', q''''; anything else raises
    DomainError.  Without derivs, derivatives fall back to fourth-order
    central differences with step h = max(r, 1) * eps^(1/6), shrunk near
    the origin so stencil points stay positive.  The callables receive
    Python floats and 1-D float arrays; wrap one that only accepts scalars
    as np.vectorize(f, otypes=[float]).  Scalar results are taken as Python
    floats, and numpy calls a callable makes on a Python float follow
    numpy's own error settings.  q_origin, when given, must be a finite
    real and laplacian_origin a finite positive real; anything else raises
    DomainError.  Each of these messages starts with "name: ".
    """

    def __init__(self, q, derivs=None, support_radius=None, q_origin=None,
                 laplacian_origin=None, name="custom"):
        if not callable(q):
            raise DomainError(f"{name}: q must be callable, got {q!r}")
        if derivs is not None:
            given = derivs
            derivs = list(given) if isinstance(given, Iterable) else []
            if len(derivs) != 4 or not all(map(callable, derivs)):
                raise DomainError(
                    f"{name}: derivs must supply exactly four callables (q' .. q''''), "
                    f"got {given!r}"
                )
        self._q = q
        self._derivs = derivs
        if support_radius is not None:
            support_radius = _check_positive(f"{name}: support_radius", support_radius)
        self.support_radius = support_radius
        if q_origin is not None:
            if not _is_real(q_origin):
                raise DomainError(
                    f"{name}: q_origin must be a finite real number, got {q_origin!r}"
                )
            q_origin = float(q_origin)
        if laplacian_origin is not None:
            laplacian_origin = _check_positive(f"{name}: laplacian_origin", laplacian_origin)
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
        # q itself at each point, a Python float for a float r as in _profile
        q = self._q
        scalar = type(r) is float
        acc = 0.0
        for off, coef in _FD_STENCILS[order]:
            v = q(r + off * h)
            acc = acc + coef * (float(v) if scalar else v)
        return acc / h**order

    def _profile(self, r, order):
        if order and self._derivs is None:
            return self._fd(r, order)
        v = self._derivs[order - 1](r) if order else self._q(r)
        return float(v) if type(r) is float else v  # numpy scalars stay out

    def q_at_zero(self):
        if self._q_origin is None:
            raise DomainError(f"{self.name}: no origin value supplied")
        return self._q_origin

    def laplacian_at_zero(self):
        if self._laplacian_origin is None:
            raise DomainError(f"{self.name}: no origin Laplacian supplied")
        return self._laplacian_origin


def _pow_or_inf(x, k):
    try:
        return x**k
    except OverflowError:
        return math.inf


class _Dilated(RadialPotential):
    """Profile of z -> Q(z / a): q_a(r) = q(r / a)."""

    def __init__(self, base, a):
        self._base = base
        self._a = a
        # a**k, k = 0..4, inf where it overflows: huge a gives 0, not an error
        self._a_pow = tuple(_pow_or_inf(a, k) for k in range(5))
        if base.support_radius is not None:
            self.support_radius = base.support_radius * a
        self.name = f"dilated({base.name}, a={a!r})"

    def _base_r(self, r):
        x = r / self._a
        # r is finite and positive, so x can only underflow to 0 (a > 1) or
        # overflow to inf (a < 1); the base formula never sees either.
        edge = x if type(x) is float else (x.min() if self._a > 1.0 else x.max())
        if not 0.0 < edge < math.inf:
            raise DomainError(f"{self.name}: r / a = {float(edge)!r} leaves (0, inf)")
        return x

    def _profile(self, r, order):
        return self._base._profile(self._base_r(r), order) / self._a_pow[order]

    def _laplacian(self, r, order):
        # laplacian_a(r) = laplacian(r / a) / a^2, and each r-derivative
        # adds 1 / a.  The base's own hook keeps a closed form closed: the
        # generic formula would turn |z / a|^2's zero derivatives into noise.
        return self._base._laplacian(self._base_r(r), order) / self._a_pow[order + 2]

    def r_tau(self, tau):
        r = self._base.r_tau(tau)
        return None if r is None else self._a * r

    def q_at_zero(self):
        return self._base.q_at_zero()

    def laplacian_at_zero(self):
        dq0 = self._base.laplacian_at_zero()
        return dq0 / self._a_pow[2] if self._a_pow[2] else math.inf  # a^2 underflows to 0


def dilate(p, a):
    """Return the potential r -> q(r / a) for a dilation factor a > 0."""
    return _Dilated(p, _check_positive("dilation factor", a))


def v_tau(p, tau, r):
    """Effective potential V_tau(r) = q(r) - 2 tau log r.

    tau is a float in [0, 1]; a caller holding a norms.NormQuery passes
    query.tau.
    """
    return _evaluate(_v_tau_formula, p, r, _check_tau(tau))


def _v_tau_formula(p, rr, t):
    """V_tau at a checked t = tau: v_tau, _peak and _r_cut run it through
    _evaluate, and the norm integrand on node arrays whose domain integrate
    and the norm's cut already prove."""
    return p._profile(rr, 0) - 2.0 * t * _log(rr)
