"""Radially symmetric confining potentials and the rotated one-body potential.

A potential is described by its radial profile q(r) = Q(z)|_{|z|=r} together
with derivatives up to fourth order.  The planar Laplacian of Q in the
radial variable is laplacian(r) = (q'(r)/r + q''(r)) / 4, with the
convention that the equilibrium density is 2 r laplacian(r) dr on the
droplet.  All evaluation methods accept real scalars (not bools) or 1-D
arrays of int or float dtype.

Three hooks hold every formula, as numpy arithmetic on float64 arrays:
_profile(r, order) for q and its derivatives (_profiles(r, orders) reads
several of the orders 1..4 at once, with the same bits), _laplacian(r,
orders) for the Laplacian and its first two radial derivatives, as many
as asked for from one read, and _q_magnitude(r, q) for the sum of the
magnitudes of q's terms, the scale of q's rounding that sets the exact
norms' accuracy floor.  The checked entry points (q_derivs, the
laplacian accessors, v_tau and equilibrium.b1) hold the one evaluation
contract (_evaluate): a scalar is a one-element array, bit for bit, so
it gets the inf or nan that the array gets, and neither warns.

The degree-dependent effective potential for orthogonal-norm asymptotics is
V_tau(r) = q(r) - 2 tau log r, given by one formula (_v_tau_formula).  Its
second derivative enters the routes only as the Laplacian of Q at the
saddle, read from the Laplacian hook.
"""

import cmath
import math
import numbers
from collections.abc import Iterable

import numpy as np

from .errors import DomainError, UnsupportedOrderError, _named, _short_repr

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
        raise DomainError(f"n must be a positive integer, got {_short_repr(n)}")
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


@np.errstate(all="ignore")
def _evaluate(formula, p, r, arg):
    """formula(p, r, arg) of potential p at a checked r: the one evaluation
    contract of the checked entry points, and their one arithmetic path.

    p._checked(r) gives r as a float64 array, a scalar as a one-element
    array, and the formula runs on it under np.errstate(all="ignore"), so
    it gives inf or nan where float64 does and never warns.  A scalar gets
    the one element back as a Python float, bit for bit what the
    one-element array gets; a formula that returns a tuple (the _profiles
    and _laplacian hooks) then gives a tuple of floats.  Each entry point
    is a plain function of fixed arity that calls this one, so a scalar
    call builds no argument tuple or dict.
    """
    v = formula(p, p._checked(r), arg)
    if type(r) is not float and np.ndim(r):
        return v
    if type(v) is tuple:
        return tuple([_first(y) for y in v])
    return _first(v)


def _first(v):
    """A scalar read's value (an array, or a Custom's real number) as a float."""
    return float(v.item(0) if type(v) is np.ndarray else v)


class RadialPotential:
    """Base class: radial profile plus Laplacian data.

    Subclasses implement _profile(r, order) for orders 0..4 as a plain
    formula in a checked float64 array r; the entry points hand a scalar
    in as a one-element array (_evaluate).  The hook
    _profiles(r, orders) gives several of the orders 1..4 at once, each
    with _profile's bits; a Custom without derivs reads every order there
    from one circle of q values (Custom._cauchy), and dilate forwards its
    base's.  The Laplacian hook _laplacian(r, orders) has the same contract
    and shape: a tuple of the orders asked for, in 0..2, each with the
    bits of a read of that order alone.  Its default is the generic
    formula in terms of the profile, which Custom uses; the closed-form
    families override the hook (never the checked laplacian accessors), as
    they override r_tau, and dilate scales its base's hook.  The magnitude
    hook _q_magnitude(r, q) defaults to |q|; MittagLeffler, whose two terms
    can cancel, overrides it, and dilate forwards its base's.
    """

    name = "potential"
    support_radius = None

    def _profile(self, r, order):
        raise NotImplementedError

    def _profiles(self, r, orders):
        """(_profile(r, k) for k in orders) as a tuple, orders in 1..4, each
        with the bits of its own _profile call."""
        return tuple([self._profile(r, k) for k in orders])

    def _q_magnitude(self, r, q):
        """Sum of the absolute values of q's terms at r, given q = q(r): the
        magnitude the rounding of q scales with, which can exceed |q| where
        terms cancel.  The default |q| is exact for a single-term q."""
        return abs(q)

    def r_tau(self, tau):
        """Closed-form root of r q'(r) = 2 tau for a validated tau in [0, 1],
        or None when there is none (droplet.solve_r_tau then runs a
        safeguarded Newton iteration)."""
        return None

    def _checked(self, r):
        """r as a nonempty float64 array, a scalar (a real that is not a bool,
        or a 0-d array) as a one-element 1-D array, checked once (an array's
        min and max propagate NaN): of int or float dtype, finite, positive,
        within the support.  Anything else (bools, strings, complex numbers)
        raises DomainError."""
        if type(r) is float or isinstance(r, numbers.Real) and not isinstance(r, bool):
            lo = hi = float(r) if _is_real(r) else math.inf  # nan, inf or beyond float64
            arr = np.array([lo])
        else:
            try:
                arr = np.asarray(r)
                real = arr.dtype.kind in "fiu"
            except ValueError:  # a ragged nesting has no shape
                real = False
            if not real:
                raise DomainError(f"evaluation points must be real numbers, got {r!r}")
            arr = arr.astype(float, copy=False)
            if arr.size == 0:
                raise DomainError("empty evaluation point array")
            if not arr.ndim:
                arr = arr.reshape(1)
            lo = arr.min()
            hi = arr.max()
        if not (0.0 < lo and hi < math.inf):
            raise DomainError("evaluation points must be finite and positive")
        if self.support_radius is not None and hi > self.support_radius * (1.0 + 1e-12):
            raise DomainError(
                f"evaluation point beyond the support radius {self.support_radius!r}"
            )
        return arr

    def _laplacian(self, r, orders):
        """(d^k/dr^k of the Laplacian (q'/r + q'')/4 for k in orders) as a
        tuple, orders in 0..2, from one _profiles read of q' .. q^(max + 2).
        With s_k = r (q'/r)^(k): s_0 = q', s_k = q^(k+1) - k s_(k-1) / r and
        the k-th derivative is (q^(k+2) + s_k / r) / 4, so the cancellation
        s_1 = q'' - q'/r carries is taken first: for q = r^2 it is exactly 0."""
        q = (None,) + self._profiles(r, (1, 2, 3, 4)[:max(orders) + 2])
        s = [q[1]]
        for k in range(1, max(orders) + 1):
            s.append(q[k + 1] - k * s[k - 1] / r)
        return tuple([(q[k + 2] + s[k] / r) / 4.0 for k in orders])

    def q_derivs(self, r, order=0):
        """Radial profile derivative d^order q / dr^order, order in 0..4;
        any other order raises UnsupportedOrderError."""
        if order not in (0, 1, 2, 3, 4):
            raise UnsupportedOrderError(f"derivative order {order!r} not in 0..4")
        return _evaluate(type(self)._profile, self, r, order)

    def _q_derivs_each(self, r, orders):
        """(q_derivs(r, k) for k in orders), bit for bit, from one checked
        evaluation of the _profiles hook; orders is a tuple of ints in
        1..4."""
        return _evaluate(type(self)._profiles, self, r, orders)

    def laplacian(self, r):
        """Planar Laplacian of Q at radius r: (q'/r + q'')/4."""
        return _evaluate(type(self)._laplacian, self, r, (0,))[0]

    def laplacian_dr(self, r):
        """Radial derivative of the Laplacian."""
        return _evaluate(type(self)._laplacian, self, r, (1,))[0]

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
        # inf, not a ZeroDivisionError.
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
            return np.full_like(r, 2.0 * self._inv_s2)
        return np.zeros_like(r)

    def _laplacian(self, r, orders):
        return tuple([np.full_like(r, 0.0 if k else self._inv_s2) for k in orders])

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
        lam2 = _pow_or_inf(lam, 2)  # inf from lam ~1.4e154, where ** raises
        # ΔQ^(k) = coef_k r^(2 lam - 2 - k), k = 0..2
        self._lap_coef = (lam2, lam2 * (2.0 * lam - 2.0),
                          lam2 * (2.0 * lam - 2.0) * (2.0 * lam - 3.0))
        self.name = f"ml(lam={lam!r}, c={c!r})"

    def r_tau(self, tau):
        return ((tau + self.c) / self.lam) ** (1.0 / (2.0 * self.lam))

    def _profile(self, r, order):
        lam = self.lam
        c = self.c
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

    def _q_magnitude(self, r, q):
        return r ** (2.0 * self.lam) + 2.0 * self.c * abs(np.log(r))

    def _laplacian(self, r, orders):
        coef = self._lap_coef
        return tuple([coef[k] * r ** (2.0 * self.lam - (2.0 + k)) for k in orders])

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
            return -a * np.log1p(r * r / -b)
        d = b - r * r
        if order == 1:
            return 2.0 * a * r / d
        if order == 2:
            return 2.0 * a * (b + r * r) / d**2
        if order == 3:
            return 4.0 * a * r * (3.0 * b + r * r) / d**3
        return 12.0 * a * (b + r * r) / d**3 + 24.0 * a * r * r * (3.0 * b + r * r) / d**4

    def _laplacian(self, r, orders):
        a = self.alpha
        b = self.beta
        d = b - r * r
        return tuple([a * b / d**2 if k == 0 else
                      4.0 * a * b * r / d**3 if k == 1 else
                      4.0 * a * b * (d + 6.0 * r * r) / d**4 for k in orders])

    def q_at_zero(self):
        return 0.0

    def laplacian_at_zero(self):
        # beta = R^2 (1 + alpha) underflows to 0 below R ~1e-162
        return self.alpha / self.beta if self.beta else math.inf


# A Custom without derivs reads q^(k)(r) = k! / (M rho^k) sum_m q(r + rho w^m)
# w^(-mk), w = e^(2 pi i / M), the trapezoid rule for Cauchy's integral on a
# circle (Lyness & Moler, SIAM J. Numer. Anal. 4, 1967).  For q analytic on
# the disc of radius R about r it errs by aliasing, about (rho / R)^M, and by
# rounding, about eps max|q| k! / rho^k (Squire & Trefethen, SIAM Review 40,
# 1998).  R is the distance to the nearer of 0 and the hard wall, where
# profiles are singular; rho = R / 3, M = 32 put the aliasing at 3^-32 < eps.
# The guard, the mean-value property: the circle's mean must return q(r) to
# 1e-12 max|q|, a few eps plus room for terms that cancel by ~1e3; a q built
# with np.abs, np.maximum or np.where, or too steep or wavy, misses by more.
_CAUCHY_M = 32
_CAUCHY_SHRINK = 3.0
_CAUCHY_GUARD = 1e-12


def _cauchy_rule(m, shrink):
    """The circle's nodes with Im z >= 0, then r, as offsets from r in units of
    R; and real weights whose sums over the values' (Re, Im) pairs give
    R^k q^(k)(r), k = 0..4, the real parts of the complex sums, then the
    guard's miss, the mean less q(r): row 2j holds Re w_j, row 2j + 1 -Im w_j.
    q(conj z) = conj q(z) fills in the mirror nodes.  Built in cmath, so
    importing the package runs no ufunc."""
    nodes = [cmath.exp(2j * math.pi * j / m) / shrink for j in range(m // 2 + 1)] + [0.0]
    weights = [[(1 + (j % (m // 2) > 0)) / m * cmath.exp(-2j * math.pi * j * k / m)
                * math.factorial(k) * shrink**k for k in range(5)] for j in range(m // 2 + 1)]
    weights = [w + w[:1] for w in weights] + [[0.0] * 5 + [-1.0]]
    pairs = [row for w in weights for row in ([x.real for x in w], [-x.imag for x in w])]
    return np.array(nodes), np.array(pairs)


_CAUCHY_NODES, _CAUCHY_WEIGHTS = _cauchy_rule(_CAUCHY_M, _CAUCHY_SHRINK)


class Custom(RadialPotential):
    """User-supplied radial profile, optionally with analytic derivatives.

    q must be callable, and derivs, when given, an iterable of exactly
    four callables for q', q'', q''', q''''; anything else raises
    DomainError.  The callables need take only 1-D float arrays (a scalar
    read hands them a one-element array), and must return a real number or
    a real array shaped like r (or a scalar array).  A callable that raises
    TypeError or ValueError, or returns anything else, raises DomainError
    naming it (_malformed); the one check sits where _profile calls it.
    They run under np.errstate(all="ignore"), as every formula does.
    Without derivs, the orders 1..4 at r, all a _profiles read takes, come
    from one call of q on complex points of a circle about r (_cauchy), and
    q itself from a call at r: q must then take complex arrays and be
    analytic within min(r, support_radius - r) of r, so a scalar-only q
    must supply derivs.  A q that rejects complex points, drops their
    imaginary parts, or fails the circle's guard raises DomainError asking
    for derivs.  numpy's complex log1p and log lose relative accuracy at
    small |z|, so a q built on them can fail the guard near the origin:
    -log1p(-r^2 / 2), a TU-shaped disc, does at r ~ 0.0041 in
    f_disc_chi_form and zw_coefficients.  Such a q should supply derivs.
    q_origin, when given, must be a finite real and laplacian_origin a
    finite positive real; anything else raises DomainError.  Each of these
    messages starts with "name: ".  The exact norms' rounding floor takes
    |q| as the magnitude of q's terms (the default _q_magnitude): a q whose
    terms cancel at the saddle can get a target below its rounding noise,
    and its norm then raises IntegrationError.
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

    def _cauchy(self, r, orders):
        """q^(k)(r) for each k in orders from one call of q on the circles
        about r (_cauchy_rule), R cut by the hard wall; a q that rejects or
        drops complex points, or fails the guard, raises DomainError.  Its
        callers run it under np.errstate(all="ignore")."""
        x = r[..., None]
        wall = self.support_radius
        reach = x if wall is None else np.minimum(x, np.maximum(wall - x, 0.0))
        z = x + reach * _CAUCHY_NODES
        try:
            v = np.asarray(self._q(z.ravel())).reshape(z.shape)
            if v.dtype.kind != "c":  # q cast z to real, or ignores it
                raise TypeError(f"q returned {v.dtype} values at complex points")
        except (TypeError, ValueError, np.exceptions.ComplexWarning) as exc:
            raise DomainError(
                f"{self.name}: without derivs, q must take complex arrays ({exc}); supply derivs"
            ) from exc
        # R^k q^(k)(r), k = 0..4, then the guard's miss.  einsum sums each row
        # on its own, in one order, so a row's bits do not depend on how
        # many rows share the read (a BLAS product blocks rows).
        pairs = v.astype(complex, order="C", copy=False).view(float)
        d = np.einsum("...m,mk->...k", pairs, _CAUCHY_WEIGHTS)
        miss = d[..., 5]
        bad = abs(miss) > _CAUCHY_GUARD * abs(v).max(axis=-1)
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise DomainError(
                f"{self.name}: the mean of q on the circle about r = {float(r.flat[i])!r} "
                f"misses q(r) by {float(miss.flat[i])!r}: q is not analytic there, too "
                "steep or wavy for the circle, or inexact at complex points; supply derivs"
            )
        return tuple([d[..., k] / reach[..., 0] ** k for k in orders])

    def _profile(self, r, order):
        if order and self._derivs is None:
            return self._cauchy(r, (order,))[0]
        try:
            v = self._derivs[order - 1](r) if order else self._q(r)
        except (TypeError, ValueError) as exc:
            raise _malformed(self, order, r, exc) from exc
        if (isinstance(v, np.ndarray) and v.dtype.kind in "fiu" and v.shape in ((), r.shape)
                or isinstance(v, numbers.Real)):
            return v
        raise _malformed(self, order, r, f"it returned {type(v).__name__} of shape {np.shape(v)}")

    def _profiles(self, r, orders):
        if self._derivs is None:
            return self._cauchy(r, orders)
        return super()._profiles(r, orders)

    def q_at_zero(self):
        if self._q_origin is None:
            raise DomainError(f"{self.name}: no origin value supplied")
        return self._q_origin

    def laplacian_at_zero(self):
        if self._laplacian_origin is None:
            raise DomainError(f"{self.name}: no origin Laplacian supplied")
        return self._laplacian_origin


def _malformed(p, order, r, why):
    """DomainError naming p for a profile callable (q, or q^(order)) that
    fails the callable contract at r, an array of radii."""
    what = "q" + "'" * order if order < 3 else f"q^({order})"
    return DomainError(
        f"{p.name}: {what} at an array of shape {r.shape} failed ({why}); the callables must "
        "take 1-D float arrays and return a real number or an array shaped like r"
    )


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
        edge = x.min() if self._a > 1.0 else x.max()
        if not 0.0 < edge < math.inf:
            raise DomainError(f"{self.name}: r / a = {float(edge)!r} leaves (0, inf)")
        return x

    def _profile(self, r, order):
        q = self._base._profile(self._base_r(r), order)
        return q / self._a_pow[order] if order else q  # a^0 = 1: q / 1 is q

    def _profiles(self, r, orders):
        a_pow = self._a_pow
        values = self._base._profiles(self._base_r(r), orders)
        return tuple([v / a_pow[k] for v, k in zip(values, orders)])

    def _q_magnitude(self, r, q):
        return self._base._q_magnitude(self._base_r(r), q)

    def _laplacian(self, r, orders):
        # laplacian_a(r) = laplacian(r / a) / a^2, and each r-derivative
        # adds 1 / a.  The base's own hook keeps a closed form closed: the
        # generic formula would turn |z / a|^2's zero derivatives into noise.
        a_pow = self._a_pow
        values = self._base._laplacian(self._base_r(r), orders)
        return tuple([v / a_pow[k + 2] for v, k in zip(values, orders)])

    def r_tau(self, tau):
        r = self._base.r_tau(tau)
        return None if r is None else self._a * r

    def q_at_zero(self):
        return self._base.q_at_zero()

    def laplacian_at_zero(self):
        dq0 = self._base.laplacian_at_zero()
        return dq0 / self._a_pow[2] if self._a_pow[2] else math.inf  # a^2 underflows to 0


@_named()
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
    """V_tau at a checked t = tau (a float, or an array of levels shaped like
    rr): v_tau, and lemma_sum on its saddles, run it through _evaluate;
    the norms' set-up stage runs it on arrays of saddles r* and of cut
    candidates below the support radius, and the norm integrand on node
    arrays whose domain integrate and the norm's cut already prove."""
    return p._profile(rr, 0) - 2.0 * t * np.log(rr)
