import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coulombgas.droplet import dr_dtau, solve_r_tau
from coulombgas.errors import CoulombGasError, DomainError, UnsupportedOrderError
from coulombgas.norms import NormQuery, log_norm_exact
from coulombgas.oracles import ml_equilibrium, ml_log_z, tu_equilibrium, tu_log_z
from coulombgas.partition import log_z_exact
from coulombgas import potential
from coulombgas.droplet import droplet_of
from coulombgas.equilibrium import b1, equilibrium_report
from coulombgas.potential import (
    Custom,
    Ginibre,
    MittagLeffler,
    RadialPotential,
    TruncatedUnitary,
    _check_n,
    _check_positive,
    dilate,
    v_tau,
)


def _fd5(f, r, h):
    """Five-point central first derivative."""
    return (-f(r + 2 * h) + 8 * f(r + h) - 8 * f(r - h) + f(r - 2 * h)) / (12 * h)


def test_ginibre_basic_values():
    p = Ginibre()
    assert p.q_derivs(1.0) == 1.0
    assert p.q_derivs(1.0, 1) == 2.0
    assert p.q_derivs(1.0, 2) == 2.0
    assert p.q_derivs(1.0, 3) == 0.0
    assert p.q_derivs(1.0, 4) == 0.0
    assert p.laplacian(0.3) == 1.0
    assert p.laplacian_dr(0.3) == 0.0
    assert p._laplacian(np.array([0.3]), (0, 1, 2)) == (1.0, 0.0, 0.0)
    assert p.q_at_zero() == 0.0
    assert p.laplacian_at_zero() == 1.0


def test_ginibre_scale():
    p = Ginibre(scale=2.0)
    assert p.q_derivs(2.0) == 1.0
    assert abs(p.laplacian(1.0) - 0.25) < 1e-15


def test_origin_laplacian_is_inf_where_a_squared_parameter_underflows():
    # scale^2, a^2 and R^2 (1 + alpha) round to 0 here; the limit is inf, not
    # a ZeroDivisionError, and the routes refuse it by their own checks.
    for p in (Ginibre(1e-200), dilate(Ginibre(), 1e-200), TruncatedUnitary(1.0, 1e-200)):
        assert p.laplacian_at_zero() == math.inf, p.name
    assert Ginibre(1e-200).laplacian(1e-200) == math.inf


def test_mittag_leffler_derivatives():
    lam, c = 1.5, 0.8
    p = MittagLeffler(lam, c)
    r = 1.3
    assert abs(p.q_derivs(r) - (r ** (2 * lam) - 2 * c * math.log(r))) < 1e-14
    assert abs(p.q_derivs(r, 1) - (2 * lam * r ** (2 * lam - 1) - 2 * c / r)) < 1e-13
    want2 = 2 * lam * (2 * lam - 1) * r ** (2 * lam - 2) + 2 * c / r**2
    assert abs(p.q_derivs(r, 2) - want2) < 1e-13
    # log term drops out of the laplacian
    assert abs(p.laplacian(r) - lam**2 * r ** (2 * lam - 2)) < 1e-13


def test_mittag_leffler_reduces_to_ginibre():
    p = MittagLeffler(1.0, 0.0)
    g = Ginibre()
    for r in (0.2, 1.0, 1.7):
        assert abs(p.q_derivs(r) - g.q_derivs(r)) < 1e-15
        assert abs(p.laplacian(r) - 1.0) < 1e-15
    assert p.q_at_zero() == 0.0
    assert p.laplacian_at_zero() == 1.0


def test_mittag_leffler_origin_guards():
    p = MittagLeffler(1.0, 0.5)
    with pytest.raises(DomainError):
        p.q_at_zero()
    with pytest.raises(DomainError):
        p.laplacian_at_zero()
    # lam != 1, c = 0: q(0) fine, laplacian at 0 degenerate or divergent
    p2 = MittagLeffler(2.0, 0.0)
    assert p2.q_at_zero() == 0.0
    with pytest.raises(DomainError):
        p2.laplacian_at_zero()


def test_hard_wall_profile_takes_numpys_log1p_bits_on_floats():
    # q = -alpha log1p(-r^2/beta) on a Python float gives the bits of the
    # one-element array, np.log1p's (math.log1p rounds differently), all
    # the way to the wall, where log1p(-1) is -inf and q is inf.
    p = TruncatedUnitary(3.0, 1.6)
    a = p.support_radius
    rs = a * np.concatenate([np.linspace(1e-3, 1.0, 2001)[:-1], 1.0 - 0.5 ** np.arange(1.0, 53.0)])
    got = [p.q_derivs(r) for r in rs.tolist()]
    assert all(type(g) is float for g in got)
    assert np.array_equal(np.array(got), p.q_derivs(rs))
    assert np.array_equal(np.array(got), -3.0 * np.log1p(rs * rs / -p.beta))
    assert p.q_derivs(math.sqrt(p.beta)) == math.inf


def test_truncated_unitary_values():
    alpha, R = 2.0, 1.5
    p = TruncatedUnitary(alpha, R)
    beta = R * R * (1.0 + alpha)
    r = 1.0
    d = beta - r * r
    assert abs(p.q_derivs(r) - alpha * (math.log(beta) - math.log(d))) < 1e-14
    assert abs(p.q_derivs(r, 1) - 2 * alpha * r / d) < 1e-14
    assert abs(p.laplacian(r) - alpha * beta / d**2) < 1e-14
    assert abs(p.laplacian_at_zero() - alpha / beta) < 1e-15
    assert p.q_at_zero() == 0.0
    assert abs(p.support_radius - math.sqrt(beta)) < 1e-15


def test_truncated_unitary_support_guard():
    p = TruncatedUnitary(1.0, 1.0)
    edge = p.support_radius
    p.q_derivs(edge * 0.999999)  # inside is fine
    with pytest.raises(DomainError):
        p.q_derivs(edge * 1.01)


def test_derivative_ladder_against_finite_differences():
    # laplacian_dr and the hook's order 2 (which b1 reads) must be the true
    # r-derivatives
    for p in (MittagLeffler(1.5, 0.8), TruncatedUnitary(2.0, 1.5), Ginibre()):
        hi = 0.99 * (p.support_radius if p.support_radius is not None else 2.0)
        for r in np.linspace(0.3, hi, 7):
            h = 1e-4 * max(1.0, r)
            fd1 = _fd5(p.laplacian, r, h)
            assert abs(fd1 - p.laplacian_dr(r)) < 1e-6 * max(1.0, abs(fd1))
            fd2 = _fd5(p.laplacian_dr, r, h)
            assert abs(fd2 - p._laplacian(np.array([r]), (2,))[0].item()) < 1e-5 * max(1.0, abs(fd2))


@pytest.mark.parametrize("p", [
    Ginibre(),
    MittagLeffler(0.5, 1.0),
    TruncatedUnitary(1.0, 1.0),
    dilate(Ginibre(), 2.0),
    Custom(lambda x: x**3.0 - 0.4 * np.log(x), name="analytic-cubic-log", derivs=[
        lambda x: 3.0 * x**2.0 - 0.4 / x,
        lambda x: 6.0 * x + 0.4 / x**2,
        lambda x: 6.0 - 0.8 / x**3,
        lambda x: 2.4 / x**4,
    ]),
    Custom(lambda x: x**3.0 - 0.4 * np.log(x), name="circle-cubic-log"),
], ids=["ginibre", "ml", "tu", "dilated", "custom-derivs", "custom-circle"])
def test_q_derivs_rejects_unsupported_order(p):
    # The order is an integer in 0..4, as n and j are: bools, non-integral
    # values and strings raise, and an integral float or numpy integer reads
    # the bits of its int.
    for order in (5, -1, True, np.True_, 2.5, float("nan"), "2"):
        with pytest.raises(UnsupportedOrderError):
            p.q_derivs(0.7, order)
    for r in (0.7, np.array([0.3, 0.7])):
        want = p.q_derivs(r, 2)
        for order in (2.0, np.int64(2), np.float64(2.0)):
            got = p.q_derivs(r, order)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


_EPS = float(np.finfo(float).eps)

# Summands of the generic Laplacian formula 4 d^k laplacian = sum of
# coef * q^(i) / r^m, as (coef, i, m) for k = 0, 1, 2.
_GENERIC_SUMMANDS = {
    0: ((1.0, 1, 1), (1.0, 2, 0)),
    1: ((1.0, 3, 0), (1.0, 2, 1), (1.0, 1, 2)),
    2: ((1.0, 4, 0), (1.0, 3, 1), (2.0, 2, 2), (2.0, 1, 3)),
}


def _profile_term_scale(p, r, i):
    """Sum of the magnitudes of the terms that make up q^(i)(r), i >= 1,
    as the family computes it."""
    if isinstance(p, MittagLeffler):
        # power part plus the magnitude 2 c (i-1)! / r^i of the log part
        power = np.abs(MittagLeffler(p.lam, 0.0)._profile(r, i))
        return power + 2.0 * p.c * math.factorial(i - 1) / r**i
    if isinstance(p, TruncatedUnitary):
        # every term is positive; d = beta - r^2 carries a rounding error of
        # eps (beta + r^2), relative (beta + r^2) / d
        return np.abs(p._profile(r, i)) * (p.beta + r * r) / (p.beta - r * r)
    return np.abs(p._profile(r, i))


@pytest.mark.parametrize(
    "p",
    [Ginibre(1.3), MittagLeffler(0.5, 1.0), MittagLeffler(2.0, 0.7), TruncatedUnitary(2.0, 1.5)],
    ids=lambda p: p.name,
)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_closed_form_laplacian_hook_matches_generic_formula(p, order):
    # Bound, derived before running: a computed q^(i) is within 12 roundings
    # of its term scale A_i (a few coefficient products, one pow, up to four
    # powers of d for TU); the generic combination adds at most 6 more
    # relative to S = sum of coef * A_i / r^m / 4 (each nested partial sum,
    # times the powers of 1/r still to come, is at most S); the closed form
    # is within 8 roundings of the exact value, which is at most S.  26 eps S
    # in all; 32 allowed.
    d = droplet_of(p)
    lo = d.r0 if d.kind == "annulus" else d.r1 / 64.0
    r = np.linspace(lo, d.r1, 64)
    (closed,) = p._laplacian(r, (order,))
    (generic,) = RadialPotential._laplacian(p, r, (order,))
    scale = sum(
        coef * _profile_term_scale(p, r, i) / r**m for coef, i, m in _GENERIC_SUMMANDS[order]
    ) / 4.0
    assert np.all(np.abs(closed - generic) <= 32.0 * _EPS * scale)


def test_laplacian_accessors_live_only_on_the_base():
    accessors = {"laplacian", "laplacian_dr"}
    for obj in vars(potential).values():
        if isinstance(obj, type) and issubclass(obj, RadialPotential):
            if obj is not RadialPotential:
                assert not accessors & set(vars(obj)), obj.__name__


@pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["1e400", "-1e400"])
def test_ints_too_large_for_a_float_are_domain_errors(big):
    with pytest.raises(DomainError, match="n must be a positive integer"):
        _check_n(big)
    with pytest.raises(DomainError, match=r"tau must lie in \[0, 1\]"):
        solve_r_tau(Ginibre(), big)
    with pytest.raises(DomainError, match="scale must be a finite positive number"):
        _check_positive("scale", big)


def test_nonpositive_radius_rejected():
    p = MittagLeffler(1.0, 1.0)
    with pytest.raises(DomainError):
        p.q_derivs(0.0)
    with pytest.raises(DomainError):
        p.q_derivs(-1.0)
    with pytest.raises(DomainError):
        p.laplacian(np.array([0.5, -0.2]))


@pytest.mark.parametrize(
    "wrap",
    [float, np.float64, np.array, lambda x: np.array([0.5, x])],
    ids=["float", "float64", "0-d", "1-d"],
)
def test_scalar_and_array_checks_reject_the_same_points(wrap):
    tu = TruncatedUnitary(1.0, 1.0)
    past_support = tu.support_radius * (1.0 + 2e-12)
    for p, bad_points in (
        (MittagLeffler(1.0, 1.0), (0.0, -1.0, math.nan, math.inf)),
        (tu, (0.0, -1.0, math.nan, math.inf, past_support)),
    ):
        for bad in bad_points:
            for call in (p.q_derivs, p.laplacian):
                with pytest.raises(DomainError):
                    call(wrap(bad))
    inside = tu.support_radius * (1.0 - 1e-9)
    assert np.all(np.isfinite(tu.laplacian(wrap(inside))))


@pytest.mark.parametrize(
    "points",
    [
        [0.5, math.nan, 0.7],
        [0.5, math.inf],
        [-math.inf, 0.5],
        [0.5, 0.0],
        [0.5, -1e-300],
        [],
    ],
    ids=["nan", "+inf", "-inf", "zero", "negative", "empty"],
)
def test_array_check_rejects_each_bad_point(points):
    for p in (MittagLeffler(1.0, 1.0), TruncatedUnitary(1.0, 1.0)):
        with pytest.raises(DomainError):
            p._checked(np.array(points, dtype=float))


def test_array_check_support_radius_edge():
    tu = TruncatedUnitary(1.0, 1.0)
    edge = tu.support_radius * (1.0 + 1e-12)
    with pytest.raises(DomainError):
        tu._checked(np.array([0.5, np.nextafter(edge, math.inf)]))
    # The edge itself and the support radius are accepted unchanged.
    for last in (edge, tu.support_radius):
        pts = np.array([0.5, last])
        assert np.array_equal(tu._checked(pts), pts)


# Evaluation points follow the rule of n, tau and the family parameters:
# a real that is not a bool, or an array of int or float dtype.
_POINT_CALLS = {
    "q_derivs": lambda p, r: p.q_derivs(r, 2),
    "laplacian": lambda p, r: p.laplacian(r),
    "laplacian_dr": lambda p, r: p.laplacian_dr(r),
    "v_tau": lambda p, r: v_tau(p, 0.5, r),
    "b1": b1,
    "_q_derivs_each": lambda p, r: p._q_derivs_each(r, (1, 2)),
}


@pytest.mark.parametrize(
    "bad",
    ["2", True, np.True_, 1 + 0j, None, [True, False], ["2"], np.array([1 + 0j]),
     [[1.0], [1.0, 2.0]]],
    ids=["str", "bool", "numpy-bool", "complex", "none", "bool-list", "str-list",
         "complex-array", "ragged"],
)
@pytest.mark.parametrize("call", sorted(_POINT_CALLS))
def test_evaluation_points_that_are_not_real_raise_domain_error(call, bad):
    with pytest.raises(DomainError, match="evaluation points must be real numbers"):
        _POINT_CALLS[call](Ginibre(), bad)


@pytest.mark.parametrize("call", sorted(_POINT_CALLS))
def test_real_evaluation_points_of_any_type_evaluate(call):
    p = MittagLeffler(1.5, 0.5)
    f = _POINT_CALLS[call]
    for point, like in ((Fraction(1, 2), 0.5), (np.int64(2), 2.0), (np.array(0.5), 0.5)):
        assert f(p, point) == f(p, like), point
    assert np.array_equal(f(p, [1, 2]), f(p, np.array([1.0, 2.0])))


def test_nonfinite_and_nonpositive_points_keep_their_message():
    p = Ginibre()
    for bad in (math.nan, math.inf, 0.0, -1, 10**400, np.array([0.5, math.nan])):
        with pytest.raises(DomainError, match="^evaluation points must be finite and positive$"):
            p.q_derivs(bad)


def test_custom_with_analytic_derivatives_matches():
    lam, c = 1.5, 0.8
    ref = MittagLeffler(lam, c)
    p = Custom(
        q=lambda r: r ** (2 * lam) - 2 * c * np.log(r),
        derivs=(
            lambda r: 2 * lam * r ** (2 * lam - 1) - 2 * c / r,
            lambda r: 2 * lam * (2 * lam - 1) * r ** (2 * lam - 2) + 2 * c / r**2,
            lambda r: 2 * lam * (2 * lam - 1) * (2 * lam - 2) * r ** (2 * lam - 3)
            - 4 * c / r**3,
            lambda r: 2 * lam * (2 * lam - 1) * (2 * lam - 2) * (2 * lam - 3)
            * r ** (2 * lam - 4)
            + 12 * c / r**4,
        ),
        name="ml-clone",
    )
    for r in (0.4, 0.9, 1.6):
        assert abs(p.q_derivs(r) - ref.q_derivs(r)) < 1e-13
        for order in (1, 2, 3, 4):
            a, b = p.q_derivs(r, order), ref.q_derivs(r, order)
            assert abs(a - b) < 1e-11 * max(1.0, abs(b)), (r, order)
        assert abs(p.laplacian(r) - ref.laplacian(r)) < 1e-12


# The circle read against the analytic derivatives of ML(lam, c).  Bound,
# derived before the run from the error model of potential._cauchy_rule:
# q^(k) read on the circle of radius rho = r / 3 errs by rounding, at most
# u max m k! / rho^k with m(z) = |z^(2 lam)| + 2c |log z| the magnitude of
# q's terms and u = 40 eps: 17 eps for the weighted sum of 17 values (its
# weights' magnitudes sum to k! / rho^k), 8 eps for the complex powers and
# logs, and eps |z q'(z)| <= 8 eps m for the rounding of the nodes (lam <= 4,
# 2c <= 3m), 33 eps with room; and by aliasing, the Taylor terms of order k + jM,
# j >= 1, of z^(2 lam) and log z about r, each at most (r^(2 lam) + 2c) 3^-n
# (|binom(2 lam, n)| <= 1 for these lam): 2 3^-32 (r^(2 lam) + 2c) k! / rho^k
# in all.  On the circle |z| <= 4r/3 and |arg z| <= asin(1/3), so
# max m <= (4r/3)^(2 lam) + 2c (max(|log(2r/3)|, |log(4r/3)|) + asin(1/3)).
# The analytic derivatives round within a few eps of their own terms, far
# below the 3^k factor of the bound.
@pytest.mark.parametrize("lam, c", [(lam, c) for lam in (1.0 / 3.0, 0.5, 1.0, 2.0)
                                    for c in (0.0, 1.1)] + [(1.5, 0.8)])
def test_custom_without_derivs_matches_analytic_derivatives(lam, c):
    ref = MittagLeffler(lam, c)
    p = Custom(lambda r: r ** (2 * lam) - 2 * c * np.log(r), name="ml-circle")
    r = np.geomspace(1e-3, 6.0, 97)
    far = np.maximum(np.abs(np.log(2.0 * r / 3.0)), np.abs(np.log(4.0 * r / 3.0)))
    m = (4.0 * r / 3.0) ** (2 * lam) + 2 * c * (far + math.asin(1.0 / 3.0))
    scale = 40.0 * _EPS * m + 2.0 * 3.0**-32 * (r ** (2 * lam) + 2 * c)
    for k in (1, 2, 3, 4):
        bound = scale * math.factorial(k) * (3.0 / r) ** k
        got = p.q_derivs(r, k)
        assert np.all(np.abs(got - ref.q_derivs(r, k)) <= bound), k
        for i in (0, 48, 96):
            one = p.q_derivs(float(r[i]), k)
            assert type(one) is float and abs(one - ref.q_derivs(float(r[i]), k)) <= bound[i]


@pytest.mark.parametrize("r", [0.05, 0.7, 1.0, 2.5, np.array([0.05, 0.7, 1.0, 2.5])])
def test_custom_without_derivs_is_the_cauchy_sum(r):
    # The read is the trapezoid sum of Cauchy's integral on the circle of
    # radius r / 3, here over all M = 32 nodes in complex arithmetic, without
    # q(conj z) = conj q(z).  Each of the two sums adds 32 terms of at most
    # max|q| / 32 and rounds within 32 eps max|q|, with its nodes placed within
    # an ulp; so they agree to 64 eps max|q| k! / rho^k.  A float r gets a
    # Python float, as q_derivs(r, 0) does.
    q = lambda x: x**3.0 - 0.4 * np.log(x)
    p = Custom(q, name="cubic-log")
    rho = np.asarray(r) / 3.0
    w = np.exp(2j * np.pi * np.arange(32) / 32)
    values = q(np.asarray(r)[..., None] + rho[..., None] * w)
    room = 64.0 * _EPS * np.abs(values).max(axis=-1)
    for k in (1, 2, 3, 4):
        want = (values * w**-k).mean(axis=-1).real * math.factorial(k) / rho**k
        got = p.q_derivs(r, k)
        assert (type(got) is float) == isinstance(r, float)
        assert np.all(np.abs(got - want) <= room * math.factorial(k) / rho**k), k


_CIRCLE_CUBIC_LOG = Custom(lambda x: x**3.0 - 0.4 * np.log(x), name="circle-cubic-log")


@pytest.mark.parametrize(
    "p",
    [
        _CIRCLE_CUBIC_LOG,
        Custom(lambda x: x**3.0 - 0.4 * np.log(x), name="analytic-cubic-log", derivs=[
            lambda x: 3.0 * x**2.0 - 0.4 / x,
            lambda x: 6.0 * x + 0.4 / x**2,
            lambda x: 6.0 - 0.8 / x**3,
            lambda x: 2.4 / x**4,
        ]),
        dilate(_CIRCLE_CUBIC_LOG, 1.5),
    ],
    ids=["circle", "analytic", "dilated-circle"],
)
@pytest.mark.parametrize("orders", [(1, 2), (1, 2, 3), (1, 2, 3, 4)])
@pytest.mark.parametrize("r", [1e-3, 2.0, np.array([1e-3, 0.4, 2.0])], ids=["1e-3", "2", "array"])
def test_several_orders_read_together_equal_separate_calls_bit_for_bit(p, orders, r):
    # The Newton step and the Laplacian read q' and q'' (the Laplacian's
    # derivatives also q''' and q'''') in one evaluation; each order keeps
    # the bits of its own q_derivs call, a Python float for a float r.
    got = p._q_derivs_each(r, orders)
    assert type(got) is tuple and len(got) == len(orders)
    for order, value in zip(orders, got):
        want = p.q_derivs(r, order)
        assert type(value) is type(want), order
        assert np.array_equal(value, want), order


@pytest.mark.parametrize(
    "p",
    [_CIRCLE_CUBIC_LOG, dilate(_CIRCLE_CUBIC_LOG, 1.5), Ginibre(1.3), MittagLeffler(0.5, 1.0),
     TruncatedUnitary(2.0, 1.5), dilate(MittagLeffler(2.0, 0.7), 1.5)],
    ids=lambda p: p.name,
)
@pytest.mark.parametrize("r", [np.array([1e-3]), np.array([2.0]), np.array([1e-3, 0.4, 2.0])],
                         ids=["1e-3", "2", "array"])
def test_laplacian_orders_read_together_equal_separate_reads_bit_for_bit(p, r):
    # An integrand takes every order of the Laplacian it needs from one
    # read; each order keeps the bits of a read of that order alone.  The
    # hook, as every hook, takes float64 arrays; a scalar read hands it a
    # one-element array.
    for orders in ((0, 1, 2), (0, 1), (2, 0)):
        got = p._laplacian(r, orders)
        assert type(got) is tuple and len(got) == len(orders)
        for order, value in zip(orders, got):
            (want,) = p._laplacian(r, (order,))
            assert type(value) is type(want), (orders, order)
            assert np.array_equal(value, want), (orders, order)


@pytest.mark.parametrize("r", [1e-3, 2.0, np.array([1e-3, 2.0])], ids=["1e-3", "2", "array"])
def test_orders_without_derivs_come_from_one_call_of_q(r):
    # Every order at every r comes from one call of q on a 1-D complex
    # array: 18 points per r, the circle's 17 nodes with Im z >= 0 and r.
    calls = []

    def q(x):
        calls.append(x)
        return x**3.0 - 0.4 * np.log(x)

    p = Custom(q, name="counted")
    for orders in ((1, 2), (1, 2, 3, 4)):
        calls.clear()
        p._q_derivs_each(r, orders)
        assert [(x.dtype, x.shape) for x in calls] == [(complex, (18 * np.size(r),))], orders
    # Every order of the Laplacian a formula needs comes from one read too;
    # the hook itself takes arrays only, a scalar as a one-element array.
    reads = {
        "laplacian": lambda: p.laplacian(r),
        "laplacian_dr": lambda: p.laplacian_dr(r),
        "_laplacian(0, 1, 2)": lambda: p._laplacian(np.atleast_1d(r), (0, 1, 2)),
        "b1": lambda: b1(p, r),
    }
    for name, read in reads.items():
        calls.clear()
        read()
        assert len(calls) == 1, name


@pytest.mark.parametrize("wall", [None, 3.2], ids=["no-wall", "wall"])
def test_a_circle_read_of_many_radii_is_each_radius_read_alone(wall):
    # The circle's weighted sums run in einsum, one row at a time in one
    # order, so a row's q' and q'' do not depend on how many rows share the
    # read: the saddle stage of log_z_exact reads all its rows at once and
    # solve_r_tau one, and each row must keep the lone read's bits.
    p = Custom(lambda x: x ** (2.0 / 3.0) - 2.2 * np.log(x), support_radius=wall)
    rs = np.linspace(0.01, 3.0, 300)
    got = p._q_derivs_each(rs, (1, 2))
    for i in range(rs.size):
        alone = p._q_derivs_each(float(rs[i]), (1, 2))
        assert [float(got[k][i]).hex() for k in (0, 1)] == [v.hex() for v in alone], rs[i]


# Profiles the circle cannot read: not analytic on the circle about r (a
# modulus, or a branch of np.maximum or np.where that changes on it), or a
# q that raises on complex points.  Each raises DomainError naming the
# potential and asking for derivs, from q_derivs as from droplet_of.
_UNREADABLE = {
    "abs": (lambda r: np.abs(r) ** 2, 0.7),
    "maximum": (lambda r: np.maximum(r * r, 0.5), 0.7),
    "where": (lambda r: np.where(r < 1.0, r * r, 2.0 * r - 1.0), 1.0),
    "scalar-only": (np.vectorize(lambda x: x * x, otypes=[float]), 0.7),
    "math": (lambda r: np.array([math.sqrt(x) for x in r.tolist()]), 0.7),
}


@pytest.mark.parametrize("name", sorted(_UNREADABLE))
def test_a_profile_the_circle_cannot_read_raises_a_domain_error(name):
    q, r = _UNREADABLE[name]
    p = Custom(q, name=name)
    for call in (lambda: p.q_derivs(r, 1), lambda: p.laplacian(np.array([0.5 * r, r])),
                 lambda: droplet_of(p)):
        with pytest.raises(DomainError, match=f"^{name}: .*; supply derivs$"):
            call()


@pytest.mark.parametrize("q", [lambda r: np.asarray(r, dtype=float) ** 2,
                               lambda r: 2.0 * np.asarray(r, dtype=float) + 1.0])
@pytest.mark.parametrize("action", ["error", "ignore"])
def test_a_profile_that_drops_imaginary_parts_raises_a_domain_error(action, q):
    # Casting the complex points to float warns (numpy's ComplexWarning): as
    # an error it is caught, and ignored it leaves float values, which no q
    # analytic and nonconstant gives at complex points.  The linear q's
    # circle mean would still return q(r), so the guard alone misses it.
    p = Custom(q, name="cast")
    with warnings.catch_warnings():
        warnings.simplefilter(action, np.exceptions.ComplexWarning)
        with pytest.raises(DomainError, match="^cast: without derivs, q must take complex arrays"):
            p.q_derivs(0.7, 1)


def _scalar_only(f):
    # float() of a many-element array raises, so f only takes scalars.
    return lambda r: f(float(r))


# q = r^2 with a q' that breaks the callable contract: it returns a value
# that is neither a real number nor an array shaped like r, or takes only
# scalars.  Then q itself, broken the same ways.
_MALFORMED = {
    "none q'": lambda r: None,
    "list q'": lambda r: [2.0 * r],
    "string q'": lambda r: "2 r",
    "math.sqrt q'": lambda r: 2.0 * math.sqrt(r * r),
    "column q'": lambda r: (2.0 * r)[:, None],
    "none q": lambda r: None,
    "column q": lambda r: (r * r)[:, None],
}
_ROUTES = {
    "solve_r_tau": lambda p: solve_r_tau(p, 0.5),
    "droplet_of": droplet_of,
    "log_z_exact": lambda p: log_z_exact(p, 20),
    "equilibrium_report": equilibrium_report,
    "log_norm_exact": lambda p: log_norm_exact(p, NormQuery(20, 5)),
    "v_tau": lambda p: v_tau(p, 0.5, np.array([0.5, 1.0])),
}
# The routes that read q' on arrays, and those that read q on arrays.
_ROUTES_READING = {
    "q'": ("droplet_of", "equilibrium_report", "log_z_exact", "solve_r_tau"),
    "q": ("log_norm_exact", "log_z_exact", "v_tau"),
}
_MALFORMED_CASES = [(name, route) for name in sorted(_MALFORMED)
                    for route in _ROUTES_READING[name.split()[-1]]]


@pytest.mark.parametrize("name, route", _MALFORMED_CASES, ids=map("-".join, _MALFORMED_CASES))
def test_a_malformed_callable_raises_a_domain_error_naming_the_potential(name, route):
    q, q1 = lambda r: r * r, lambda r: 2.0 * r
    what = name.split()[-1]
    if what == "q":
        q = _MALFORMED[name]
    else:
        q1 = _MALFORMED[name]
    p = Custom(q, derivs=[q1, lambda r: 2.0 + 0.0 * r, lambda r: 0.0 * r, lambda r: 0.0 * r],
               name=name)
    with pytest.raises(DomainError, match=f"^{re.escape(name)}[:,] .*{what} at an? "):
        _ROUTES[route](p)


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
@pytest.mark.parametrize("derivs", ["none", "analytic"])
def test_np_vectorize_wraps_a_scalar_only_profile(derivs, ensemble):
    # np.vectorize(f, otypes=[float]) calls f once per element, and each
    # element is the same float arithmetic as the array-native profile's,
    # so log Z keeps every bit.  Without derivs the derivatives need q at
    # complex points, which the scalar-only q rejects: DomainError.
    native = [lambda r: 2.0 * r, lambda r: 2.0 + 0.0 * r, lambda r: 0.0 * r, lambda r: 0.0 * r]
    scalar = [_scalar_only(f) for f in native]
    q = _scalar_only(lambda r: r * r)
    with pytest.raises(TypeError):
        q(np.array([1.0, 2.0]))
    if derivs == "none":
        wrapped = Custom(np.vectorize(q, otypes=[float]), name="scalar-only")
        with pytest.raises(DomainError, match="^scalar-only, n=30, .*supply derivs$"):
            log_z_exact(wrapped, 30, ensemble)
        return
    wrapped = Custom(np.vectorize(q, otypes=[float]),
                     derivs=[np.vectorize(f, otypes=[float]) for f in scalar])
    plain = Custom(lambda r: r * r, derivs=native)
    want = log_z_exact(plain, 30, ensemble)
    assert log_z_exact(wrapped, 30, ensemble).hex() == want.hex()


def test_dilate_chain_rule():
    base = MittagLeffler(1.0, 1.0)
    a = 3.0
    p = dilate(base, a)
    for r in (1.5, 2.5, 4.0):
        assert abs(p.q_derivs(r) - base.q_derivs(r / a)) < 1e-14
        assert abs(p.q_derivs(r, 1) - base.q_derivs(r / a, 1) / a) < 1e-14
        assert abs(p.q_derivs(r, 3) - base.q_derivs(r / a, 3) / a**3) < 1e-14
        assert abs(p.laplacian(r) - base.laplacian(r / a) / a**2) < 1e-14
    g = dilate(Ginibre(), 2.0)
    assert abs(g.laplacian_at_zero() - 0.25) < 1e-15


@pytest.mark.parametrize("a", [0.5, 0.56, 1.07, 1.314155, 1.34, 2.0])
def test_dilate_scales_its_base_laplacian_hook(a):
    # The Laplacian of Q(z / a) is laplacian(r / a) / a^2, each r-derivative
    # adding 1 / a: a closed form stays closed, so |z / a|^2 has exactly
    # zero Laplacian derivatives, not rounding noise.
    r = np.linspace(0.01, 2.0 * a, 41)
    g = dilate(Ginibre(), a)
    assert np.all(g.laplacian(r) == 1.0 / a**2)
    assert np.all(g.laplacian_dr(r) == 0.0)
    assert np.all(g._laplacian(r, (2,))[0] == 0.0)
    base = MittagLeffler(0.5, 1.0)
    p = dilate(base, a)
    got = p._laplacian(r, (0, 1, 2))
    want = base._laplacian(r / a, (0, 1, 2))
    for order in range(3):
        assert np.array_equal(got[order], want[order] / a ** (order + 2))


def test_generic_laplacian_of_r_squared_is_exact():
    # The generic formula takes q'' - q'/r first; for q = r^2 that is
    # 2 - 2 r / r = 0 exactly, so the derivatives of the Laplacian 1 are 0.
    p = Custom(lambda r: r * r,
               derivs=(lambda r: 2.0 * r, lambda r: 2.0 + 0.0 * r,
                       lambda r: 0.0 * r, lambda r: 0.0 * r))
    r = np.linspace(0.01, 3.0, 301)
    assert np.all(p.laplacian(r) == 1.0)
    assert np.all(p.laplacian_dr(r) == 0.0)
    assert np.all(p._laplacian(r, (2,))[0] == 0.0)


def test_dilate_scales_support():
    p = dilate(TruncatedUnitary(1.0, 1.0), 2.0)
    assert abs(p.support_radius - 2.0 * math.sqrt(2.0)) < 1e-14


def test_tau_params_for_degree():
    # NormQuery is the one degree -> tau map; v_tau takes the float.
    assert NormQuery(10, 3, "normal").tau == 0.3
    assert NormQuery(10, 5, "symplectic").tau == 0.25
    assert NormQuery(10, 19, "symplectic").tau == 0.95
    with pytest.raises(DomainError):
        NormQuery(10, 10, "normal")
    with pytest.raises(DomainError):
        NormQuery(10, -1, "normal")
    with pytest.raises(DomainError, match=r"tau must lie in \[0, 1\]"):
        v_tau(Ginibre(), 1.5, 1.0)


def test_v_tau_values_and_derivatives():
    # v_tau evaluates V_tau itself; its derivatives are those of
    # r^2 - 2 tau log r, read here by differences of the one evaluator.
    p = Ginibre()
    tau, r, h = 0.4, 1.2, 1e-4
    assert abs(v_tau(p, tau, r) - (r * r - 2 * tau * math.log(r))) < 1e-14
    v1 = _fd5(lambda x: v_tau(p, tau, x), r, h)
    assert abs(v1 - (2 * r - 2 * tau / r)) < 1e-9
    v2 = _fd5(lambda x: _fd5(lambda y: v_tau(p, tau, y), x, h), r, h)
    assert abs(v2 - (2 + 2 * tau / r**2)) < 1e-6


def test_v_tau_derivative_identities_vs_finite_differences():
    # The routes read V_tau' as q' - 2 tau / r and V_tau'' through the
    # Laplacian hook, V'' = 4 laplacian - V' / r; both must be the
    # r-derivatives of the one evaluator.
    p = MittagLeffler(1.5, 0.3)
    tau, r, h = 0.6, 1.1, 1e-4
    v1 = p.q_derivs(r, 1) - 2 * tau / r
    assert abs(_fd5(lambda x: v_tau(p, tau, x), r, h) - v1) < 1e-6
    fd2 = _fd5(lambda x: _fd5(lambda y: v_tau(p, tau, y), x, h), r, h)
    assert abs(fd2 - (4 * p.laplacian(r) - v1 / r)) < 1e-6


def test_rqprime_monotone_on_droplet():
    # r q'(r) increasing is what makes the hard-edge radii well defined
    for p in (Ginibre(), MittagLeffler(2.0, 1.0), TruncatedUnitary(1.0, 1.0)):
        hi = p.support_radius if p.support_radius is not None else 3.0
        rs = np.linspace(0.05, 0.999 * hi, 50)
        vals = rs * np.array([p.q_derivs(float(r), 1) for r in rs])
        assert np.all(np.diff(vals) > 0), p


# Every caller of the family-parameter checks, one parameter slot at a time.
_PARAMETER_SLOTS = {
    "ginibre-scale": lambda x: Ginibre(x),
    "ml-lam": lambda x: MittagLeffler(x, 1.0),
    "ml-c": lambda x: MittagLeffler(1.0, x),
    "tu-alpha": lambda x: TruncatedUnitary(x, 1.0),
    "tu-R": lambda x: TruncatedUnitary(1.0, x),
    "dilate": lambda x: dilate(Ginibre(), x),
    "custom-support": lambda x: Custom(lambda r: r * r, support_radius=x),
    "ml_log_z-lam": lambda x: ml_log_z(x, 1.0, 10),
    "ml_log_z-c": lambda x: ml_log_z(1.0, x, 10),
    "tu_log_z-alpha": lambda x: tu_log_z(x, 1.0, 10),
    "tu_log_z-R": lambda x: tu_log_z(1.0, x, 10),
    "ml_equilibrium-lam": lambda x: ml_equilibrium(x, 1.0),
    "ml_equilibrium-c": lambda x: ml_equilibrium(1.0, x),
    "tu_equilibrium-alpha": lambda x: tu_equilibrium(x, 1.0),
    "tu_equilibrium-R": lambda x: tu_equilibrium(1.0, x),
}


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), "1.5", 1.0 + 0.0j],
                         ids=["True", "False", "np.True_", "str", "complex"])
@pytest.mark.parametrize("slot", sorted(_PARAMETER_SLOTS))
def test_family_parameters_reject_bools_and_non_reals(slot, bad):
    with pytest.raises(DomainError):
        _PARAMETER_SLOTS[slot](bad)


@pytest.mark.parametrize("slot", sorted(_PARAMETER_SLOTS))
def test_family_parameters_accept_integral_and_numpy_reals(slot):
    # Reals of any numeric type pass.
    for good in (1, np.float32(1.0), np.int64(1)):
        _PARAMETER_SLOTS[slot](good)


# Every caller of the tau check.
_TAU_CALLERS = {
    "solve_r_tau": lambda t: solve_r_tau(Ginibre(), t),
    "dr_dtau": lambda t: dr_dtau(Ginibre(), t),
    "v_tau": lambda t: v_tau(Ginibre(), t, 1.0),
}


@pytest.mark.parametrize(
    "bad",
    [True, False, np.bool_(True), "0.5", 0.5 + 0.0j, math.nan, math.inf, -0.5, 1.5],
    ids=["True", "False", "np.True_", "str", "complex", "nan", "inf", "negative", "above-1"],
)
@pytest.mark.parametrize("caller", sorted(_TAU_CALLERS))
def test_tau_rejects_bools_and_non_reals(caller, bad):
    with pytest.raises(DomainError, match=r"tau must lie in \[0, 1\]"):
        _TAU_CALLERS[caller](bad)


@pytest.mark.parametrize("caller", sorted(_TAU_CALLERS))
def test_tau_accepts_integral_and_numpy_reals(caller):
    want = _TAU_CALLERS[caller](0.5)
    assert _TAU_CALLERS[caller](np.float64(0.5)) == want
    assert _TAU_CALLERS[caller](np.float32(0.5)) == want
    assert _TAU_CALLERS[caller](1) == _TAU_CALLERS[caller](np.int64(1))


@pytest.mark.parametrize(
    "origin",
    [
        {"q_origin": True},
        {"q_origin": "0"},
        {"q_origin": 0.0j},
        {"q_origin": math.nan},
        {"q_origin": -math.inf},
        {"laplacian_origin": True},
        {"laplacian_origin": "1"},
        {"laplacian_origin": math.nan},
        {"laplacian_origin": math.inf},
        {"laplacian_origin": 0.0},
        {"laplacian_origin": -1.0},
    ],
    ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()),
)
def test_custom_origin_data_rejects_bools_and_non_reals(origin):
    with pytest.raises(DomainError):
        Custom(lambda r: r * r, **origin)


def test_custom_origin_data_accepts_reals():
    for good in (1, 1.0, np.float32(1.0), np.int64(1)):
        p = Custom(lambda r: r * r, q_origin=good, laplacian_origin=good)
        assert type(p.q_at_zero()) is float and p.q_at_zero() == 1.0
        assert type(p.laplacian_at_zero()) is float and p.laplacian_at_zero() == 1.0
    # The origin value may be zero or negative.
    assert Custom(lambda r: r * r - 2.0, q_origin=-2).q_at_zero() == -2.0


def _sq_derivs():
    return [lambda r: 2.0 * r, lambda r: 2.0 + 0.0 * r, lambda r: 0.0 * r, lambda r: 0.0 * r]


@pytest.mark.parametrize("make", [list, tuple, iter, lambda ds: (d for d in ds)],
                         ids=["list", "tuple", "iterator", "generator"])
def test_custom_accepts_any_iterable_of_four_callables(make):
    p = Custom(lambda r: r * r, derivs=make(_sq_derivs()))
    want = Custom(lambda r: r * r, derivs=_sq_derivs())
    r = np.array([0.25, 1.0, 3.0])
    for order in range(5):
        assert np.array_equal(p.q_derivs(r, order), want.q_derivs(r, order)), order


@pytest.mark.parametrize("kwargs", [
    {"q": 3.0},
    {"q": None},
    {"q": lambda r: r * r, "derivs": [1, 2, 3, 4]},
    {"q": lambda r: r * r, "derivs": "abcd"},
    {"q": lambda r: r * r, "derivs": (d for d in _sq_derivs()[:3])},
    {"q": lambda r: r * r, "derivs": _sq_derivs() + [lambda r: r]},
    {"q": lambda r: r * r, "derivs": lambda r: 2.0 * r},
], ids=["q-float", "q-none", "derivs-ints", "derivs-str", "derivs-three-generated",
        "derivs-five", "derivs-one-callable"])
def test_custom_rejects_non_callables_and_wrong_counts(kwargs):
    with pytest.raises(DomainError, match="must be callable|exactly four callables"):
        Custom(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"q": 3.0},
    {"q": lambda r: r * r, "derivs": [1, 2, 3, 4]},
    {"q": lambda r: r * r, "support_radius": -1.0},
    {"q": lambda r: r * r, "q_origin": math.nan},
    {"q": lambda r: r * r, "laplacian_origin": 0.0},
], ids=["q", "derivs", "support_radius", "q_origin", "laplacian_origin"])
def test_custom_argument_errors_name_the_potential_once(kwargs):
    with pytest.raises(DomainError) as info:
        Custom(**kwargs, name="quartic")
    msg = str(info.value)
    assert msg.startswith("quartic: "), msg
    assert msg.count("quartic") == 1, msg


def test_dilate_by_a_huge_factor_gives_zero_not_an_overflow():
    # a**4 and a**2 overflow; q(r / a) has derivatives a^-k q^(k), which are 0
    # in floating point, as for a one-element array.
    p = dilate(Ginibre(), 1e80)
    assert p.q_derivs(1.0, 4) == 0.0
    assert p.q_derivs(np.array([1.0]), 4).tolist() == [0.0]
    assert dilate(Ginibre(), 1e200).laplacian_at_zero() == 0.0
    # where a**k is finite the profile divides by a**k itself
    a = 1.7
    assert dilate(MittagLeffler(1.5, 0.5), a).q_derivs(2.0, 3) == (
        MittagLeffler(1.5, 0.5).q_derivs(2.0 / a, 3) / a**3
    )


def test_dilate_raises_where_r_over_a_leaves_the_positive_floats():
    # r / a underflows to 0 or overflows to inf, where the base formula would
    # give inf (q of ML(1, 1) at 1e-500 is 2302.58...) or nan (ML(1, 0)).
    cases = [
        (dilate(MittagLeffler(1.0, 1.0), 1e200), 1e-300),
        (dilate(MittagLeffler(1.0, 0.0), 1e200), 1e-300),
        (dilate(Ginibre(), 1e-200), 1e200),
    ]
    for p, r in cases:
        for arg in (r, np.array([1.0, r])):
            for call in (lambda x: p.q_derivs(x), lambda x: p.laplacian(x),
                         lambda x: v_tau(p, 0.5, x)):
                with pytest.raises(DomainError, match=re.escape(f"{p.name}: r / a = ")):
                    call(arg)


# -- scalar calls give what one-element arrays give ---------------------------


def _ml_q(lam, c):
    # The callables run under the package's np.errstate, and dilate raises
    # DomainError before it would hand them r / a = 0 or inf.
    return lambda r: r ** (2.0 * lam) - 2.0 * c * np.log(r)


def _ml_derivs(lam, c):
    a = 2.0 * lam
    return (
        lambda r: a * r ** (a - 1.0) - 2.0 * c / r,
        lambda r: a * (a - 1.0) * r ** (a - 2.0) + 2.0 * c / r**2,
        lambda r: a * (a - 1.0) * (a - 2.0) * r ** (a - 3.0) - 4.0 * c / r**3,
        lambda r: a * (a - 1.0) * (a - 2.0) * (a - 3.0) * r ** (a - 4.0) + 12.0 * c / r**4,
    )


class _PowerPlusInverse(RadialPotential):
    """q = r^2 + 1/r, a user subclass whose hooks are plain formulas with no
    decorator: it gets its scalar semantics from the checked entry points."""

    name = "r^2 + 1/r"

    def _profile(self, r, order):
        return (
            r * r + 1.0 / r,
            2.0 * r - 1.0 / r**2,
            2.0 + 2.0 / r**3,
            -6.0 / r**4,
            24.0 / r**5,
        )[order]

    def _laplacian(self, r, orders):
        return tuple([(1.0 + 0.25 / r**3, -0.75 / r**4, 3.0 / r**5)[k] for k in orders])


@st.composite
def _family_and_radius(draw):
    kind = draw(st.sampled_from(["ginibre", "ml", "tu", "custom-ml", "circle-ml", "subclass"]))
    if kind == "ginibre":
        p = Ginibre(draw(st.floats(0.5, 2.0)))
    elif kind == "tu":
        p = TruncatedUnitary(draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 2.0)))
    elif kind == "subclass":
        p = _PowerPlusInverse()
    else:
        lam = draw(st.one_of(st.sampled_from([1.0, 0.5, 1.0 / 3.0, 2.0]), st.floats(0.2, 5.0)))
        c = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
        if kind == "ml":
            p = MittagLeffler(lam, c)
        else:
            derivs = _ml_derivs(lam, c) if kind == "custom-ml" else None
            p = Custom(_ml_q(lam, c), derivs=derivs, name=f"{kind}({lam!r}, {c!r})")
    if draw(st.booleans()):
        log_a = st.floats(math.log(1e-200), math.log(1e200))
        p = dilate(p, draw(st.one_of(st.floats(0.5, 2.0), log_a.map(math.exp))))
    if p.support_radius is not None and draw(st.booleans()):
        # the support edge: from 1.4e-10 inside it to 1.8e-11 beyond it
        ulps = draw(st.integers(-64, 8)) * draw(st.sampled_from([1.0, 1e2, 1e4]))
        return p, p.support_radius * (1.0 + ulps * _EPS)
    return p, math.exp(draw(st.floats(math.log(1e-300), math.log(1e300))))


def _accessors(p):
    for order in range(5):
        yield f"q_derivs order {order}", lambda r, k=order: p.q_derivs(r, k)
    yield "v_tau", lambda r: v_tau(p, 0.3, r)
    yield "laplacian", p.laplacian
    yield "laplacian_dr", p.laplacian_dr
    yield "b1", lambda r: b1(p, r)


def _outcome(call):
    """("value", result) or ("raises", class) for package errors; any other
    exception, a numpy warning included, fails the test."""
    try:
        return "value", call()
    except CoulombGasError as exc:
        return "raises", type(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_family_and_radius())
@example((MittagLeffler(1.0, 1.0), 1e200))
@example((MittagLeffler(0.5, 1.0), 1e-200))
@example((TruncatedUnitary(1.0, 1.0), math.sqrt(2.0)))
@example((Custom(lambda r: r * r + 1.0 / r**400), 0.1))
@example((MittagLeffler(20.0, 0.0), 1e-10))
@example((dilate(Ginibre(), 1e80), 1.0))
@example((dilate(MittagLeffler(1.0, 1.0), 1e200), 1e-300))
@example((dilate(MittagLeffler(1.0, 0.0), 1e200), 1e-300))
@example((dilate(Custom(_ml_q(1.0, 1.0)), 1e-200), 1e200))
def test_scalar_calls_give_what_one_element_arrays_give(case):
    # A scalar is evaluated as a one-element array, so the two calls give
    # the same bits (nan and +-inf included) or raise the same class, and a
    # scalar call returns a Python float, never a numpy scalar.
    p, r = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in _accessors(p):
            scalar = _outcome(lambda: call(r))
            array = _outcome(lambda: call(np.array([r])))
            assert scalar[0] == array[0], (p.name, name, r, scalar, array)
            if scalar[0] == "raises":
                assert scalar == array, (p.name, name, r, scalar, array)
                continue
            s, a = scalar[1], np.asarray(array[1], dtype=float).reshape(-1)
            assert type(s) is float, (p.name, name, r, type(s))
            assert np.array([s]).view(np.uint64) == a.view(np.uint64), (p.name, name, r, s, a)


def _arrays_only(f):
    # The callable contract: 1-D float arrays only; a Python float raises.
    def g(r):
        if type(r) is not np.ndarray:
            raise TypeError(f"{r!r} is not an array")
        return f(r)

    return g


@pytest.mark.parametrize("derivs", [True, False], ids=["analytic", "circle"])
def test_a_custom_taking_only_arrays_works_at_every_scalar_entry_point(derivs):
    # Every scalar read hands a Custom's callables a one-element array, so
    # an array-only ML(1/2, 1) profile answers each scalar entry point, as
    # the one-element array call does, and solves its droplet.
    lam, c = 0.5, 1.0
    p = Custom(_arrays_only(_ml_q(lam, c)),
               derivs=[_arrays_only(f) for f in _ml_derivs(lam, c)] if derivs else None)
    ref = MittagLeffler(lam, c)
    r = 1.3
    for name, call in _accessors(p):
        got = call(r)
        assert type(got) is float, name
        assert np.array([got]).view(np.uint64) == call(np.array([r])).view(np.uint64), name
        want = dict(_accessors(ref))[name](r)
        assert abs(got - want) <= 1e-6 * abs(want) + 1e-12, (name, got, want)
    for tau in (0.0, 0.5, 1.0):
        assert abs(solve_r_tau(p, tau) - ref.r_tau(tau)) <= 1e-12 * ref.r_tau(tau), tau
    d = droplet_of(p)
    assert (d.kind, d.r0, d.r1) == ("annulus", solve_r_tau(p, 0.0), solve_r_tau(p, 1.0))
