import math

import numpy as np
import pytest

from coulombgas.errors import DomainError, UnsupportedOrderError
from coulombgas.norms import NormQuery
from coulombgas.potential import (
    Custom,
    Ginibre,
    MittagLeffler,
    TruncatedUnitary,
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
    assert p.laplacian_dr2(0.3) == 0.0
    assert p.q_at_zero() == 0.0
    assert p.laplacian_at_zero() == 1.0


def test_ginibre_scale():
    p = Ginibre(scale=2.0)
    assert p.q_derivs(2.0) == 1.0
    assert abs(p.laplacian(1.0) - 0.25) < 1e-15


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
    # laplacian_dr and laplacian_dr2 must be the true r-derivatives
    for p in (MittagLeffler(1.5, 0.8), TruncatedUnitary(2.0, 1.5), Ginibre()):
        hi = 0.99 * (p.support_radius if p.support_radius is not None else 2.0)
        for r in np.linspace(0.3, hi, 7):
            h = 1e-4 * max(1.0, r)
            fd1 = _fd5(p.laplacian, r, h)
            assert abs(fd1 - p.laplacian_dr(r)) < 1e-6 * max(1.0, abs(fd1))
            fd2 = _fd5(p.laplacian_dr, r, h)
            assert abs(fd2 - p.laplacian_dr2(r)) < 1e-5 * max(1.0, abs(fd2))


def test_q_derivs_rejects_unsupported_order():
    p = Ginibre()
    with pytest.raises(UnsupportedOrderError):
        p.q_derivs(1.0, 5)
    with pytest.raises(UnsupportedOrderError):
        p.q_derivs(1.0, -1)


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


def test_custom_finite_difference_fallback():
    lam, c = 1.5, 0.8
    ref = MittagLeffler(lam, c)
    p = Custom(q=lambda r: r ** (2 * lam) - 2 * c * np.log(r), name="ml-fd")
    tol = {1: 1e-8, 2: 1e-6, 3: 1e-4, 4: 1e-2}
    for r in (0.5, 1.0, 1.5):
        for order in (1, 2, 3, 4):
            a, b = p.q_derivs(r, order), ref.q_derivs(r, order)
            assert abs(a - b) < tol[order] * max(1.0, abs(b)), (r, order)


def test_custom_scalar_callable():
    # a callable that only handles scalars still works when declared as such
    p = Custom(q=lambda r: r * r, vectorized=False, name="scalar-sq")
    out = p.q_derivs(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(out, [1.0, 4.0, 9.0])


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
    p = Ginibre()
    tau, r = 0.4, 1.2
    assert abs(v_tau(p, tau, r, 0) - (r * r - 2 * tau * math.log(r))) < 1e-14
    assert abs(v_tau(p, tau, r, 1) - (2 * r - 2 * tau / r)) < 1e-14
    assert abs(v_tau(p, tau, r, 2) - (2 + 2 * tau / r**2)) < 1e-14
    assert abs(v_tau(p, tau, r, 3) - (-4 * tau / r**3)) < 1e-14
    assert abs(v_tau(p, tau, r, 4) - (12 * tau / r**4)) < 1e-14


def test_v_tau_derivative_identities_vs_finite_differences():
    p = MittagLeffler(1.5, 0.3)
    tau, r, h = 0.6, 1.1, 1e-4

    for order in (1, 2, 3):
        fd = _fd5(lambda x, o=order: v_tau(p, tau, x, o - 1), r, h)
        assert abs(fd - v_tau(p, tau, r, order)) < 1e-6, order


def test_rqprime_monotone_on_droplet():
    # r q'(r) increasing is what makes the hard-edge radii well defined
    for p in (Ginibre(), MittagLeffler(2.0, 1.0), TruncatedUnitary(1.0, 1.0)):
        hi = p.support_radius if p.support_radius is not None else 3.0
        rs = np.linspace(0.05, 0.999 * hi, 50)
        vals = rs * np.array([p.q_derivs(float(r), 1) for r in rs])
        assert np.all(np.diff(vals) > 0), p
