import math

import numpy as np
import pytest

from coulombgas.droplet import _bisect_r_tau, dr_dtau, droplet_of, solve_r_tau
from coulombgas.errors import DomainError, InvalidPotentialError
from coulombgas.potential import (
    Custom,
    Ginibre,
    MittagLeffler,
    TruncatedUnitary,
    dilate,
)


def test_ginibre_droplet_is_unit_disc():
    d = droplet_of(Ginibre())
    assert d.kind == "disc"
    assert d.r0 == 0.0
    assert abs(d.r1 - 1.0) < 1e-13


def test_ml_droplet_annulus():
    d = droplet_of(MittagLeffler(1.0, 1.0))
    assert d.kind == "annulus"
    assert abs(d.r0 - 1.0) < 1e-12
    assert abs(d.r1 - math.sqrt(2.0)) < 1e-12

    d2 = droplet_of(MittagLeffler(2.0, 1.0))
    assert abs(d2.r0 - 0.5 ** 0.25) < 1e-12
    assert abs(d2.r1 - 1.0) < 1e-12


def test_tu_droplet_fills_support():
    for alpha, R in ((1.0, 1.0), (2.0, 1.5), (0.5, 2.0)):
        d = droplet_of(TruncatedUnitary(alpha, R))
        assert d.kind == "disc"
        assert abs(d.r1 - R) < 1e-12, (alpha, R)


def test_droplet_dilation():
    base = MittagLeffler(1.0, 1.0)
    d0 = droplet_of(base)
    d3 = droplet_of(dilate(base, 3.0))
    assert abs(d3.r0 - 3.0 * d0.r0) < 1e-11
    assert abs(d3.r1 - 3.0 * d0.r1) < 1e-11


def test_ginibre_r_tau_closed_form():
    p = Ginibre()
    for tau in np.linspace(0.01, 1.0, 25):
        assert abs(solve_r_tau(p, float(tau)) - math.sqrt(tau)) < 1e-12


def _ml_custom(lam, c):
    """The ML profile as a Custom potential with analytic derivatives."""
    k = 2.0 * lam
    return Custom(
        lambda r: r**k - 2.0 * c * np.log(r),
        derivs=(
            lambda r: k * r ** (k - 1.0) - 2.0 * c / r,
            lambda r: k * (k - 1.0) * r ** (k - 2.0) + 2.0 * c / r**2,
            lambda r: k * (k - 1.0) * (k - 2.0) * r ** (k - 3.0) - 4.0 * c / r**3,
            lambda r: k * (k - 1.0) * (k - 2.0) * (k - 3.0) * r ** (k - 4.0) + 12.0 * c / r**4,
        ),
    )


_CLOSED_FORM_CASES = [
    *(
        (f"ml(lam={lam:.3g}, c={c})", MittagLeffler(lam, c), MittagLeffler(lam, c))
        for lam in (1.0, 0.5, 1.0 / 3.0)
        for c in (0.0, 1.3)
    ),
    ("ginibre(2)", Ginibre(2.0), Ginibre(2.0)),
    ("tu(2.3, 0.6)", TruncatedUnitary(2.3, 0.6), TruncatedUnitary(2.3, 0.6)),
    ("dilate(ml)", dilate(MittagLeffler(0.5, 1.3), 1.7), dilate(MittagLeffler(0.5, 1.3), 1.7)),
    # No closed form: solve_r_tau bisects the dilated Custom profile, which
    # must agree with the dilated closed form of the same ML profile.
    ("dilate(custom)", dilate(_ml_custom(0.5, 1.3), 1.7), dilate(MittagLeffler(0.5, 1.3), 1.7)),
]


@pytest.mark.parametrize(
    "label, p, closed", _CLOSED_FORM_CASES, ids=[case[0] for case in _CLOSED_FORM_CASES]
)
def test_closed_form_r_tau_matches_bisection(label, p, closed):
    # Bound: the bisection stops once its bracket is 1e-13 max(1, r) wide.
    for tau in np.linspace(0.0, 1.0, 201):
        tau = float(tau)
        want = _bisect_r_tau(p, tau)
        got = closed.r_tau(tau)
        assert got is not None
        assert abs(got - want) <= 1e-13 * max(1.0, want), (label, tau, got, want)
        # solve_r_tau returns the closed form when p has one, else bisects.
        assert solve_r_tau(p, tau) == (want if p.r_tau(tau) is None else got)


def test_closed_form_overflow_is_an_invalid_potential():
    # ((1 + 1) / 1e-3)^500 overflows; the bisection scan reported the same.
    with pytest.raises(InvalidPotentialError):
        solve_r_tau(MittagLeffler(1e-3, 1.0), 1.0)


def test_disc_small_tau_scaling():
    # near the origin r_tau ~ sqrt(tau / laplacian(0)) with a sqrt(tau)
    # relative correction
    for p in (Ginibre(), TruncatedUnitary(1.0, 1.0), TruncatedUnitary(2.0, 1.5)):
        dq0 = p.laplacian_at_zero()
        worst = 0.0
        for tau in np.geomspace(1e-6, 1e-2, 9):
            r = solve_r_tau(p, float(tau))
            e = abs(r * math.sqrt(dq0 / tau) - 1.0)
            worst = max(worst, e / math.sqrt(tau))
        assert worst < 10.0, p


def test_solve_r_tau_at_zero():
    assert solve_r_tau(Ginibre(), 0.0) == 0.0
    r0 = solve_r_tau(MittagLeffler(1.0, 1.0), 0.0)
    assert abs(r0 - 1.0) < 1e-12


def test_dr_dtau_closed_forms():
    p = Ginibre()
    for tau in (0.1, 0.5, 1.0):
        assert abs(dr_dtau(p, tau) - 1.0 / (2.0 * math.sqrt(tau))) < 1e-11
    # ml with lam=1, c=1: r_tau = sqrt(1+tau), laplacian = 1
    p2 = MittagLeffler(1.0, 1.0)
    for tau in (0.2, 0.7, 1.0):
        want = 1.0 / (2.0 * math.sqrt(1.0 + tau))
        assert abs(dr_dtau(p2, tau) - want) < 1e-11


def test_dr_dtau_matches_finite_difference():
    p = TruncatedUnitary(1.0, 1.0)
    h = 1e-6
    for tau in (0.3, 0.8):
        fd = (solve_r_tau(p, tau + h) - solve_r_tau(p, tau - h)) / (2 * h)
        assert abs(fd - dr_dtau(p, tau)) < 1e-6


def test_dr_dtau_guards():
    with pytest.raises(DomainError):
        dr_dtau(Ginibre(), 0.0)
    with pytest.raises(DomainError):
        dr_dtau(Ginibre(), 1e-15)
    with pytest.raises(DomainError):
        dr_dtau(Ginibre(), 1.5)
    # annulus potentials have a genuine inner radius, tiny tau is fine there
    val = dr_dtau(MittagLeffler(1.0, 1.0), 1e-13)
    assert abs(val - 0.5) < 1e-6


def test_concave_profile_rejected():
    p = Custom(
        q=lambda r: -(r * r),
        derivs=(
            lambda r: -2.0 * r,
            lambda r: -2.0 + 0.0 * r,
            lambda r: 0.0 * r,
            lambda r: 0.0 * r,
        ),
        name="concave",
    )
    with pytest.raises(InvalidPotentialError):
        droplet_of(p)
