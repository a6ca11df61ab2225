import ast
import dataclasses
import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mp_reference
from coulombgas import droplet
from coulombgas.droplet import Droplet, dr_dtau, droplet_of, solve_r_tau
from coulombgas.errors import CoulombGasError, DomainError, InvalidPotentialError
from coulombgas.oracles import tu_log_z
from coulombgas.partition import log_z_exact
from coulombgas.potential import (
    Custom,
    Ginibre,
    MittagLeffler,
    RadialPotential,
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


@pytest.mark.parametrize(
    "p, r1",
    [(TruncatedUnitary(1.0, 5e-7), 5e-7), (Ginibre(1e-20), 1e-20), (Ginibre(1e20), 1e20),
     (MittagLeffler(1.0, 1e-20), 1.0), (dilate(MittagLeffler(1.0, 1.0), 1e-20), 2**0.5 * 1e-20)],
    ids=["tu-R5e-7", "ginibre-1e-20", "ginibre-1e20", "ml-c1e-20", "dilated-ml11-1e-20"],
)
def test_laplacian_grid_is_relative_to_the_droplet(monkeypatch, p, r1):
    # droplet_of checks ΔQ > 0 on 64 points from 0.9 r0 (1e-6 r1 for a
    # disc) to 1.1 r1, short of a hard wall: the same neighbourhood at every
    # scale.  An absolute floor of 1e-6 put the whole grid beyond a small
    # droplet, and past the wall of TU(1, 5e-7) at 7.07e-7.
    grids = []
    laplacian = p.laplacian
    monkeypatch.setattr(p, "laplacian", lambda r: grids.append(r) or laplacian(r))
    d = droplet_of(p)
    assert abs(d.r1 - r1) <= 1e-12 * r1
    (grid,) = grids
    lo = 0.9 * d.r0 if d.kind == "annulus" else 1e-6 * d.r1
    assert grid[0] == lo and grid[-1] <= 1.1 * d.r1
    assert np.all(np.diff(grid) > 0.0)
    if p.support_radius is not None:
        assert grid[-1] < p.support_radius


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
    # No closed form: solve_r_tau runs the Newton solve on the dilated Custom
    # profile, which must agree with the dilated closed form of the same ML
    # profile.
    ("dilate(custom)", dilate(_ml_custom(0.5, 1.3), 1.7), dilate(MittagLeffler(0.5, 1.3), 1.7)),
]


@pytest.mark.parametrize(
    "label, p, closed", _CLOSED_FORM_CASES, ids=[case[0] for case in _CLOSED_FORM_CASES]
)
def test_closed_form_r_tau_matches_bisection(label, p, closed):
    # Bound: the Newton solve stops at a step of at most 1e-13 r, which
    # leaves a quadratically smaller error, or at a bracket of at most
    # 1e-13 hi, whose midpoint is within 0.5e-13 r; the rounding of r q'(r)
    # and of the closed form adds a few eps r.  p's profile behind the
    # Custom interface has no closed-form root, so solve_r_tau runs Newton.
    iterative = Custom(
        p.q_derivs,
        derivs=[partial(p.q_derivs, order=k) for k in range(1, 5)],
        support_radius=p.support_radius,
    )
    for tau in np.linspace(0.0, 1.0, 201):
        tau = float(tau)
        want = solve_r_tau(iterative, tau)
        got = closed.r_tau(tau)
        assert got is not None
        assert abs(got - want) <= 1e-13 * want, (label, tau, got, want)
        # solve_r_tau returns the closed form when p has one, else runs Newton.
        assert solve_r_tau(p, tau) == (want if p.r_tau(tau) is None else got)


def test_closed_form_overflow_is_an_invalid_potential():
    # ((1 + 1) / 1e-3)^500 overflows: the failure the bracket scan reports.
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


_EPS = float(np.finfo(float).eps)
_ML_ROOT_CASES = [(lam, c) for lam in (1.0, 0.5, 1.0 / 3.0, 2.0 / 3.0, 2.0)
                  for c in (0.5, 1.1, 1.3, 2.0)]


def _circle_root_error(lam, c, r):
    """How far the circle read's q' error can move the root r of r q'(r) =
    2 tau for the ML(lam, c) profile without derivs.  By the error model
    that tests/test_potential.py derives, q' errs by at most
    e1 = 3 (40 eps m + 2 3^-32 (r^(2 lam) + 2c)) / r, m the largest
    magnitude of q's terms on the circle of radius r / 3; g = r q' - 2 tau
    has g' = 4 lam^2 r^(2 lam - 1), so the root moves by r e1 / g'."""
    far = max(abs(math.log(2.0 * r / 3.0)), abs(math.log(4.0 * r / 3.0)))
    m = (4.0 * r / 3.0) ** (2.0 * lam) + 2.0 * c * (far + math.asin(1.0 / 3.0))
    e1 = 3.0 * (40.0 * _EPS * m + 2.0 * 3.0**-32 * (r ** (2.0 * lam) + 2.0 * c)) / r
    return e1 / (4.0 * lam * lam * r ** (2.0 * lam - 2.0))


@pytest.mark.parametrize("derivs", ["analytic", "circle"])
@pytest.mark.parametrize("lam, c", _ML_ROOT_CASES)
def test_custom_root_matches_ml_closed_form(lam, c, derivs):
    # Bound, derived before the run: the Newton step or bracket stops at a
    # relative 1e-13.  Without derivs, the circle read's q' moves the root
    # by _circle_root_error, and the closed form's rounding, within 9 eps /
    # lam (test_custom_ml_roots_over_a_hundred_decades_of_tau), is added
    # there too.  The droplet's radii are the roots at tau = 0 and 1.
    p = _ml_custom(lam, c)
    if derivs == "circle":
        p = Custom(p._q)
    closed = MittagLeffler(lam, c)
    for j in range(201):
        tau = j / 200
        want = closed.r_tau(tau)
        bound = 1e-13 * want
        if derivs == "circle":
            bound += 9.0 * _EPS / lam * want + _circle_root_error(lam, c, want)
        got = solve_r_tau(p, tau)
        assert abs(got - want) <= bound, (tau, got, want)
    assert droplet_of(p) == Droplet(solve_r_tau(p, 0.0), solve_r_tau(p, 1.0), "annulus")


def test_custom_root_at_a_kink_of_r_q_prime():
    # r q'(r) = (r / k)^20 below k and r / k above: q is C^1, q'' jumps at
    # k, and the root of r q' = 2 tau at tau = 1/2 sits on the kink.
    k, p_left = 1.9, 20.0

    def branch(r, left, right):
        return np.where(r <= k, left(r / k), right(r / k))

    q = lambda r: branch(r, lambda x: x**p_left / p_left, lambda x: x + 1.0 / p_left - 1.0)
    derivs = (
        lambda r: branch(r, lambda x: x**p_left, lambda x: x) / r,
        lambda r: branch(r, lambda x: (p_left - 1.0) * x**p_left, lambda x: 0.0 * x) / r**2,
        lambda r: branch(r, lambda x: (p_left - 1.0) * (p_left - 2.0) * x**p_left,
                         lambda x: 0.0 * x) / r**3,
        lambda r: branch(r, lambda x: (p_left - 1.0) * (p_left - 2.0) * (p_left - 3.0) * x**p_left,
                         lambda x: 0.0 * x) / r**4,
    )
    p = Custom(q, derivs=derivs, name="kinked")
    # solve_r_tau starts Newton from the r q'(r) table, whose bracket is the
    # three cells around k.  The upward scan, which a potential without a
    # table starts from, brackets the root in [1, 2]; the first Newton step
    # from the midpoint lands beyond 2, so the midpoint fallback runs.
    g = lambda r: r * float(p.q_derivs(r, 1)) - 1.0
    gp = lambda r: float(p.q_derivs(r, 1)) + r * float(p.q_derivs(r, 2))
    assert 1.5 - g(1.5) / gp(1.5) > 2.0
    assert abs(solve_r_tau(p, 0.5) - k) <= 1e-13 * k
    assert droplet._table(p)
    scanned = Custom(q, derivs=derivs, name="kinked")
    vars(scanned)["_r_tau_table"] = ()  # the cache of a potential without a table
    lo, hi = droplet._scan_brackets(scanned, np.array([0.5]))
    assert (lo.tolist(), hi.tolist()) == ([1.0], [2.0])
    assert abs(solve_r_tau(scanned, 0.5) - k) <= 1e-13 * k


def test_custom_root_on_a_steep_profile():
    # r q'(r) = (r / R)^1500: a Newton step from above the root moves r by
    # only about r / 1500, which would exhaust the iteration cap unless
    # slow steps fall back to the midpoint.
    R, pw = 1.3, 1500.0
    p = Custom(
        lambda r: (r / R) ** pw / pw,
        derivs=(
            lambda r: (r / R) ** pw / r,
            lambda r: (pw - 1.0) * (r / R) ** pw / r**2,
            lambda r: (pw - 1.0) * (pw - 2.0) * (r / R) ** pw / r**3,
            lambda r: (pw - 1.0) * (pw - 2.0) * (pw - 3.0) * (r / R) ** pw / r**4,
        ),
        name="steep",
    )
    for tau in (0.3, 0.5, 1.0):
        want = R * (2.0 * tau) ** (1.0 / pw)
        assert abs(solve_r_tau(p, tau) - want) <= 1e-13 * want, tau
    # r q' underflows to 0 at most table radii, so there is no table and
    # every level went through the upward scan.
    assert droplet._table(p) == ()


def test_custom_root_derivative_calls_per_solve():
    # Plain bisection needs 58 q' calls per solve on this profile; the
    # Newton iteration needs a few q', q'' pairs, plus the bracket scan at
    # tau in {0, 1} and the one array call that builds the table.
    calls = []

    class Counting(Custom):
        def _profile(self, r, order):
            if order:
                calls.append(order)
            return super()._profile(r, order)

    base = _ml_custom(1.0 / 3.0, 1.3)
    p = Counting(base._q, derivs=base._derivs)
    for j in range(201):
        solve_r_tau(p, j / 200)
    assert len(calls) / 201 <= 20.0


# The four Custom ML profiles of this file; none has a closed-form root, so
# every interior level goes through the r q'(r) table.
_TABLE_CASES = [(0.5, 1.3), (1.0 / 3.0, 1.3), (0.5, 1.0), (1.0, 0.0)]


@pytest.mark.parametrize("derivs", ["analytic", "circle"])
def test_table_results_do_not_depend_on_call_order(derivs):
    # The first solve of one copy is at tau = 0, of the other at tau = 1,
    # and neither builds the table; the interior levels then build it.
    taus = [j / 200 for j in range(201)]
    for lam, c in _TABLE_CASES:
        first, second = (
            _ml_custom(lam, c) if derivs == "analytic" else Custom(_ml_custom(lam, c)._q)
            for _ in range(2)
        )
        up = [solve_r_tau(first, t) for t in taus]
        down = [solve_r_tau(second, t) for t in reversed(taus)]
        assert [r.hex() for r in up] == [r.hex() for r in reversed(down)], (lam, c)


class _Counting(Custom):
    """Custom that records the order of every derivative hook call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def _profile(self, r, order):
        if order:
            self.calls.append(order)
        return super()._profile(r, order)


@pytest.mark.parametrize("derivs", ["analytic", "circle"])
@pytest.mark.parametrize("lam, c", _TABLE_CASES)
def test_table_is_built_once_by_one_array_call(lam, c, derivs):
    # Every solve reads one row at a time: 1 point of q' and of q'', or the
    # 18 points of one circle of q.  The table's edge solve reads two rows
    # (r0 and r1 of an annulus) a round, and only the table's one array
    # read, of q' and q'' at its 255 inner radii, reads more.
    sizes = []

    def counted(f):
        return lambda r: (sizes.append(np.size(r)), f(r))[1]

    base = _ml_custom(lam, c)
    if derivs == "analytic":
        p, row, reads = Custom(base._q, derivs=[counted(d) for d in base._derivs]), 1, 2
    else:
        p, row, reads = Custom(counted(base._q)), 18, 1
    for j in range(201):
        solve_r_tau(p, j / 200)
    assert set(sizes) <= {row, 2 * row, 255 * row}
    assert [size for size in sizes if size > 2 * row] == [255 * row] * reads
    assert droplet._table(p)


@pytest.mark.parametrize("derivs", ["analytic", "circle"])
@pytest.mark.parametrize("lam, c", _TABLE_CASES)
def test_droplet_edges_are_the_table_edges(lam, c, derivs):
    # droplet_of and the table each solve both edges in one two-row call.
    p = _ml_custom(lam, c) if derivs == "analytic" else Custom(_ml_custom(lam, c)._q)
    d = droplet_of(p)
    radii, _ = droplet._table(p)
    assert (d.r0.hex(), d.r1.hex()) == (radii[0].item().hex(), radii[-1].item().hex())


@pytest.mark.parametrize("lam, c", _TABLE_CASES)
def test_table_newton_calls_per_interior_solve(lam, c):
    # Bound, derived before the run.  For ML(lam, c), g(r) = r q'(r) =
    # 2 lam r^(2 lam) - 2c, with g' = 4 lam^2 r^(2 lam - 1) and
    # g'' = 4 lam^2 (2 lam - 1) r^(2 lam - 2), both monotone in r, so their
    # extremes on the bracket [lo, hi] (the root's table cell of width h,
    # widened by a cell on each side) sit at its ends.  With
    # K = max|g''| / (2 min g'):
    # - the linear interpolate starts within e0 = K h^2 / 4 of the root;
    # - a Newton step from error e leaves error at most K e^2, and is at
    #   most e + K e^2 + d long, where d = 4 eps (2 lam r^(2 lam) + 2c) / g'
    #   covers the rounding of g;
    # - the loop returns on the first iteration whose step is at most
    #   1e-13 r, and r >= lo, so a step of at most 1e-13 lo returns; each
    #   iteration calls q' and q'' once.
    k = 2.0 * lam
    g1 = lambda r: k * k * r ** (k - 1.0)
    g2 = lambda r: abs(k * k * (k - 1.0) * r ** (k - 2.0))
    p = _Counting(_ml_custom(lam, c)._q, derivs=_ml_custom(lam, c)._derivs)
    solve_r_tau(p, 0.5)
    radii, values = droplet._table(p)
    for j in range(1, 200):
        tau = j / 200
        i = next(i for i in range(len(values) - 1) if values[i] <= 2.0 * tau < values[i + 1])
        lo, hi = radii[max(i - 1, 0)], radii[min(i + 2, len(radii) - 1)]
        kk = max(g2(lo), g2(hi)) / (2.0 * min(g1(lo), g1(hi)))
        d = 4.0 * _EPS * (k * hi**k + 2.0 * c) / min(g1(lo), g1(hi))
        tol = 1e-13 * lo
        e, iterations = kk * (radii[i + 1] - radii[i]) ** 2 / 4.0, 1
        while e + kk * e * e + d > tol:
            e, iterations = kk * e * e, iterations + 1
            assert iterations < 10, (tau, e)
        p.calls.clear()
        solve_r_tau(p, tau)
        assert len(p.calls) <= 2 * iterations, (tau, p.calls, iterations)


@dataclasses.dataclass(frozen=True)
class _FrozenGinibre(RadialPotential):
    """q = r^2 as a frozen dataclass: a subclass that forbids setting
    attributes, with no closed-form root."""

    name = "frozen r^2"

    def _profile(self, r, order):
        return (r * r, 2.0 * r, 2.0 + 0.0 * r, 0.0 * r, 0.0 * r)[order]


def test_any_subclass_keeps_a_table():
    p = _FrozenGinibre()
    for tau in (0.25, 0.5, 0.81):
        assert abs(solve_r_tau(p, tau) - math.sqrt(tau)) <= 1e-13
    assert droplet._table(p)


def test_root_at_a_table_edge_comes_from_the_table():
    # q = r^2 without derivs: r_tau = sqrt(tau).  At tau = 1e-30 the
    # root 1e-15 lies in the table's first cells, next to its lower edge
    # r0 = 0, and below the scan's first point r = 1e-12; the table's
    # Newton stops at a relative 1e-13, which is the bound.
    p = Custom(lambda r: r * r)
    assert abs(solve_r_tau(p, 0.25) - 0.5) <= 1e-13
    assert droplet._table(p)
    assert abs(solve_r_tau(p, 1e-30) - 1e-15) <= 1e-13 * 1e-15
    # At the smallest tau the linear interpolate underflows to r0 = 0, where
    # q' is not defined; Newton starts at the bracket midpoint instead, and
    # the root 2.2e-162 is out of reach of the iteration cap.
    with pytest.raises(CoulombGasError, match=r"tau = 5e-324"):
        solve_r_tau(p, 5e-324)


# q = r^2: r_tau = sqrt(tau).  Newton stops within 0.5e-13 r of the root
# (half a relative bracket of 1e-13, or a quadratically smaller error after
# a step of at most 1e-13 r).  Rounding adds the rest.  Analytic: r q'(r) =
# 2 r^2 rounds to eps, and the root moves by half that.  Without derivs the
# circle read is exact on r^2 but for rounding (_circle_root_error with
# lam = 1, c = 0): q' errs by at most 120 eps (4/3)^2 r = 214 eps r, or
# 107 eps of q' = 2r, which moves the root by half that.  In both cases the
# bound is 1e-13 r = 450 eps r.
@pytest.mark.parametrize("derivs", ["analytic", "circle"])
@pytest.mark.parametrize("tau", [1e-20, 1e-24, 1e-26, 1e-30, 1e-60, 1e-100])
def test_tiny_tau_roots_of_a_custom_disc(tau, derivs):
    p = _ml_custom(1.0, 0.0) if derivs == "analytic" else Custom(lambda r: r * r)
    want = math.sqrt(tau)
    assert abs(solve_r_tau(p, tau) - want) <= 1e-13 * want


@st.composite
def _custom_ml(draw):
    """(lam, c, derivs, the Custom ML(lam, c) profile) for a disc (c = 0) or
    an annulus."""
    derivs = draw(st.sampled_from(["analytic", "circle"]))
    if draw(st.booleans()):
        lam, c = draw(st.floats(1.0, 4.0)), 0.0
    else:
        lam, c = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    p = _ml_custom(lam, c)
    return lam, c, derivs, p if derivs == "analytic" else Custom(p._q)


# Bound, derived before the run, on |solve_r_tau - r| with
# r = MittagLeffler(lam, c).r_tau(tau).  g = r q'(r) - 2 tau equals
# k r^k - 2c - 2 tau with k = 2 lam, and r g'(r) = k^2 r^k.
# - The Newton stop: 1e-13 r.
# - Rounding of g: at most 4 eps (k r^k + 2c).  Over g', and with
#   2c <= k r^k at the root, that moves the root by at most 8 eps r / k.
# - The closed form ((tau + c) / lam)^(1 / (2 lam)): eps (1 / k + 1) r.
#   With the last term, at most 18 eps r / k = 9 eps r / lam for lam <= 4.
# - Without derivs, the circle read's q' moves the root by at most
#   _circle_root_error(lam, c, r).
@settings(derandomize=True, max_examples=80, deadline=None)
@given(case=_custom_ml(), log_tau=st.floats(-100.0, 0.0))
def test_custom_ml_roots_over_a_hundred_decades_of_tau(case, log_tau):
    lam, c, derivs, p = case
    tau = 10.0**log_tau
    want = MittagLeffler(lam, c).r_tau(tau)
    bound = (1e-13 + 9.0 * _EPS / lam) * want
    if derivs == "circle":
        bound += _circle_root_error(lam, c, want)
    got = solve_r_tau(p, tau)
    assert abs(got - want) <= bound, (lam, c, derivs, tau, got, want)


def _steep_power(derivs):
    # q = (r/1.3)^k / k with k = 5000: r q' = (r/1.3)^k, so r_tau = 1.3 (2 tau)^(1/k).
    # The power overflows to inf in float64 at r = 2.
    k = 5000

    def q(r):
        return (r / 1.3) ** k / k

    d = [
        lambda r: (r / 1.3) ** (k - 1) / 1.3,
        lambda r: (k - 1) * (r / 1.3) ** (k - 2) / 1.3**2,
        lambda r: (k - 1) * (k - 2) * (r / 1.3) ** (k - 3) / 1.3**3,
        lambda r: (k - 1) * (k - 2) * (k - 3) * (r / 1.3) ** (k - 4) / 1.3**4,
    ]
    return Custom(q, derivs=d if derivs else None)


@pytest.mark.parametrize("tau", [0.01, 0.25, 0.5, 1.0])
def test_scalar_overflow_evaluates_like_the_array_path(tau):
    r = solve_r_tau(_steep_power(True), tau)
    want = 1.3 * (2.0 * tau) ** (1.0 / 5000)
    assert abs(r - want) <= 1e-13 * want, (r, want)


@pytest.mark.parametrize("derivs", [True, False], ids=["analytic", "circle"])
def test_paired_read_of_an_overflowing_scalar_is_the_separate_reads(derivs):
    # At r = 2 the steep profile overflows, so q' and q'' are inf; or,
    # without derivs, the circle's nan of inf - inf, as Python floats and
    # as the separate calls give.
    p = _steep_power(derivs)
    got = p._q_derivs_each(2.0, (1, 2))
    want = (p.q_derivs(2.0, 1), p.q_derivs(2.0, 2))
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert got == (math.inf, math.inf) if derivs else all(map(math.isnan, got))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("derivs", [True, False], ids=["analytic", "circle"])
def test_scalar_overflow_raises_package_errors(derivs):
    p = _steep_power(derivs)
    with pytest.raises(CoulombGasError):
        droplet_of(p)
    if not derivs:
        # r^5000 grows by (4/3)^5000 across the circle about r = 1, so its
        # mean misses q(1): the guard raises, where no bracket is found.
        with pytest.raises(DomainError, match="mean of q on the circle about r = 1.0 "):
            solve_r_tau(p, 0.5)


def _scan_alone(p, tau):
    # The reference for the shared scan: one row's own upward scan, one
    # read of r q' a candidate, from the bottom of the scan to the first
    # candidate above 2 tau.
    target = 2.0 * tau
    if tau == 0.0:
        try:
            droplet._laplacian_at(p, 0.0)
            return 0.0, 0.0
        except InvalidPotentialError:
            pass
    lo = 1e-12 if p.support_radius is None else min(1e-12, p.support_radius * 1e-15)
    if lo * p.q_derivs(lo, 1) - target >= 0.0:
        if tau == 0.0:
            return 0.0, 0.0
        raise InvalidPotentialError(
            f"r q'(r) already exceeds {target!r} at r = {lo!r}; no inner bracket")
    for hi in droplet._bracket_candidates(p):
        if droplet._not_nan(hi * p.q_derivs(hi, 1), hi, tau) - target > 0.0:
            return lo, hi
        lo = hi
    raise InvalidPotentialError(
        f"r q'(r) never reaches {target!r}; the potential does not confine this level")


def _r2(q1, **kwargs):
    return Custom(lambda r: r * r, derivs=[q1, lambda r: 2.0 + 0.0 * r, lambda r: 0.0 * r,
                                           lambda r: 0.0 * r], **kwargs)


@pytest.mark.parametrize("p", [
    _ml_custom(1.0 / 3.0, 1.1),
    _r2(lambda r: 2.0 * r),
    _r2(lambda r: 2.0 * r, laplacian_origin=1.0),
    _r2(lambda r: 2.0 * r, support_radius=1.5),
    _r2(lambda r: 2.0 * r + 1.0 / r**2),  # r q' above every target at the bottom
    _r2(lambda r: np.where((0.7 < r) & (r < 1.5), np.nan, 2.0 * r)),  # nan at r = 1
    _r2(lambda r: 0.5 / r, support_radius=1.5),  # r q' = 1/2: levels above 1/4 never reach
], ids=["ml", "r2", "r2-origin", "r2-wall", "r2-above", "r2-nan", "flat"])
def test_the_shared_bracket_scan_gives_each_row_its_own_scan(p):
    # Each row gets the bracket of its own scan, in any order of levels, and
    # where rows fail the lowest of them raises the error of its own scan.
    for taus in ([0.0, 1.0], [1.0, 0.0], [0.9, 0.1, 0.0, 0.5, 1.0], [1e-300, 0.3, 0.2],
                 [0.2, 0.7, 0.0, 0.05]):
        try:
            want = [_scan_alone(p, t) for t in taus]
        except InvalidPotentialError as exc:
            want = str(exc)
        try:
            got = list(zip(*(x.tolist() for x in droplet._scan_brackets(p, np.array(taus)))))
        except InvalidPotentialError as exc:
            got = str(exc)
        assert got == want, taus


def test_nan_in_the_bracket_scan_is_named():
    # q = r^2 / 4 with a q' that is inf - inf = nan from r = 2 on, where the
    # steep power overflows: r q' = r^2 / 2 is below 2 tau = 1 at the scan's
    # r = 1, and the scan stops at r = 2 instead of treating nan as below
    # the target.
    def q1(r):
        return r / 2.0 + ((r / 1.3) ** 5000 - (r / 1.3) ** 5000)

    p = Custom(lambda r: r * r / 4.0, derivs=[q1, lambda r: 0.5 + 0.0 * r, lambda r: 0.0 * r,
                                             lambda r: 0.0 * r])
    with pytest.raises(InvalidPotentialError, match=r"r q'\(r\) is nan at r = 2\.0") as exc:
        solve_r_tau(p, 0.5)
    assert "tau = 0.5" in str(exc.value)


def test_nan_in_the_newton_loop_is_named():
    # q = r^2 with q' nan on (0.4, 0.6): the scan brackets the root
    # sqrt(0.5) in (1e-12, 1] and the first Newton point is r = 0.5.  q1
    # takes only one-element arrays, so the table's array call fails and
    # the scan runs.
    def q1(r):
        return math.nan if 0.4 < r < 0.6 else 2.0 * r

    p = Custom(lambda r: r * r, derivs=[q1, lambda r: 2.0, lambda r: 0.0, lambda r: 0.0])
    with pytest.raises(InvalidPotentialError, match=r"r q'\(r\) is nan at r = 0\.5"):
        solve_r_tau(p, 0.5)


def test_a_column_shaped_derivative_is_a_domain_error():
    # q = r^2 whose q' gives an (m, 1) column for an array, where the
    # values would broadcast to (m, m): the array read rejects it, naming
    # the potential, so there is no table and every interior level raises.
    p = Custom(lambda r: r * r, derivs=(
        lambda r: (2.0 * r)[:, None],
        lambda r: 2.0 + 0.0 * r,
        lambda r: 0.0 * r,
        lambda r: 0.0 * r,
    ), name="column q'")
    for tau in (0.3, 0.5, 0.81):
        with pytest.raises(DomainError, match=re.escape(
                "column q': q' at an array of shape (1,) failed (it returned ndarray of shape (1, 1))")):
            solve_r_tau(p, tau)
    assert droplet._table(p) == ()


def _dip(r, k):
    # d^k/dr^k of -0.01 exp(-s^2), s = 2 (r - 9): (-2)^k H_k(s) exp(-s^2).
    s = 2.0 * (r - 9.0)
    h = (1.0, 2.0 * s, 4.0 * s * s - 2.0, 8.0 * s**3 - 12.0 * s, 16.0 * s**4 - 48.0 * s * s + 12.0)[k]
    return -0.01 * (-2.0) ** k * h * np.exp(-s * s)


def test_root_below_the_scan_start_has_no_inner_bracket():
    # q = sqrt(r) with a dip at r = 9: r q'(r) = sqrt(r) / 2 is already 5e-7
    # at r = 1e-12, where the upward scan starts, and the dip makes r q'
    # fall near r = 9, so there is no table and every level goes through
    # the scan.  (With a table, Custom(np.sqrt) finds the root 1.6e-13.)
    p = Custom(lambda r: np.sqrt(r) + _dip(r, 0), derivs=(
        lambda r: 0.5 / np.sqrt(r) + _dip(r, 1),
        lambda r: -0.25 / (r * np.sqrt(r)) + _dip(r, 2),
        lambda r: 0.375 / (r * r * np.sqrt(r)) + _dip(r, 3),
        lambda r: -0.9375 / (r**3 * np.sqrt(r)) + _dip(r, 4),
    ), name="sqrt")
    assert droplet._table(p) == ()
    want = "sqrt: r q'(r) already exceeds 2e-07 at r = 1e-12; no inner bracket"
    with pytest.raises(InvalidPotentialError, match=f"^{re.escape(want)}$"):
        solve_r_tau(p, 1e-7)
    assert solve_r_tau(p, 0.3) == 1.44


_STEEP_DISCS = [MittagLeffler(lam, 0.0) for lam in (1.0, 5.0, 18.5, 20.0)]

_EVERY_FAMILY = _STEEP_DISCS + [
    Ginibre(),
    Ginibre(1.3),
    MittagLeffler(1.0, 1.0),
    MittagLeffler(0.5, 0.3),
    TruncatedUnitary(2.0, 1.5),
    dilate(MittagLeffler(1.0, 1.0), 2.0),
    dilate(Ginibre(), 0.5),
    dilate(TruncatedUnitary(1.0, 1.0), 1.5),
    _ml_custom(0.5, 1.0),
    _ml_custom(1.0, 0.0),
    Custom(lambda r: r * r, name="custom-circle-r2"),
    Custom(lambda r: 5.0 + r * r, name="custom-circle-5+r2"),
    # The rounding of q' near 0, 15 eps / r, swamps its true value 2r; the
    # origin data decide.
    Custom(lambda r: 5.0 + r * r, q_origin=5.0, laplacian_origin=1.0,
           name="custom-circle-5+r2-origin"),
]


def _positive_origin_laplacian(p):
    try:
        return p.laplacian_at_zero() > 0.0
    except DomainError:
        return False


@pytest.mark.parametrize("p", _EVERY_FAMILY, ids=lambda p: p.name)
def test_droplet_is_a_disc_iff_r0_is_zero(p):
    try:
        d = droplet_of(p)
    except CoulombGasError:
        return
    assert d.kind in ("disc", "annulus")
    assert (d.kind == "disc") == (d.r0 == 0.0)
    assert d.r0 == solve_r_tau(p, 0.0)
    assert d.r0 < d.r1
    if _positive_origin_laplacian(p):
        assert d.kind == "disc"


@pytest.mark.parametrize("p", _STEEP_DISCS, ids=lambda p: p.name)
def test_steep_power_profiles_are_discs(p):
    # q' underflows near the origin for lam >= 18.5, but r0 = 0 all the same.
    assert droplet_of(p).kind == "disc"
    with pytest.raises(DomainError, match="singular"):
        dr_dtau(p, 1e-13)


def test_zero_width_droplet_is_an_error():
    # c = 1e17: r0 = (c/lam)^(1/2) and r1 = ((1 + c)/lam)^(1/2) round to
    # the same float.
    p = MittagLeffler(1.0, 1e17)
    assert solve_r_tau(p, 0.0) == solve_r_tau(p, 1.0)
    with pytest.raises(InvalidPotentialError, match=r"ml\(lam=1.0, c=1e\+17\): zero-width droplet"):
        droplet_of(p)


def test_laplacian_at_reads_the_origin_hook_at_zero():
    assert droplet._laplacian_at(Ginibre(2.0), 0.0) == 0.25
    assert droplet._laplacian_at(Ginibre(2.0), 1.5) == 0.25
    # The potential's reason follows, without its name a second time.
    p = MittagLeffler(0.5, 0.0)
    with pytest.raises(InvalidPotentialError) as info:
        droplet._laplacian_at(p, 0.0)
    assert str(info.value) == ("a disc's inner edge needs ΔQ(0) finite and > 0: "
                               "the Laplacian has no positive finite limit at 0")
    # beta = R^2 (1 + alpha) underflows to 0, and the hook gives inf.
    with pytest.raises(InvalidPotentialError, match=r"laplacian_at_zero\(\) gave inf$"):
        droplet._laplacian_at(TruncatedUnitary(1.0, 1e-200), 0.0)


class _LaplacianCalls(ast.NodeVisitor):
    """(hook, module, enclosing function) of every .laplacian(...) and
    .laplacian_at_zero(...) call in a module."""

    def __init__(self, module):
        self.module, self.stack, self.sites = module, [], set()

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Call(self, node):
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr in ("laplacian", "laplacian_at_zero"):
            self.sites.add((f.attr, self.module, self.stack[-1] if self.stack else None))
        self.generic_visit(node)


def test_laplacian_at_is_the_one_scalar_read_of_the_laplacian():
    # Every route reads ΔQ at a point through droplet._laplacian_at.  The
    # other calls are droplet_of's array check on a grid and a dilation's
    # laplacian_at_zero forwarding to its base's.
    sites = set()
    for path in sorted(Path(droplet.__file__).parent.glob("*.py")):
        visitor = _LaplacianCalls(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites |= visitor.sites
    assert sites == {
        ("laplacian", "droplet", "_laplacian_at"),
        ("laplacian", "droplet", "droplet_of"),
        ("laplacian_at_zero", "droplet", "_laplacian_at"),
        ("laplacian_at_zero", "potential", "laplacian_at_zero"),
    }


@pytest.mark.xfail(strict=True, raises=DomainError, reason=(
    "droplet_of reads ΔQ at r = 1e-6 r1, where numpy's complex log1p errs by "
    "~7e-5 relative and the circle's guard rejects q (ROADMAP items 7 and 22)"))
def test_a_tu_shaped_custom_without_derivs_has_a_droplet():
    # TU(1, 1)'s q as a Custom without derivs.  The exact route reads it
    # only at its saddles, far from the origin, and matches the TU(1, 1)
    # reference and oracle within the route's bound; the droplet's grid
    # check starts at 1e-6 r1, where the circle read of ΔQ fails.
    p = Custom(lambda r: -np.log1p(-r * r / 2.0), support_radius=2**0.5,
               laplacian_origin=0.5, q_origin=0.0)
    tu = TruncatedUnitary(1.0, 1.0)
    got = log_z_exact(p, 50)
    bound = mp_reference.log_z_bound(p, 50, "normal", tu)
    assert abs(float(got - mp_reference.log_z(tu, 50, "normal"))) <= bound
    assert abs(got - tu_log_z(1.0, 1.0, 50)) <= bound
    droplet_of(p)
