"""Property tests across routes: the exact route against the 40-digit
per-degree closed forms, a Custom profile without derivs against the
same family with analytic derivatives, and dilation invariance of every
equilibrium functional.  Each bound is derived in the comment above it."""

import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mp_reference
import noisy
from coulombgas import equilibrium, quadrature
from coulombgas.droplet import droplet_of
from coulombgas.equilibrium import b1_integral, equilibrium_report, zw_coefficients
from coulombgas.errors import CoulombGasError, IntegrationError
from coulombgas.norms import _REL_TOL, NormQuery, log_norm_laplace
from coulombgas.oracles import ml_equilibrium, tu_equilibrium
from coulombgas.partition import expansion_terms, log_z_exact
from coulombgas.potential import Custom, Ginibre, MittagLeffler, TruncatedUnitary, dilate

EPS = float(np.finfo(float).eps)


@st.composite
def _closed_form_family(draw):
    # c = 0 with lam != 1 is a disc whose Laplacian at the origin is 0 or inf.
    if draw(st.sampled_from(["ml", "tu"])) == "ml":
        c = draw(st.one_of(st.just(0.0), st.floats(0.05, 3.0)))
        return MittagLeffler(draw(st.floats(0.25, 4.0)), c)
    return TruncatedUnitary(draw(st.floats(0.25, 4.0)), draw(st.floats(0.25, 4.0)))


# log Z against the 40-digit reference.  Each of the n norms is within
# mp_reference.norm_bound of its closed form (the documented per-norm
# target plus the rounding of -s v_min + log(val)).  The rest is rounding:
# math.lgamma for log n! (within 4 ulp), n log 2, and adding that base to
# the compensated norm sum (half an ulp of |log Z|), at most
# 4 eps (|log n!| + n log 2 + |log Z|) together.
@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    p=_closed_form_family(),
    n=st.integers(10, 64),
    ensemble=st.sampled_from(["normal", "symplectic"]),
)
def test_exact_route_matches_the_40_digit_reference(p, n, ensemble):
    want = mp_reference.log_z(p, n, ensemble)
    got = log_z_exact(p, n, ensemble)
    s = n if ensemble == "normal" else 2 * n
    degrees = range(n) if ensemble == "normal" else range(1, s, 2)
    bound = math.fsum(
        mp_reference.norm_bound(p, NormQuery(n, j, ensemble),
                                float(mp_reference.log_norm(p, j, s)))
        for j in degrees
    )
    bound += 4.0 * EPS * (math.lgamma(n + 1.0) + n * math.log(2.0) + abs(float(want)))
    err = abs(float(mpmath.mpf(got) - want))
    assert err <= bound, (p.name, n, ensemble, err, bound)


def _circle_ml(lam, c):
    """The ML(lam, c) profile as a Custom without derivs, read on circles."""
    return Custom(lambda r: r ** (2.0 * lam) - 2.0 * c * np.log(r), name="circle-ml")


# Radii.  r0 and r1 solve r q'(r) = 0 and 2, and r q' has slope
# q' + r q'' = 4 r laplacian, so an error e in q' moves a root by
# e / (4 laplacian).  The circle read's q' errs by at most
# 3 (40 eps m + 2 3^-32 (r^(2 lam) + 2c)) / r (tests/test_potential.py), m
# the largest magnitude of q's terms on the circle of radius r / 3.  For
# lam, c in [0.5, 2] the droplet lies in [0.7, 6] with r^(2 lam) <= 6, so
# m <= (4/3)^4 6 + 2c (log 8 + asin(1/3)) <= 29 and e <= 1.2e-12; laplacian
# = lam^2 r^(2 lam - 2) >= 0.04, so a root moves by at most 7.5e-12, plus
# the Newton stop of 1e-13 r on each side: bound 1e-11 max(1, r).
#
# log Z.  Only q enters the norm integrand; the derivatives place the
# saddle, the shift and the panels.  Each norm meets relative accuracy
# max(rel_tol, 4 s eps (|q(r*)| + |2 tau log r*|)) on both sides.  With
# K = max over the droplet edges of |q(r)| + 2 |log r|, |q| and 2 |log r|
# are each at most K on the droplet (q decreases to r0 and increases after
# it) and tau <= 1, so that is at most 2 rel_tol + 16 eps s K per log h_j.
# Rounding in log h_j = -s V(r*) + log(integral) is at most
# 16 eps (1 + s K), as |V| <= 2 K on the droplet.  Over n norms:
# n (2 rel_tol + 32 eps (1 + s K)).
@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    lam=st.floats(0.5, 2.0),
    c=st.floats(0.5, 2.0),
    n=st.integers(2, 12),
    ensemble=st.sampled_from(["normal", "symplectic"]),
)
def test_custom_without_derivs_matches_the_family(lam, c, n, ensemble):
    circle = _circle_ml(lam, c)
    ml = MittagLeffler(lam, c)
    d_circle, d_ml = droplet_of(circle), droplet_of(ml)
    assert d_circle.kind == d_ml.kind == "annulus"
    for got, want in ((d_circle.r0, d_ml.r0), (d_circle.r1, d_ml.r1)):
        assert abs(got - want) <= 1e-11 * max(1.0, want), (lam, c, got, want)

    s = n if ensemble == "normal" else 2 * n
    k = max(abs(float(ml.q_derivs(r))) + 2.0 * abs(math.log(r)) for r in (d_ml.r0, d_ml.r1))
    bound = n * (2.0 * _REL_TOL + 32.0 * EPS * (1.0 + s * k))
    got, want = log_z_exact(circle, n, ensemble), log_z_exact(ml, n, ensemble)
    assert abs(got - want) <= bound, (lam, c, n, ensemble, got - want, bound)


# The functionals take q' (energy), q'' (mass, entropy) and q''' (f_term)
# from the circle read.  On the droplet of ML(2, 1), 0.84 <= r <= 1, the
# largest magnitude of q's terms on the circle is at most 5, so q''' errs by
# at most 40 eps 5 3! (3 / 0.84)^3 <= 2e-11 (tests/test_potential.py), and
# every equilibrium integral meets relative accuracy 1e-13: the comparison's
# bound 1e-6 (1 + |value|) holds with room to spare.
def test_custom_without_derivs_equilibrium_report():
    got = equilibrium_report(_circle_ml(2.0, 1.0))
    want = equilibrium_report(MittagLeffler(2.0, 1.0))
    for name in ("energy", "entropy", "log_potential_origin", "f_term"):
        g, w = getattr(got, name), getattr(want, name)
        assert abs(g - w) <= 1e-6 * (1.0 + abs(w)), (name, g, w)


# A report whose integrands are noisy fails fast.  Each equilibrium integral
# starts from one panel of 15 nodes and a round splits at most every panel,
# so round k evaluates at most 15 * 2^k points.  The noise of q''
# (noisy.ripple) sits above the 1e-13 target, so the error estimate stops
# halving once the smooth part is resolved, and the stall rule raises at
# the first round k >= _STALL that has not halved it.  A call that stops
# within _STALL + 1 batches thus evaluates at most 15 * (2^(_STALL + 1) - 1)
# points.
def test_noisy_equilibrium_report_fails_fast(monkeypatch):
    calls = []

    def counting(f, a, b, **kwargs):
        batches = []
        calls.append(batches)

        def g(x):
            batches.append(x.size)
            return f(x)

        return quadrature.integrate(g, a, b, **kwargs)

    monkeypatch.setattr(equilibrium, "integrate", counting)
    with pytest.raises(IntegrationError, match="refinement stalled"):
        equilibrium_report(noisy.with_noise(MittagLeffler(2.0, 1.0), noisy.ripple, "noisy"))
    assert all(len(batches) <= quadrature._STALL + 1 for batches in calls), calls
    points = sum(map(sum, calls))
    assert points <= len(calls) * 15 * (2 ** (quadrature._STALL + 1) - 1), (points, len(calls))


@st.composite
def _family(draw):
    kind = draw(st.sampled_from(["ml", "tu", "ginibre"]))
    if kind == "ml":
        return MittagLeffler(draw(st.floats(0.5, 3.0)), draw(st.floats(0.3, 2.5)))
    if kind == "tu":
        return TruncatedUnitary(draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 2.0)))
    return Ginibre(draw(st.floats(0.5, 2.0)))


# q_a(r) = q(r / a) moves the droplet to a r0, a r1 and the Laplacian to
# laplacian(r / a) / a^2, so f_term, f1 and both b1_integral values are
# unchanged, energy and U(0) shift by -log a (f0 = -energy by +log a), and
# entropy by -2 log a (f_half = -entropy / 2 by +log a).  Each functional
# takes at most three integrals, each within 1e-13 of its value, and every
# integral here is at most 30 in magnitude: (r q')^2 / r <= 4 / r on the
# droplet, (laplacian' / laplacian)^2 r = (2 lam - 2)^2 / r for ML and at
# most 16 r^3 / (beta - r^2)^2 for TU, and |log laplacian| <= 10 under the
# mass-one measure.  Both sides together err by at most 2 * 3 * 30e-13,
# plus eps-level rounding of terms below 10: bound 1e-11 (1 + |value|).
@settings(derandomize=True, max_examples=30, deadline=None)
@given(p=_family(), log_a=st.floats(math.log(0.1), math.log(10.0)))
def test_dilation_shifts_every_functional_by_its_scaling(p, log_a):
    a = math.exp(log_a)
    q = dilate(p, a)
    shift = math.log(a)
    base, dil = equilibrium_report(p), equilibrium_report(q)
    pairs = [
        ("f_term", dil.f_term, base.f_term),
        ("energy", dil.energy, base.energy - shift),
        ("log_potential_origin", dil.log_potential_origin, base.log_potential_origin - shift),
        ("entropy", dil.entropy, base.entropy - 2.0 * shift),
    ]
    if base.droplet.kind == "disc":
        zw_p, zw_q = zw_coefficients(p), zw_coefficients(q)
        pairs += [
            ("f0", zw_q.f0, zw_p.f0 + shift),
            ("f_half", zw_q.f_half, zw_p.f_half + shift),
            ("f1", zw_q.f1, zw_p.f1),
        ]
    else:
        (direct_p, identity_p), (direct_q, identity_q) = b1_integral(p), b1_integral(q)
        pairs += [("b1 direct", direct_q, direct_p), ("b1 identity", identity_q, identity_p)]
    for name, got, want in pairs:
        assert abs(got - want) <= 1e-11 * (1.0 + abs(want)), (p.name, a, name, got, want)


_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, max_examples=5, deadline=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


# Hypothesis reports a failing example through code that imports libcst,
# which warns about mypy_extensions.TypedDict; with every warning an error,
# that warning used to end the session with INTERNALERROR, so the tests
# after a failing property never ran.
def test_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_prop.py").write_text(_FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(pyproject),
         "-p", "no:cacheprovider", "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out


# Each family parameter across the float64 range.  Every entry point must
# return a finite value or raise a package error, and warn about nothing:
# a parameter-only factor that overflows or underflows (scale^2, lam^2,
# a^2) used to raise ZeroDivisionError or OverflowError from a hook, and a
# ratio under a log ValueError.
_EXTREME_SLOTS = {
    "ginibre scale": Ginibre,
    "ml lam": lambda v: MittagLeffler(v, 1.0),
    "ml c": lambda v: MittagLeffler(1.0, v),
    "tu alpha": lambda v: TruncatedUnitary(v, 1.0),
    "tu R": lambda v: TruncatedUnitary(1.0, v),
    "dilate ml(1/2, 1)": lambda v: dilate(MittagLeffler(0.5, 1.0), v),
    "dilate ginibre": lambda v: dilate(Ginibre(), v),
}
_EXTREME_VALUES = (1e-300, 1e-200, 1e-160, 1e-100, 1e-20, 1.0, 1e20, 1e100, 1e160, 1e200, 1e300)
_EXTREME_CALLS = {
    "droplet_of": lambda p: droplet_of(p).r1,
    "log_z_exact": lambda p: log_z_exact(p, 4, "symplectic"),
    "equilibrium_report": lambda p: equilibrium_report(p).energy,
    "expansion_terms": lambda p: expansion_terms(p, "symplectic").evaluate(4),
    "log_norm_laplace": lambda p: log_norm_laplace(p, NormQuery(4, 3, "symplectic")),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", _EXTREME_VALUES, ids=repr)
@pytest.mark.parametrize("slot", sorted(_EXTREME_SLOTS))
def test_extreme_family_parameters_give_a_value_or_a_package_error(slot, value):
    try:
        p = _EXTREME_SLOTS[slot](value)
    except CoulombGasError:
        return
    for name, call in _EXTREME_CALLS.items():
        try:
            got = call(p)
        except CoulombGasError:
            continue
        assert math.isfinite(got), (p.name, name, got)


# The same probe over the decimal exponent, every slot at each drawn value.
# The fixed decades jump from 1e100 to 1e160, and so missed r1^2 of
# dilate(ML(1/2, 1), a) overflowing for a in [3.7e153, 1e154], which raised a
# bare OverflowError from equilibrium_report and expansion_terms.
@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=300, deadline=None)
@given(exponent=st.integers(-300, 300), mantissa=st.floats(1.0, 10.0, exclude_max=True))
@example(exponent=153, mantissa=3.7)
def test_drawn_exponents_give_a_value_or_a_package_error(exponent, mantissa):
    value = mantissa * 10.0**exponent
    for slot in _EXTREME_SLOTS:
        test_extreme_family_parameters_give_a_value_or_a_package_error(slot, value)


def test_ml_equilibrium_droplet_is_droplet_of_over_the_float64_range():
    # Both read the closed form ((tau + c) / lam)^(1 / (2 lam)) and hold it
    # to the one disc rule, so wherever both return, the droplets agree bit
    # for bit.
    both = 0
    for lam, c in [(v, 1.0) for v in _EXTREME_VALUES] + [(1.0, v) for v in _EXTREME_VALUES]:
        try:
            got = ml_equilibrium(lam, c).droplet
            want = droplet_of(MittagLeffler(lam, c))
        except CoulombGasError:
            continue
        both += 1
        assert (got.r0.hex(), got.r1.hex(), got.kind) == (
            want.r0.hex(), want.r1.hex(), want.kind), (lam, c)
    assert both >= 6


def test_tu_equilibrium_droplet_is_droplet_of_over_the_float64_range():
    # tu_equilibrium takes its droplet from droplet_of, so the two agree bit
    # for bit wherever the report returns, and the report raises wherever
    # droplet_of does (r1 underflows, or ΔQ leaves float64 near the disc).
    # Over the probe values of each parameter and a 4 x 5 grid of alpha, R.
    grid = [(alpha, R) for alpha in (0.3, 0.5, 1.5, 3.0) for R in (0.2, 0.9, 1.0, 1.7, 4.0)]
    both = 0
    for alpha, R in [(v, 1.0) for v in _EXTREME_VALUES] + [(1.0, v) for v in _EXTREME_VALUES] + grid:
        try:
            want = droplet_of(TruncatedUnitary(alpha, R))
        except CoulombGasError:
            with pytest.raises(CoulombGasError):
                tu_equilibrium(alpha, R)
            continue
        try:
            got = tu_equilibrium(alpha, R).droplet
        except CoulombGasError:  # a functional beyond float64 (alpha = 1e300)
            continue
        both += 1
        assert (got.r0.hex(), got.r1.hex(), got.kind) == (
            want.r0.hex(), want.r1.hex(), want.kind), (alpha, R)
    assert both >= len(grid)


# q(r / a) for Ginibre is |z|^2 / a^2, so h_j scales by a^(2j + 2) and the
# Laplace form by the same shift: r_tau, V_tau and the Laplacian scale
# exactly, and b1 = 1 / (12 r^2 laplacian) does not change.  What is left
# is rounding: the logs of r and a (ulps of their magnitudes, times at most
# s tau = j + 1) and a few sums of terms no larger than |value| + |shift|;
# 4 eps (|value| + |shift|) bounds it.  At a = 1e100 the squared Laplacian
# underflows to 0, which the scale-free form of b1 never forms.
def _assert_laplace_norm_is_the_shifted_unit_norm(a, n, i, ensemble):
    q = NormQuery(n, i if ensemble == "normal" else 2 * i + 1, ensemble)
    got = log_norm_laplace(Ginibre(a), q)
    shift = 2.0 * (q.j + 1) * math.log(a)
    want = log_norm_laplace(Ginibre(), q) + shift
    assert abs(got - want) <= 4.0 * EPS * (abs(got) + abs(shift)), (a, got, want)


_SCALE_CASES = [(4, 1), (4, 3), (10, 3), (100, 57), (1600, 1599)]


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
@pytest.mark.parametrize("n, i", _SCALE_CASES)
def test_laplace_norm_of_a_tiny_ginibre_scale_is_the_shifted_unit_norm(n, i, ensemble):
    _assert_laplace_norm_is_the_shifted_unit_norm(1e-100, n, i, ensemble)


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
@pytest.mark.parametrize("n, i", _SCALE_CASES)
def test_laplace_norm_of_a_huge_ginibre_scale_is_the_shifted_unit_norm(n, i, ensemble):
    _assert_laplace_norm_is_the_shifted_unit_norm(1e100, n, i, ensemble)
