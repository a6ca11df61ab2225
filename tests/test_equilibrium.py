import math
import re
import warnings
from dataclasses import astuple

import numpy as np
import pytest

import noisy
from coulombgas import quadrature
from coulombgas.droplet import Droplet, droplet_of
from coulombgas.equilibrium import (
    EquilibriumReport,
    b1,
    b1_integral,
    energy,
    entropy,
    equilibrium_report,
    f_annulus,
    f_disc,
    f_disc_chi_form,
    log_potential_origin,
    mu_mass,
    zw_coefficients,
)
from coulombgas.errors import (
    CoulombGasError,
    DomainError,
    IntegrationError,
    InvalidPotentialError,
)
from coulombgas.norms import NormQuery, log_norm_lowdeg
from coulombgas.oracles import ml_equilibrium, tu_equilibrium
from coulombgas.partition import expansion_terms, lemma_sum
from coulombgas.potential import (
    Custom,
    Ginibre,
    MittagLeffler,
    RadialPotential,
    TruncatedUnitary,
    _const_like,
    dilate,
)

LOG2 = math.log(2.0)


def test_ginibre_equilibrium_values():
    p = Ginibre()
    assert abs(energy(p) - 0.75) < 1e-12
    assert abs(entropy(p)) < 1e-12
    assert abs(log_potential_origin(p) - 0.5) < 1e-12
    assert abs(f_disc(p)) < 1e-12
    assert abs(mu_mass(p) - 1.0) < 1e-13


def test_ml_1_1_closed_values():
    p = MittagLeffler(1.0, 1.0)
    assert abs(energy(p) - (2.25 - 2.0 * LOG2)) < 1e-11
    assert abs(entropy(p)) < 1e-11
    assert abs(log_potential_origin(p) - (0.5 - LOG2)) < 1e-11
    assert abs(f_annulus(p) - (-LOG2 / 12.0)) < 1e-10


def test_ml_2_1_values():
    p = MittagLeffler(2.0, 1.0)
    assert abs(f_annulus(p) - (-LOG2 / 24.0)) < 1e-10
    assert abs(b1(p, 1.0) - (-1.0 / 24.0)) < 1e-12
    assert abs(entropy(p) - (2.5 * LOG2 - 0.5)) < 1e-11


def test_ml_closed_forms_match_quadrature():
    for lam in (0.5, 1.0, 1.5, 2.0, 3.0):
        for c in (0.3, 1.0, 2.5):
            p = MittagLeffler(lam, c)
            rep = ml_equilibrium(lam, c)
            assert abs(energy(p) - rep.energy) < 1e-9, (lam, c)
            assert abs(entropy(p) - rep.entropy) < 1e-9, (lam, c)
            got = log_potential_origin(p)
            assert abs(got - rep.log_potential_origin) < 1e-9, (lam, c)
            assert abs(f_annulus(p) - rep.f_term) < 1e-9, (lam, c)


def test_tu_closed_forms_match_quadrature():
    for alpha, R in ((1.0, 1.0), (2.0, 1.0), (0.5, 1.5)):
        p = TruncatedUnitary(alpha, R)
        rep = tu_equilibrium(alpha, R)
        assert abs(energy(p) - rep.energy) < 1e-9, (alpha, R)
        assert abs(entropy(p) - rep.entropy) < 1e-9, (alpha, R)
        assert abs(log_potential_origin(p) - rep.log_potential_origin) < 1e-9
        assert abs(f_disc(p) - rep.f_term) < 1e-9, (alpha, R)


def test_tu_alpha_2_f_term_frozen():
    assert abs(f_disc(TruncatedUnitary(2.0, 1.0)) - (-0.12727712837840183)) < 1e-10


def test_f_disc_chi_form_agrees():
    for p in (Ginibre(), TruncatedUnitary(0.5, 1.0), TruncatedUnitary(1.0, 1.0),
              TruncatedUnitary(2.0, 1.0)):
        assert abs(f_disc(p) - f_disc_chi_form(p)) < 1e-9, p


def test_f_terms_dilation_invariant():
    ml = MittagLeffler(1.0, 1.0)
    tu = TruncatedUnitary(1.0, 1.0)
    base_a = f_annulus(ml)
    base_d = f_disc(tu)
    for a in (0.5, 2.0, 3.0):
        assert abs(f_annulus(dilate(ml, a)) - base_a) < 1e-10, a
        assert abs(f_disc(dilate(tu, a)) - base_d) < 1e-10, a


def test_b1_integral_identity():
    for lam, c in ((1.0, 1.0), (2.0, 1.0), (0.5, 0.7)):
        direct, identity = b1_integral(MittagLeffler(lam, c))
        assert abs(direct - identity) < 1e-9, (lam, c)


def test_mass_normalisation():
    for p in (Ginibre(), MittagLeffler(1.7, 0.4), TruncatedUnitary(1.5, 2.0)):
        assert abs(mu_mass(p) - 1.0) < 1e-12, p


def test_zw_coefficients_match_named_functionals():
    for p in (Ginibre(), TruncatedUnitary(1.0, 1.0), TruncatedUnitary(2.0, 1.5)):
        zw = zw_coefficients(p)
        assert abs(zw.f0 + energy(p)) < 1e-9, p
        assert abs(zw.f_half + 0.5 * entropy(p)) < 1e-9, p
        assert abs(zw.f1 - f_disc(p)) < 1e-9, p


_EPS = float(np.finfo(float).eps)


def _tu_entropy_terms(alpha, R):
    ell = math.log(alpha / (1.0 + alpha))
    return (-2.0, -(1.0 + 2.0 * alpha) * ell, -2.0 * math.log(R))


@pytest.mark.parametrize("p, terms", [
    (TruncatedUnitary(1.0, 1.0), _tu_entropy_terms(1.0, 1.0)),
    (TruncatedUnitary(0.3, 0.8), _tu_entropy_terms(0.3, 0.8)),
    (TruncatedUnitary(3.0, 2.0), _tu_entropy_terms(3.0, 2.0)),
    (Ginibre(1.3), (-2.0 * math.log(1.3),)),
    (dilate(Ginibre(), 1.314155), (-2.0 * math.log(1.314155),)),
], ids=["tu-1-1", "tu-0.3-0.8", "tu-3-2", "ginibre-1.3", "dilated-ginibre"])
def test_zw_f_half_meets_its_integral_target_against_the_closed_entropy(p, terms):
    # f_half = -(1/2) * integral of s log s dx over [0, r1^2], the integral
    # taken to max(1e-16, 1e-13 |integral|): |f_half + S/2| is at most
    # 1e-13 |f_half| + 1e-16 plus the rounding of S = sum(terms) (a few
    # eps per term, 4 eps of their total) and of the final sum (eps).
    entropy_closed = math.fsum(terms)
    f_half = zw_coefficients(p).f_half
    bound = (1e-13 * abs(f_half) + 1e-16
             + 4.0 * _EPS * sum(abs(t) for t in terms) + _EPS * abs(f_half))
    assert abs(f_half + 0.5 * entropy_closed) <= bound


def test_equilibrium_report_bundles_everything():
    p = TruncatedUnitary(1.0, 1.0)
    rep = equilibrium_report(p)
    assert rep.droplet.kind == "disc"
    assert abs(rep.energy - energy(p)) < 1e-12
    assert abs(rep.f_term - f_disc(p)) < 1e-12


def test_mass_guard_trips_on_unnormalised_profile():
    # q = r^2 with a wrong first derivative makes the background measure
    # integrate to 5/6 instead of 1
    p = Custom(
        q=lambda r: r * r,
        derivs=(
            lambda r: 3.0 * r,
            lambda r: 2.0 + 0.0 * r,
            lambda r: 0.0 * r,
            lambda r: 0.0 * r,
        ),
        name="bad-mass",
    )
    with pytest.raises(InvalidPotentialError, match="^bad-mass: equilibrium measure has mass"):
        equilibrium_report(p)
    with pytest.raises(InvalidPotentialError, match="^ginibre.*: equilibrium measure has mass"):
        equilibrium_report(Ginibre(), Droplet(0.0, 2.0, "disc"))


def test_kind_mismatch_guards():
    with pytest.raises(DomainError):
        f_annulus(Ginibre())
    with pytest.raises(DomainError):
        f_disc(MittagLeffler(1.0, 1.0))
    with pytest.raises(DomainError):
        zw_coefficients(MittagLeffler(1.0, 1.0))
    with pytest.raises(DomainError):
        b1_integral(Ginibre())


# Every droplet-kind guard, called on a potential of the other kind.
_KIND_GUARDS = {
    "f_annulus": lambda p: f_annulus(p),
    "b1_integral": lambda p: b1_integral(p),
    "lemma_sum": lambda p: lemma_sum(p, 10, "sum_v_normal"),
    "f_disc": lambda p: f_disc(p),
    "f_disc_chi_form": lambda p: f_disc_chi_form(p),
    "zw_coefficients": lambda p: zw_coefficients(p),
    "log_norm_lowdeg": lambda p: log_norm_lowdeg(p, NormQuery(10, 1)),
}
_NEEDS_ANNULUS = {"f_annulus", "b1_integral", "lemma_sum"}


# The norm routes put n, j and the ensemble after the name, lemma_sum n and
# which.
_GUARD_CONTEXT = {
    "lemma_sum": ", n=10, which=sum_v_normal",
    "log_norm_lowdeg": ", n=10, j=1, ensemble=normal",
}


@pytest.mark.parametrize("guard", sorted(_KIND_GUARDS))
def test_kind_guards_name_the_potential(guard):
    p = Ginibre(1.5) if guard in _NEEDS_ANNULUS else MittagLeffler(1.0, 0.5)
    with pytest.raises(DomainError) as info:
        _KIND_GUARDS[guard](p)
    context = p.name + _GUARD_CONTEXT.get(guard, "")
    assert str(info.value).startswith(f"{context}: "), str(info.value)
    assert str(info.value).count(p.name) == 1


# Disc potentials without a finite positive laplacian_at_zero(): ML(lam, 0)
# with lam != 1 has a Laplacian that diverges or vanishes at 0, and r^2 as a
# Custom supplies no origin data.  The order-one integrand of ML(lam, 0),
# (laplacian'/laplacian)^2 = (2 lam - 2)^2 / x in x = r^2, diverges at the
# origin, so the f-term has no finite value.
_NO_ORIGIN_LAPLACIAN = [
    MittagLeffler(0.5, 0.0),
    MittagLeffler(20.0, 0.0),
    Custom(lambda r: r * r,
           derivs=(lambda r: 2.0 * r, lambda r: 2.0 + 0.0 * r,
                   lambda r: 0.0 * r, lambda r: 0.0 * r),
           name="r2-no-origin-data"),
]
_DISC_INTEGRAND_CALLS = {
    "f_disc": f_disc,
    "f_disc_chi_form": f_disc_chi_form,
    "zw_coefficients": zw_coefficients,
    "equilibrium_report": equilibrium_report,
    "expansion_terms": expansion_terms,
}


@pytest.mark.parametrize("call", sorted(_DISC_INTEGRAND_CALLS))
@pytest.mark.parametrize("p", _NO_ORIGIN_LAPLACIAN, ids=["ml-half-0", "ml-20-0", "custom-r2"])
def test_disc_functionals_require_a_positive_origin_laplacian(p, call):
    assert droplet_of(p).kind == "disc"
    want = f"^{re.escape(p.name)}: .*ΔQ\\(0\\) finite and > 0"
    with pytest.raises(InvalidPotentialError, match=want) as info:
        _DISC_INTEGRAND_CALLS[call](p)
    assert str(info.value).count(p.name) == 1


def test_ml_origin_errors_name_the_potential():
    # The symplectic expansion_terms with a given report reads ΔQ(0) and
    # adds no context of its own; log_norm_lowdeg adds n, j and the ensemble
    # after the name, once.  A route's read of a missing ΔQ(0) is an
    # InvalidPotentialError; the potential's own origin hooks raise
    # DomainError.
    half, ml11 = MittagLeffler(0.5, 0.0), MittagLeffler(1.0, 1.0)
    report = equilibrium_report(Ginibre())
    calls = [
        (InvalidPotentialError, f"{half.name}, n=10, j=1, ensemble=normal",
         lambda: log_norm_lowdeg(half, NormQuery(10, 1))),
        (InvalidPotentialError, half.name,
         lambda: expansion_terms(half, "symplectic", report=report)),
        (DomainError, half.name, half.laplacian_at_zero),
        (DomainError, ml11.name, ml11.q_at_zero),
    ]
    for cls, context, call in calls:
        with pytest.raises(cls) as info:
            call()
        assert str(info.value).startswith(f"{context}: "), str(info.value)
    assert half.name == "ml(lam=0.5, c=0.0)"


# Every functional of the measure, handed a droplet whose outer radius 2
# lies beyond the hard wall of TU(1, 1) at sqrt(2): each fails inside, on
# a point check or a stalled integral, with a message that names no
# potential of its own.
_TU11 = TruncatedUnitary(1.0, 1.0)
_PAST_THE_WALL = {"annulus": Droplet(0.5, 2.0, "annulus"), "disc": Droplet(0.0, 2.0, "disc")}
_FUNCTIONALS = {
    "mu_mass": (mu_mass, "annulus"),
    "energy": (energy, "annulus"),
    "entropy": (entropy, "annulus"),
    "log_potential_origin": (log_potential_origin, "annulus"),
    "f_annulus": (f_annulus, "annulus"),
    "b1_integral": (b1_integral, "annulus"),
    "f_disc": (f_disc, "disc"),
    "f_disc_chi_form": (f_disc_chi_form, "disc"),
    "zw_coefficients": (zw_coefficients, "disc"),
    "equilibrium_report": (equilibrium_report, "annulus"),
}


@pytest.mark.parametrize("name", sorted(_FUNCTIONALS))
def test_every_functional_names_the_potential_once(name):
    fn, kind = _FUNCTIONALS[name]
    with pytest.raises(CoulombGasError, match=f"^{re.escape(_TU11.name)}: ") as info:
        fn(_TU11, _PAST_THE_WALL[kind])
    assert str(info.value).count(_TU11.name) == 1
    assert fn.__name__ == name and fn.__module__ == "coulombgas.equilibrium" and fn.__doc__


def test_stalled_entropy_names_the_potential():
    # The entropy integral stalls on the noise of q'' (noisy.ripple).
    p = noisy.with_noise(MittagLeffler(2.0, 1.0), noisy.ripple, "quartic-log")
    with pytest.raises(IntegrationError, match="^quartic-log: refinement stalled"):
        entropy(p)


def test_creeping_entropy_ends_at_the_panel_budget(monkeypatch):
    # On the quartic disc with rough noise in q'' (noisy.rough) the error
    # estimate keeps creeping down while the panel count doubles each round,
    # so refinement never stalls; the panel budget ends it before a round's
    # node array grows past 2^16 panels.
    batches = []
    eval_panels = quadrature._eval_panels

    def counting(f, lefts, rights):
        batches.append(len(lefts))
        return eval_panels(f, lefts, rights)

    monkeypatch.setattr(quadrature, "_eval_panels", counting)
    with pytest.raises(IntegrationError, match="^quartic: panel budget exceeded"):
        entropy(noisy.with_noise(MittagLeffler(2.0, 0.0), noisy.rough, "quartic"))
    assert max(batches) <= 1 << 16


def test_b1_ginibre_closed_form():
    p = Ginibre()
    for r in (0.3, 0.8, 1.0):
        assert abs(b1(p, r) - 1.0 / (12.0 * r * r)) < 1e-13


# Bound on a computed report against its closed form.  Each functional is
# a few boundary terms plus c times at most one integral (two for
# f_disc_chi_form), |c| <= 1, whose error meets max(1e-16, 1e-13 |integral|).
# For the potentials compared here no term on either side exceeds K = 4 in
# magnitude (the largest are TU(1, 1)'s entropy, -2 + 3 log 2, with terms 2
# and 2.08, and ML(0.5, 1)'s energy, with (1 + c)/lam = r1^(2 lam) = 4), so
# the integrals add at most 2 (1e-13 K + 1e-16).  Each side sums at most
# six terms, each within 2 eps of its value, into partial sums of at most
# 6 K: 48 eps K a side, 96 eps K for both.
_K = 4.0
_CLOSED_BOUND = 2.0 * (1e-13 * _K + 1e-16) + 96.0 * _EPS * _K


# (energy, entropy, log_potential_origin, f_term) as float.hex(), plus
# f_disc_chi_form for the discs: the bits of the per-functional code that
# one shared quadrature policy and one order-one term replaced.  Each comes
# with its closed form, which the values must stay within _CLOSED_BOUND of.
_REPORT_BITS = [
    (MittagLeffler(0.5, 1.0),
     ("-0x1.687a9f1af2b12p-2", "-0x1.3b9d3beb8c86bp+1", "-0x1.145647e7756e6p+0",
      "-0x1.d9303fea2f7e9p-6"), None, astuple(ml_equilibrium(0.5, 1.0))[:4]),
    (Ginibre(),
     ("0x1.8000000000000p-1", "0x0.0p+0", "0x1.0000000000000p-1", "0x0.0p+0"),
     "0x0.0p+0", (0.75, 0.0, 0.5, 0.0)),
]


@pytest.mark.parametrize("p, want, chi, closed", _REPORT_BITS, ids=["ml-half-1", "ginibre"])
def test_equilibrium_report_golden_bits(p, want, chi, closed):
    rep = equilibrium_report(p)
    got = (rep.energy, rep.entropy, rep.log_potential_origin, rep.f_term)
    assert tuple(x.hex() for x in got) == want
    for name, g, c in zip(("energy", "entropy", "U(0)", "f_term"), got, closed):
        assert abs(g - c) <= _CLOSED_BOUND, name
    f_kind = f_disc if rep.droplet.kind == "disc" else f_annulus
    assert f_kind(p).hex() == want[3]
    if chi is not None:
        assert f_disc_chi_form(p).hex() == chi


def _dilated_ginibre_closed(a):
    # Q(z / a) for Q = |z|^2: energy 3/4 - log a, entropy -2 log a,
    # U(0) = 1/2 - log a and a zero f-term, as the f-terms are dilation
    # invariant.
    log_a = math.log(a)
    return (0.75 - log_a, -2.0 * log_a, 0.5 - log_a, 0.0)


_CLOSED_REPORTS = [
    (MittagLeffler(1.0, 1.0), astuple(ml_equilibrium(1.0, 1.0))[:4]),
    (TruncatedUnitary(1.0, 1.0), astuple(tu_equilibrium(1.0, 1.0))[:4]),
    (dilate(Ginibre(), 1.5), _dilated_ginibre_closed(1.5)),
]


@pytest.mark.parametrize("p, want", _CLOSED_REPORTS, ids=["ml11", "tu11", "dilated-ginibre"])
def test_equilibrium_report_matches_its_closed_form(p, want):
    rep = equilibrium_report(p)
    got = (rep.energy, rep.entropy, rep.log_potential_origin, rep.f_term)
    for name, g, w in zip(("energy", "entropy", "U(0)", "f_term"), got, want):
        assert abs(g - w) <= _CLOSED_BOUND, name
    f_kind = f_disc if rep.droplet.kind == "disc" else f_annulus
    assert f_kind(p) == rep.f_term
    if rep.droplet.kind == "disc":
        assert abs(f_disc_chi_form(p) - want[3]) <= _CLOSED_BOUND


def _conical_closed(lam):
    # The c -> 0 limits of ml_equilibrium(lam, c): the energy
    # I_Q = 1/lam - log(1/lam)/(2 lam) - 1/(4 lam) and the entropy
    # E_Q = 2 log lam + (lam - 1)/lam (log(1/lam) - 1), each as its terms.
    ell = math.log(1.0 / lam)
    return ((1.0 / lam, -ell / (2.0 * lam), -1.0 / (4.0 * lam)),
            (2.0 * math.log(lam), (lam - 1.0) / lam * (ell - 1.0)))


@pytest.mark.parametrize("lam", [1.0 / 3.0, 0.5, 0.7, 2.0], ids=["third", "half", "0.7", "2"])
def test_conical_origin_functionals_meet_their_integral_target(lam):
    # ML(lam, 0) has Laplacian lam^2 r^(2 lam - 2): singular (lam < 1) or
    # vanishing (lam > 1) at the origin, but lam^2 x^(lam - 1) is
    # integrable on [0, r1^2] in x = r^2, so nothing is lost below a cut.
    # mass and entropy are one integral each, met to max(1e-16, 1e-13 |I|);
    # energy = q(r1) - log r1 - I/8 meets 1e-13 |I/8| + 1e-16.  Rounding:
    # each term, here and in the closed form, is within 2 eps of its value
    # and each of at most three additions adds eps of the partial sum, so
    # 8 eps of the sum of the terms' magnitudes covers both sides.
    # At lam = 1/3 the entropy integrand lam^2 x^(-2/3) log(lam^2 x^(-2/3))
    # is still integrable, but the refinement may stall on it; it raises
    # IntegrationError then, and never returns a value outside the bound.
    p = MittagLeffler(lam, 0.0)
    e_terms, s_terms = _conical_closed(lam)
    mass_bound = 1e-13 + 1e-16 + 8.0 * _EPS
    assert abs(mu_mass(p) - 1.0) <= mass_bound
    e_bound = 1e-13 * abs(e_terms[2]) + 1e-16 + 8.0 * _EPS * sum(map(abs, e_terms))
    assert abs(energy(p) - math.fsum(e_terms)) <= e_bound
    s_closed = math.fsum(s_terms)
    s_bound = 1e-13 * abs(s_closed) + 1e-16 + 8.0 * _EPS * sum(map(abs, s_terms))
    try:
        s = entropy(p)
    except IntegrationError:
        assert lam < 0.5, "only the steepest cone may stall"
        return
    assert abs(s - s_closed) <= s_bound


# A grid over [0.5, 2] with the factors whose chi form used to stall while
# the dilation's Laplacian derivatives were generic rounding noise.
_DILATIONS = sorted({*np.round(np.linspace(0.5, 2.0, 31), 6).tolist(),
                     0.56, 1.07, 1.314155, 1.34})


@pytest.mark.parametrize("a", _DILATIONS)
def test_chi_form_of_the_dilated_ginibre_starts_at_the_origin(a):
    # dilate scales Ginibre's closed-form Laplacian, so the derivatives of
    # laplacian(r) = 1 / a^2 are exactly 0 and every integrand below vanishes
    # on [0, r1^2].  Both f-terms are 0: f_disc's integral (1/48) and the chi
    # form's two (1/8 and 1/6) each meet 1e-16, and their boundary terms
    # cancel to a few roundings of log a and of r1^2 laplacian(r1) = 1:
    # 8 eps (1 + |log a|).
    p = dilate(Ginibre(), a)
    bound = 1e-16 * (1.0 / 48.0 + 1.0 / 8.0 + 1.0 / 6.0) + 8.0 * _EPS * (1.0 + abs(math.log(a)))
    assert abs(f_disc(p)) <= bound
    assert abs(f_disc_chi_form(p) - f_disc(p)) <= bound


def test_droplet_errors_name_the_potential_once():
    # q = r^2 + 0.01 sin(30 r) has Laplacian (4 + 0.3 cos(30 r)/r - 9 sin(30 r))/4,
    # negative wherever sin(30 r) > 0.5 on r >= 0.6: inside the unit-sized droplet.
    # Its derivatives are given: sin(30 z) grows too fast on the circles about
    # r for a read without them.
    p = Custom(lambda r: r * r + 0.01 * np.sin(30.0 * r), derivs=(
        lambda r: 2.0 * r + 0.3 * np.cos(30.0 * r),
        lambda r: 2.0 - 9.0 * np.sin(30.0 * r),
        lambda r: -270.0 * np.cos(30.0 * r),
        lambda r: 8100.0 * np.sin(30.0 * r),
    ), name="wavy")
    for call in (droplet_of, equilibrium_report):
        with pytest.raises(InvalidPotentialError) as exc:
            call(p)
        msg = str(exc.value)
        assert msg.startswith("wavy: the Laplacian of Q is not strictly positive"), call
        assert msg.count("wavy") == 1, call


def test_underflowing_laplacian_is_an_integration_error_not_a_warning():
    # ML(20, 0) has a zero Laplacian at the origin, which the disc
    # functionals refuse before integrating.  The same profile as a Custom
    # that supplies an origin Laplacian passes that check.  Its f-term
    # integrand 38^2 / x blows up towards the origin, where lam^2 r^38 would
    # underflow to 0; the refinement stalls before it gets there, and
    # integrate reports it with numpy quiet.  Steeper powers, r^56 and up,
    # fail droplet_of's Laplacian check first; the non-finite branch is
    # covered by test_nan_integrand_raises.
    a = 40.0
    r40 = Custom(
        lambda r: r**a,
        derivs=(
            lambda r: a * r ** (a - 1.0),
            lambda r: a * (a - 1.0) * r ** (a - 2.0),
            lambda r: a * (a - 1.0) * (a - 2.0) * r ** (a - 3.0),
            lambda r: a * (a - 1.0) * (a - 2.0) * (a - 3.0) * r ** (a - 4.0),
        ),
        laplacian_origin=1.0,
        name="r40",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidPotentialError, match="ΔQ\\(0\\) finite and > 0"):
            equilibrium_report(MittagLeffler(20.0, 0.0))
        with pytest.raises(IntegrationError, match="^r40: refinement stalled"):
            equilibrium_report(r40)


# q = (r^2 - 1)^2 / 4 has ΔQ(r) = r^2 - 1/2: -0.25 at r = 0.5, the inner
# edge of a droplet a caller hands in.
_DOUBLE_WELL = Custom(
    lambda r: (r * r - 1.0) ** 2 / 4.0,
    derivs=(lambda r: r**3 - r, lambda r: 3.0 * r * r - 1.0,
            lambda r: 6.0 * r, lambda r: 6.0 + 0.0 * r),
    name="well",
)


def test_negative_edge_laplacian_of_a_given_droplet_is_invalid():
    d = Droplet(0.5, 1.5, "annulus")
    report = EquilibriumReport(0.0, 0.0, 0.0, 0.0, d)
    want = "^well: nonpositive Laplacian -0.25 at r_tau = 0.5$"
    with pytest.raises(InvalidPotentialError, match=want):
        expansion_terms(_DOUBLE_WELL, "symplectic", report=report)
    with pytest.raises(InvalidPotentialError, match=want):
        f_annulus(_DOUBLE_WELL, d)


def test_nan_edge_laplacian_is_invalid_not_a_nan_term():
    # q'' is nan, so ΔQ(1) is, and the symplectic edge term would be nan.
    p = Custom(lambda r: r * r,
               derivs=(lambda r: 2.0 * r, lambda r: math.nan + 0.0 * r,
                       lambda r: 0.0 * r, lambda r: 0.0 * r),
               laplacian_origin=1.0, name="nan-q2")
    report = EquilibriumReport(0.75, 0.0, 0.5, 0.0, Droplet(0.0, 1.0, "disc"))
    with pytest.raises(InvalidPotentialError, match="^nan-q2: nonpositive Laplacian nan at r_tau = 1.0$"):
        expansion_terms(p, "symplectic", report=report)


# r^2 with its origin data: every functional below returns a value on its
# own droplet, so only the droplet rule can refuse these.  The energy on
# "disc-half" would be the annulus [0.5, 1]'s, 0.765625, under a disc label.
_R2 = Custom(lambda r: r * r,
             derivs=(lambda r: 2.0 * r, lambda r: 2.0 + 0.0 * r,
                     lambda r: 0.0 * r, lambda r: 0.0 * r),
             q_origin=0.0, laplacian_origin=1.0, name="r2")
_BROKEN_DROPLETS = {
    "disc-off-origin": Droplet(1.0, math.sqrt(2.0), "disc"),
    "disc-half": Droplet(0.5, 1.0, "disc"),
    "annulus-at-origin": Droplet(0.0, math.sqrt(2.0), "annulus"),
    "blob": Droplet(0.5, 1.0, "blob"),
    "r1-equals-r0": Droplet(1.0, 1.0, "annulus"),
    "r1-below-r0": Droplet(1.5, 1.0, "annulus"),
    "nan-r0": Droplet(math.nan, 1.0, "annulus"),
    "nan-r1": Droplet(0.0, math.nan, "disc"),
    "inf-r1": Droplet(0.5, math.inf, "annulus"),
}


def _expansion_on(ensemble):
    def call(p, d):
        return expansion_terms(p, ensemble, report=EquilibriumReport(0.75, 0.0, 0.5, 0.0, d))
    return call


_DROPLET_CALLS = {
    **{name: fn for name, (fn, _) in _FUNCTIONALS.items()},
    "expansion_terms-normal": _expansion_on("normal"),
    "expansion_terms-symplectic": _expansion_on("symplectic"),
}


@pytest.mark.parametrize("droplet", sorted(_BROKEN_DROPLETS))
@pytest.mark.parametrize("call", sorted(_DROPLET_CALLS))
def test_a_droplet_off_the_disc_rule_is_a_domain_error(call, droplet):
    d = _BROKEN_DROPLETS[droplet]
    with pytest.raises(DomainError, match=f"^r2: {re.escape(repr(d))} breaks the droplet rule"):
        _DROPLET_CALLS[call](_R2, d)


class _NoOriginData(RadialPotential):
    """q = r^2 through the closed-form hooks, with no q(0) or ΔQ(0): the
    base class's origin hooks raise."""

    name = "r^2 without origin data"

    def _profile(self, r, order):
        zero = _const_like(r, 0.0)
        return (r * r, 2.0 * r, _const_like(r, 2.0), zero, zero)[order]

    def r_tau(self, tau):
        return math.sqrt(tau)


@pytest.mark.parametrize("call", [
    lambda p: log_norm_lowdeg(p, NormQuery(10, 0, "normal")),
    log_potential_origin,
], ids=["log_norm_lowdeg", "log_potential_origin"])
def test_a_potential_without_origin_data_names_itself_once(call):
    p = _NoOriginData()
    assert droplet_of(p).kind == "disc"
    with pytest.raises(DomainError, match="q is not defined at the origin") as exc:
        call(p)
    assert str(exc.value).count(p.name) == 1, str(exc.value)
