import math
import re
import warnings

import numpy as np
import pytest

from coulombgas.droplet import Droplet, droplet_of
from coulombgas.equilibrium import (
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
from coulombgas.errors import DomainError, IntegrationError, InvalidPotentialError
from coulombgas.norms import NormQuery, log_norm_highdeg, log_norm_lowdeg
from coulombgas.oracles import ml_equilibrium, tu_equilibrium
from coulombgas.partition import expansion_terms, lemma_sum
from coulombgas.potential import Custom, Ginibre, MittagLeffler, TruncatedUnitary, dilate

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
    "log_norm_highdeg": lambda p: log_norm_highdeg(p, NormQuery(10, 9)),
}
_NEEDS_ANNULUS = {"f_annulus", "b1_integral", "lemma_sum"}


@pytest.mark.parametrize("guard", sorted(_KIND_GUARDS))
def test_kind_guards_name_the_potential(guard):
    p = Ginibre(1.5) if guard in _NEEDS_ANNULUS else MittagLeffler(1.0, 0.5)
    with pytest.raises(DomainError) as info:
        _KIND_GUARDS[guard](p)
    assert str(info.value).startswith(f"{p.name}: "), str(info.value)
    assert str(info.value).count(p.name) == 1


# Disc potentials without a finite positive laplacian_at_zero(): ML(lam, 0)
# with lam != 1 has a Laplacian that diverges or vanishes at 0, and r^2 as a
# Custom supplies no origin data.  Their order-one integrand diverges at the
# origin, so a value would depend on the inner cutoff: for ML(1/2, 0), 1.2716
# at 1e-12 r1 and 0.9837 at 1e-9 r1.
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
    # log_norm_lowdeg and expansion_terms with a given report ask the
    # potential for its origin data and add no context of their own.
    half, ml11 = MittagLeffler(0.5, 0.0), MittagLeffler(1.0, 1.0)
    report = equilibrium_report(Ginibre())
    calls = [
        (half, lambda: log_norm_lowdeg(half, NormQuery(10, 1))),
        (half, lambda: expansion_terms(half, report=report)),
        (half, half.laplacian_at_zero),
        (ml11, ml11.q_at_zero),
    ]
    for p, call in calls:
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value).startswith(f"{p.name}: "), str(info.value)
    assert half.name == "ml(lam=0.5, c=0.0)"


def test_b1_ginibre_closed_form():
    p = Ginibre()
    for r in (0.3, 0.8, 1.0):
        assert abs(b1(p, r) - 1.0 / (12.0 * r * r)) < 1e-13


# (energy, entropy, log_potential_origin, f_term) as float.hex(), plus
# f_disc_chi_form for the discs: the bits of the per-functional code that
# one shared quadrature policy and one order-one term replaced.
_REPORT_BITS = [
    (MittagLeffler(1.0, 1.0),
     ("0x1.ba37a020b8c25p-1", "0x0.0p+0", "-0x1.8b90bfbe8e7b8p-3",
      "-0x1.d9303fea2f7ecp-5"), None),
    (MittagLeffler(0.5, 1.0),
     ("-0x1.687a9f1af2b12p-2", "-0x1.3b9d3beb8c86bp+1", "-0x1.145647e7756e6p+0",
      "-0x1.d9303fea2f7e9p-6"), None),
    (TruncatedUnitary(1.0, 1.0),
     ("0x1.145647e7756e7p-1", "0x1.45647e7756e6ep-4", "0x1.62e42fefa39efp-2",
      "-0x1.a4d1a53a10b3ap-3"), "-0x1.a4d1a53a10b3ap-3"),
    (Ginibre(),
     ("0x1.8000000000000p-1", "0x0.0p+0", "0x1.0000000000000p-1", "0x0.0p+0"),
     "0x0.0p+0"),
    (dilate(Ginibre(), 1.5),
     ("0x1.60cdc134067b3p-2", "-0x1.9f323ecbf984cp-1", "0x1.833704d019ed0p-4",
      "0x1.22b5c29a75c76p-109"), "-0x1.93278d361b43dp-58"),
]


@pytest.mark.parametrize(
    "p, want, chi", _REPORT_BITS,
    ids=["ml11", "ml-half-1", "tu11", "ginibre", "dilated-ginibre"],
)
def test_equilibrium_report_golden_bits(p, want, chi):
    rep = equilibrium_report(p)
    got = (rep.energy, rep.entropy, rep.log_potential_origin, rep.f_term)
    assert tuple(x.hex() for x in got) == want
    f_kind = f_disc if rep.droplet.kind == "disc" else f_annulus
    assert f_kind(p).hex() == want[3]
    if chi is not None:
        assert f_disc_chi_form(p).hex() == chi


def test_droplet_errors_name_the_potential_once():
    # q = r^2 + 0.01 sin(30 r) has Laplacian (4 + 0.3 cos(30 r)/r - 9 sin(30 r))/4,
    # negative wherever sin(30 r) > 0.5 on r >= 0.6: inside the unit-sized droplet.
    p = Custom(lambda r: r * r + 0.01 * np.sin(30.0 * r), name="wavy")
    for call in (droplet_of, equilibrium_report):
        with pytest.raises(InvalidPotentialError) as exc:
            call(p)
        msg = str(exc.value)
        assert msg.startswith("wavy: the Laplacian of Q is not strictly positive"), call
        assert msg.count("wavy") == 1, call


def test_underflowing_laplacian_is_an_integration_error_not_a_warning():
    # ML(20, 0) has a zero Laplacian at the origin, which the disc
    # functionals refuse before integrating.  The same profile as a Custom
    # that supplies an origin Laplacian passes that check.  Its integrands
    # blow up towards the disc cut, where lam^2 r^38 would underflow to 0;
    # the refinement stalls before it gets there, and integrate reports it
    # with numpy quiet.  Steeper powers, r^56 and up, fail droplet_of's
    # Laplacian check first; the non-finite branch is covered by
    # test_nan_integrand_raises.
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
