import math

import pytest

from coulombgas.equilibrium import energy, entropy, f_annulus, f_disc
from coulombgas.errors import DomainError
from coulombgas.oracles import ml_equilibrium, ml_log_z, tu_equilibrium, tu_log_z
from coulombgas.partition import expansion_terms, log_z_exact
from coulombgas.potential import MittagLeffler, TruncatedUnitary

# brute-force reference values from 40-digit quadrature of the norm sums
ML_REF = [
    (1.0, 1.0, 10, "normal", -73.64742255523717),
    (1.0, 1.0, 10, "symplectic", -154.59088424965128),
    (0.5, 0.7, 12, "normal", -3.3984760452377696),
    (0.5, 0.7, 12, "symplectic", -21.825961947498108),
    (2.0, 1.5, 9, "symplectic", -152.27871254898443),
    (1.0, 0.0, 10, "normal", -62.57647236277677),
    (2.0 / 3.0, 0.4, 8, "symplectic", -94.11099982137794),
]

TU_REF = [
    (1.0, 1.0, 10, "normal", -42.14712975999448),
    (1.0, 1.0, 10, "symplectic", -95.869732245553),
    (2.0, 1.5, 11, "normal", -7.94310326672709),
    (0.5, 2.0, 7, "symplectic", 42.371896082635345),
]


def test_ml_log_z_reference_values():
    for lam, c, n, ensemble, want in ML_REF:
        got = ml_log_z(lam, c, n, ensemble)
        assert abs(got - want) < 1e-10, (lam, c, n, ensemble)


def test_tu_log_z_reference_values():
    for alpha, R, n, ensemble, want in TU_REF:
        got = tu_log_z(alpha, R, n, ensemble)
        assert abs(got - want) < 1e-10, (alpha, R, n, ensemble)


def test_ml_log_z_integrality_requirements():
    # normal route needs 1/lam integral, symplectic needs 2/lam integral
    with pytest.raises(DomainError):
        ml_log_z(0.75, 1.0, 10, "normal")
    with pytest.raises(DomainError):
        ml_log_z(0.75, 1.0, 10, "symplectic")
    # lam = 2/3 fails the normal route but passes the symplectic one
    with pytest.raises(DomainError):
        ml_log_z(2.0 / 3.0, 0.4, 8, "normal")
    ml_log_z(2.0 / 3.0, 0.4, 8, "symplectic")


def test_ml_log_z_allows_zero_offset():
    val = ml_log_z(1.0, 0.0, 10, "normal")
    assert math.isfinite(val)


def test_ml_equilibrium_requires_annulus():
    with pytest.raises(DomainError):
        ml_equilibrium(1.0, 0.0)


def test_ml_equilibrium_matches_quadrature():
    for lam, c in ((1.0, 1.0), (0.5, 0.7), (2.0, 1.0)):
        p = MittagLeffler(lam, c)
        rep = ml_equilibrium(lam, c)
        assert abs(rep.energy - energy(p)) < 1e-9, (lam, c)
        assert abs(rep.entropy - entropy(p)) < 1e-9, (lam, c)
        assert abs(rep.f_term - f_annulus(p)) < 1e-9, (lam, c)
        assert rep.droplet.kind == "annulus"


def test_tu_equilibrium_matches_quadrature():
    for alpha, R in ((1.0, 1.0), (2.0, 1.5)):
        p = TruncatedUnitary(alpha, R)
        rep = tu_equilibrium(alpha, R)
        assert abs(rep.energy - energy(p)) < 1e-9, (alpha, R)
        assert abs(rep.entropy - entropy(p)) < 1e-9, (alpha, R)
        assert abs(rep.f_term - f_disc(p)) < 1e-9, (alpha, R)
        assert rep.droplet.kind == "disc"
        assert abs(rep.droplet.r1 - R) < 1e-13


def test_oracles_match_direct_quadrature_small_n():
    p = TruncatedUnitary(1.0, 1.0)
    for ensemble in ("normal", "symplectic"):
        got = log_z_exact(p, 10, ensemble)
        want = tu_log_z(1.0, 1.0, 10, ensemble)
        assert abs(got - want) < 1e-10, ensemble


def test_oracle_vs_asymptotic_residual_halves():
    lam, c = 1.0, 1.0
    terms = expansion_terms(
        MittagLeffler(lam, c), "normal", "physics", report=ml_equilibrium(lam, c)
    )
    prev = None
    for n in (200, 400, 800):
        r = abs(ml_log_z(lam, c, n, "normal") - terms.evaluate(n))
        if prev is not None:
            assert 0.25 <= r / prev <= 1.0, n
        prev = r


def test_oracle_input_validation():
    with pytest.raises(DomainError):
        ml_log_z(1.0, -0.5, 10, "normal")
    with pytest.raises(DomainError):
        ml_log_z(1.0, 1.0, 0, "normal")
    with pytest.raises(DomainError):
        ml_log_z(1.0, 1.0, 10, "orthogonal")
    with pytest.raises(DomainError):
        tu_log_z(0.0, 1.0, 10, "normal")
    with pytest.raises(DomainError):
        tu_log_z(1.0, -1.0, 10, "normal")
    # Infinite parameters go through the same check as the potentials.
    for call in (
        lambda: ml_log_z(1.0, math.inf, 10),
        lambda: ml_log_z(math.inf, 1.0, 10),
        lambda: tu_log_z(math.inf, 1.0, 10),
        lambda: tu_log_z(1.0, math.inf, 10),
        lambda: ml_equilibrium(1.0, math.inf),
        lambda: tu_equilibrium(math.inf, 1.0),
        lambda: tu_equilibrium(1.0, math.inf),
        lambda: tu_log_z(1.0, 1.0, 10, "orthogonal"),
    ):
        with pytest.raises(DomainError):
            call()
