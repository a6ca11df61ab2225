import copy
import math
import time

import mpmath
import pytest

import mp_reference
from coulombgas import oracles
from coulombgas.droplet import droplet_of
from coulombgas.equilibrium import energy, entropy, f_annulus, f_disc
from coulombgas.errors import DomainError, InvalidPotentialError
from coulombgas.oracles import (
    _MAX_FACTORS,
    ml_equilibrium,
    ml_log_z,
    tu_equilibrium,
    tu_log_z,
)
from coulombgas.partition import expansion_terms, log_z_exact
from coulombgas.potential import MittagLeffler, TruncatedUnitary
from coulombgas.specialfn import LOG_2PI, ln_barnes_g

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


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
def test_ml_log_z_refuses_lam_off_k_over_p_by_more_than_rounding(ensemble):
    # 1/lam = 3.0000000003 is no integer: the Barnes G product at p = 3
    # misses this lam's log Z by -6.9e-6 at N = 100 and -1.1e-4 at N = 400
    # (c = 1, normal).
    with pytest.raises(DomainError, match="must be a positive integer"):
        ml_log_z(0.3333333333, 1.0, 10, ensemble)


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
def test_ml_log_z_accepts_k_over_p_for_every_p(ensemble, monkeypatch):
    # lam = fl(k / p) for every p up to 1000 passes the integrality check.
    # The Barnes G values are stubbed out: the check is under test, not the
    # 500,500 factors, which would take seconds.
    k = 1 if ensemble == "normal" else 2
    monkeypatch.setattr(oracles, "ln_barnes_g", lambda x: 0.0)
    for p in range(1, 1001):
        assert math.isfinite(ml_log_z(k / p, 1.0, 1, ensemble)), p


def test_ml_log_z_allows_zero_offset():
    val = ml_log_z(1.0, 0.0, 10, "normal")
    assert math.isfinite(val)


def test_ml_equilibrium_requires_annulus():
    with pytest.raises(DomainError):
        ml_equilibrium(1.0, 0.0)


def test_ml_equilibrium_droplet_keeps_the_disc_rule():
    # r0 and r1 round to one float, so droplet_of finds no droplet; the
    # report used to carry it and fail only in expansion_terms.
    with pytest.raises(InvalidPotentialError, match="zero-width droplet"):
        droplet_of(MittagLeffler(1.0, 1e17))
    with pytest.raises(DomainError, match="breaks the droplet rule"):
        ml_equilibrium(1.0, 1e17)
    # r0 underflows to 0.0, which droplet_of calls a disc.
    assert droplet_of(MittagLeffler(0.1, 1e-300)).kind == "disc"
    with pytest.raises(DomainError, match="breaks the droplet rule"):
        ml_equilibrium(0.1, 1e-300)


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
        MittagLeffler(lam, c), "normal", report=ml_equilibrium(lam, c)
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


@pytest.mark.parametrize(
    "call",
    [
        lambda: ml_log_z(1.0, 1e300, 10),
        lambda: ml_log_z(1.0, 1e300, 10, "symplectic"),
        lambda: ml_log_z(0.5, 1e200, 10),
        lambda: tu_log_z(1e300, 1.0, 10),
        lambda: tu_log_z(1e300, 1.0, 10, "symplectic"),
        lambda: ml_equilibrium(1.0, 1e300),
        lambda: ml_equilibrium(1e300, 1.0),
        lambda: tu_equilibrium(1e300, 1.0),
        lambda: ml_log_z(5e-324, 1.0, 10),
    ],
    ids=["ml-c", "ml-c-symplectic", "ml-half-c", "tu-alpha", "tu-alpha-symplectic",
         "ml_equilibrium-c", "ml_equilibrium-lam", "tu_equilibrium-alpha", "ml-tiny-lam"],
)
def test_oracle_result_beyond_float64_is_domain_error(call):
    # Finite parameters whose result overflows or cancels to nan.
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
def test_ml_log_z_factor_cap_fails_fast(ensemble):
    # 1/lam = 1e300 is integral in float64; without the cap the oracle would
    # loop over 1e300 Barnes G factors.  p = k/lam, k = 1 normal, 2 symplectic.
    k = 1.0 if ensemble == "normal" else 2.0
    for lam in (1e-300, k / (_MAX_FACTORS + 1)):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="Barnes G factors"):
            ml_log_z(lam, 1.0, 10, ensemble)
        assert time.perf_counter() - start < 0.5


EPS = mp_reference.EPS

_TWIN_CASES = [
    (MittagLeffler(1.0, 1.0), "normal"),
    (MittagLeffler(1.0, 1.0), "symplectic"),
    (MittagLeffler(1.0 / 3.0, 1.1), "normal"),
    (MittagLeffler(1.0 / 3.0, 1.1), "symplectic"),
    (MittagLeffler(0.5, 0.0), "normal"),
    (MittagLeffler(0.5, 0.0), "symplectic"),
    (MittagLeffler(2.0 / 3.0, 0.4), "symplectic"),
    (MittagLeffler(2.0, 1.5), "symplectic"),
    (TruncatedUnitary(1.0, 1.0), "normal"),
    (TruncatedUnitary(1.0, 1.0), "symplectic"),
    (TruncatedUnitary(2.0, 1.5), "normal"),
    (TruncatedUnitary(3.0, 0.7), "symplectic"),
]


def _exact_lam(p, ensemble):
    """p, with an ML's lam held as the 40-digit k/P, P the integer nearest
    k/lam: the weight that telescoped_log_z and ml_log_z take, which
    mp_reference.log_z then sums degree by degree."""
    if not isinstance(p, MittagLeffler):
        return p
    k = 1 if ensemble == "normal" else 2
    q = copy.copy(p)
    with mpmath.workdps(50):
        q.lam = mpmath.mpf(k) / round(k / p.lam)
    return q


@pytest.mark.parametrize("n", [1, 5, 25, 100])
@pytest.mark.parametrize("p, ensemble", _TWIN_CASES, ids=[f"{p.name}-{e}" for p, e in _TWIN_CASES])
def test_telescoped_twin_is_the_per_degree_reference(p, ensemble, n):
    # The twin's algebra on its own: its Barnes G sum against the sum of
    # the n closed-form norms, both at 40 digits.
    want = mp_reference.log_z(_exact_lam(p, ensemble), n, ensemble)
    got = mp_reference.telescoped_log_z(p, n, ensemble)
    assert abs(got - want) <= 1e-30 * max(1, abs(want)), (got, want)


_GATE_CASES = [
    (MittagLeffler(1.0, 1.0), "normal"),
    (MittagLeffler(1.0, 1.0), "symplectic"),
    (MittagLeffler(0.5, 1.0), "normal"),
    (MittagLeffler(0.5, 1.0), "symplectic"),
    (MittagLeffler(1.0 / 3.0, 1.1), "normal"),
    (MittagLeffler(1.0, 0.0), "symplectic"),
    (MittagLeffler(2.0 / 3.0, 0.4), "symplectic"),
    (TruncatedUnitary(1.0, 1.0), "normal"),
    (TruncatedUnitary(1.0, 1.0), "symplectic"),
    (TruncatedUnitary(2.0, 1.5), "normal"),
    (TruncatedUnitary(0.5, 2.0), "symplectic"),
]


# The oracles' error against the telescoped twin, from their documented
# parts and fixed before the first run: the sum of
#   - for each ln_barnes_g term, 1.3e-11 when its argument x is below 31,
#     else 23 eps |ln G(x)|: ln_barnes_g's documented error;
#   - 4 ulp for each math.lgamma (ln_factorial and ln_gamma), the one of
#     ln Gamma(b) carried through its factor n;
#   - 4 eps |t| for each other term t: a few roundings of eps/2 each, in
#     the term and in the floats c n and b/k it is built from;
#   - half an ulp of the result, the one rounding of math.fsum.
# An ulp of x is at most eps |x|.
def _gamma_sum_bound(p, n, z0):
    others = (n * (1.0 - p) / 2.0 * LOG_2PI,
              (p * (n * (n + 1) / 2.0 + n * z0) - n / 2.0) * math.log(p))
    args = [a + z0 + i / p for i in range(p) for a in (n + 1.0, 1.0)]
    g_terms = (1.3e-11 if x < 31.0 else 23.0 * EPS * abs(ln_barnes_g(x)) for x in args)
    return 4.0 * EPS * math.fsum(map(abs, others)) + math.fsum(g_terms)


def _oracle_bound(p, n, ensemble, value):
    k = 1 if ensemble == "normal" else 2
    ulp_terms = 4.0 * EPS * math.lgamma(n + 1.0) + 0.5 * EPS * abs(value)
    if isinstance(p, MittagLeffler):
        P = round(k / p.lam)
        others = (n * math.log(P), P * (n * (n + 1) / 2.0 + p.c * n * n) * math.log(k * n))
        sums = _gamma_sum_bound(P, n, p.c * n)
    else:
        b = k * n * p.alpha + 1.0
        log_beta = 2.0 * math.log(p.R) + math.log1p(p.alpha)
        n_ln_gamma = n * math.lgamma(b)
        others = (n * math.log(k), k * n * (n + 1) / 2.0 * log_beta, n_ln_gamma)
        ulp_terms += 4.0 * EPS * abs(n_ln_gamma)
        sums = _gamma_sum_bound(k, n, 0.0) + _gamma_sum_bound(k, n, b / k)
    return ulp_terms + 4.0 * EPS * math.fsum(map(abs, others)) + sums


def _oracle(p, n, ensemble):
    if isinstance(p, MittagLeffler):
        return ml_log_z(p.lam, p.c, n, ensemble)
    return tu_log_z(p.alpha, p.R, n, ensemble)


@pytest.mark.parametrize("n", [10, 100, 1600, 12800])
@pytest.mark.parametrize("p, ensemble", _GATE_CASES, ids=[f"{p.name}-{e}" for p, e in _GATE_CASES])
def test_oracles_meet_the_telescoped_twin_at_large_n(p, ensemble, n):
    got = _oracle(p, n, ensemble)
    want = mp_reference.telescoped_log_z(p, n, ensemble)
    gap = abs(float(got - want))
    assert gap <= _oracle_bound(p, n, ensemble, got), (gap, _oracle_bound(p, n, ensemble, got))
