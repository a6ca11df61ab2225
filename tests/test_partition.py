import math
import re
import warnings
from dataclasses import fields
from functools import partial

import mpmath
import numpy as np
import pytest

import mp_reference
import noisy
from coulombgas.droplet import Droplet, dr_dtau, solve_r_tau
from coulombgas.equilibrium import EquilibriumReport
from coulombgas.errors import DomainError, IntegrationError, InvalidPotentialError
from coulombgas.oracles import ml_equilibrium, ml_log_z, tu_log_z
from coulombgas.partition import (
    ExpansionTerms,
    convergence_study,
    expansion_terms,
    lemma_sum,
    log_z_asymptotic,
    log_z_exact,
)
from coulombgas.norms import NormQuery
from coulombgas.potential import (
    Custom,
    Ginibre,
    MittagLeffler,
    TruncatedUnitary,
    dilate,
)
from coulombgas.quadrature import integrate
from coulombgas.specialfn import LOG_2PI, ZETA_PRIME_MINUS_ONE

LOG2 = math.log(2.0)


def test_log_z_exact_matches_ml_oracle():
    # the closed form needs 1/lam (normal) or 2/lam (symplectic) integral,
    # so the case lists differ per ensemble
    cases = {
        "normal": ((1.0, 1.0), (0.5, 0.7)),
        "symplectic": ((1.0, 1.0), (2.0, 1.0)),
    }
    for ensemble, pairs in cases.items():
        for lam, c in pairs:
            p = MittagLeffler(lam, c)
            for n in (5, 12):
                got = log_z_exact(p, n, ensemble)
                want = ml_log_z(lam, c, n, ensemble)
                assert abs(got - want) < 1e-9, (lam, c, n, ensemble)


def test_log_z_exact_matches_tu_oracle():
    p = TruncatedUnitary(1.0, 1.0)
    for ensemble in ("normal", "symplectic"):
        for n in (5, 10):
            got = log_z_exact(p, n, ensemble)
            want = tu_log_z(1.0, 1.0, n, ensemble)
            assert abs(got - want) < 1e-9, (n, ensemble)


def test_log_z_exact_threads_agree():
    p = MittagLeffler(1.0, 1.0)
    a = log_z_exact(p, 30, "normal", threads=1)
    b = log_z_exact(p, 30, "normal", threads=4)
    assert a == b


def _assert_golden(p, n, ensemble, want, ref):
    """log_z_exact(p) pinned to the last bit (unless want is None), and
    within mp_reference.log_z_bound of the 40-digit log Z of ref, a
    closed-form family with the same profile: the check that stays
    meaningful when a change is allowed to move the bits."""
    got = log_z_exact(p, n, ensemble)
    if want is not None:
        assert got.hex() == want
    gap = abs(float(mpmath.mpf(got) - mp_reference.log_z(ref, n, ensemble)))
    assert gap <= mp_reference.log_z_bound(p, n, ensemble, ref=ref)


_ML11 = MittagLeffler(1.0, 1.0)
_ML051 = MittagLeffler(0.5, 1.0)
_TU11 = TruncatedUnitary(1.0, 1.0)


@pytest.mark.parametrize(
    "p, n, ensemble, want, ref",
    [
        (_ML11, 100, "normal", "-0x1.06ddea5ae497ap+13", _ML11),
        (_ML051, 60, "symplectic", "0x1.5fe50a35803cdp+11", _ML051),
        # The hard wall's log1p profile moved these bits; only the
        # reference comparison is kept.
        (_TU11, 80, "symplectic", None, _TU11),
        (dilate(Ginibre(), 1.5), 50, "normal", "-0x1.74773433aef40p+9",
         dilate(MittagLeffler(1.0, 0.0), 1.5)),
    ],
    ids=["ml11-normal", "ml051-symplectic", "tu11-symplectic", "dilated-ginibre-normal"],
)
def test_log_z_exact_golden_bits(p, n, ensemble, want, ref):
    # Pinned to the last bit: changes to the saddle solve, the panel
    # bookkeeping or the summation order must not move the result.
    _assert_golden(p, n, ensemble, want, ref)


def _as_custom(p):
    """p's profile behind the Custom interface, with p's analytic derivatives."""
    return Custom(p.q_derivs, derivs=[partial(p.q_derivs, order=k) for k in range(1, 5)])


@pytest.mark.parametrize(
    "p, n, ensemble, want, ref",
    [
        (_as_custom(MittagLeffler(0.5, 1.3)), 60, "normal", "0x1.f52d57076f485p+11",
         MittagLeffler(0.5, 1.3)),
        (dilate(_as_custom(_ML11), 1.5), 50, "symplectic", "-0x1.09e2639a9ab9fp+11",
         dilate(_ML11, 1.5)),
    ],
    ids=["custom-ml0513-normal", "dilated-custom-ml11-symplectic"],
)
def test_log_z_exact_custom_golden_bits(p, n, ensemble, want, ref):
    # Custom potentials reach r_tau through the iterative root solve, not
    # the closed form; these bits pin that route end to end.
    _assert_golden(p, n, ensemble, want, ref)


# The profile of ML(1/3, 0.7) without derivs, read on circles.
_CIRCLE_ML = Custom(lambda r: r ** (2.0 / 3.0) - 1.4 * np.log(r), name="circle-ml-third")


@pytest.mark.parametrize(
    "ensemble, want",
    [("normal", "0x1.0bca8a2f8f4fcp+12"), ("symplectic", "0x1.07c7a630d62eap+13")],
)
def test_log_z_exact_circle_read_golden_bits(ensemble, want):
    # Each saddle solve's Newton steps and each read of the Laplacian at
    # the saddle take q' and q'' from one circle of q values; these bits
    # pin that route end to end.
    _assert_golden(_CIRCLE_ML, 60, ensemble, want, MittagLeffler(1.0 / 3.0, 0.7))


def test_log_z_exact_keeps_its_bits_under_a_raising_error_state():
    # The last panels of the hard wall's norms put nodes near r = sqrt(2),
    # where the TU profile is inf or nan; the quadrature's own error state
    # keeps that quiet, so a caller's np.errstate(all="raise") changes nothing.
    p = TruncatedUnitary(1.0, 1.0)
    want = log_z_exact(p, 40, "symplectic")
    with np.errstate(all="raise"):
        got = log_z_exact(p, 40, "symplectic")
    assert got.hex() == want.hex()


@pytest.mark.parametrize("bad", [math.nan, math.inf, True, 2.5, 0])
def test_sizes_share_one_validator(bad):
    calls = [
        lambda: log_z_exact(Ginibre(), bad),
        lambda: log_z_asymptotic(Ginibre(), bad),
        lambda: ml_log_z(1.0, 0.0, bad),
        lambda: tu_log_z(1.0, 1.0, bad),
        lambda: NormQuery(bad, 0),
        lambda: lemma_sum(MittagLeffler(1.0, 1.0), bad, "sum_v_normal"),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="n must be a positive integer"):
            call()


def test_ginibre_normal_coefficients():
    t = expansion_terms(Ginibre(), "normal")
    assert abs(t.c_n2 - (-0.75)) < 1e-12
    assert abs(t.c_nlogn - 0.5) < 1e-15
    assert abs(t.c_n - (LOG_2PI / 2.0 - 1.0)) < 1e-12
    assert abs(t.c_logn - 5.0 / 12.0) < 1e-15
    assert abs(t.c_1 - (LOG_2PI / 2.0 + ZETA_PRIME_MINUS_ONE)) < 1e-11


def test_ginibre_symplectic_coefficients():
    t = expansion_terms(Ginibre(), "symplectic")
    assert abs(t.c_n2 - (-1.5)) < 1e-12
    assert abs(t.c_nlogn - 0.5) < 1e-15
    assert abs(t.c_n - (math.log(4.0 * math.pi) / 2.0 - 1.5)) < 1e-11
    assert abs(t.c_logn - 11.0 / 24.0) < 1e-15
    want_c1 = LOG_2PI / 2.0 + ZETA_PRIME_MINUS_ONE / 2.0 + 5.0 / 24.0 * LOG2
    assert abs(t.c_1 - want_c1) < 1e-10


def test_ml_1_1_normal_coefficients():
    t = expansion_terms(MittagLeffler(1.0, 1.0), "normal")
    assert abs(t.c_n2 - (2.0 * LOG2 - 2.25)) < 1e-11
    assert abs(t.c_nlogn - 0.5) < 1e-15
    assert abs(t.c_n - (LOG_2PI / 2.0 - 1.0)) < 1e-10
    assert abs(t.c_logn - 0.5) < 1e-15
    assert abs(t.c_1 - (LOG_2PI / 2.0 - LOG2 / 12.0)) < 1e-10


def test_normal_expansion_terms_consult_no_edge_laplacian():
    # Ginibre's closed-form report: energy 3/4, entropy 0, U(0) 1/2, f 0 on
    # the unit disc.  The normal table reads no Laplacian, so a profile
    # without origin data gives Ginibre's terms; the symplectic edge term
    # needs the origin Laplacian and raises.
    report = EquilibriumReport(0.75, 0.0, 0.5, 0.0, Droplet(0.0, 1.0, "disc"))
    want = expansion_terms(Ginibre(), "normal", report=report)
    sq = Custom(lambda r: r * r, name="sq")
    for p in (sq, MittagLeffler(0.5, 0.0)):
        assert expansion_terms(p, "normal", report=report) == want
    with pytest.raises(InvalidPotentialError, match="^sq: .*no origin Laplacian supplied"):
        expansion_terms(sq, "symplectic", report=report)


def test_retired_convention_is_a_type_error():
    # log Z includes log n! on every route; a convention, by keyword or in
    # the slot it had, is refused before any work.
    p = Ginibre()
    calls = [
        lambda: expansion_terms(p, "normal", convention="physics"),
        lambda: expansion_terms(p, "normal", "physics"),
        lambda: log_z_asymptotic(p, 100, "normal", convention="physics"),
        lambda: log_z_asymptotic(p, 100, "normal", "physics"),
        lambda: convergence_study(p, (100, 200), "normal", convention="physics"),
        lambda: convergence_study(p, (100, 200), "normal", "physics"),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
    assert "convention" not in {f.name for f in fields(ExpansionTerms)}


def test_annulus_residual_scales_like_one_over_n():
    lam, c = 1.0, 1.0
    p = MittagLeffler(lam, c)
    terms = expansion_terms(p, "normal", report=ml_equilibrium(lam, c))
    scaled = []
    for n in (100, 200, 400):
        r = ml_log_z(lam, c, n, "normal") - terms.evaluate(n)
        scaled.append(n * abs(r))
    assert max(scaled) / min(scaled) < 1.2
    assert scaled[0] > 0


def test_lemma_sum_variants_converge():
    p = MittagLeffler(2.0, 1.0)
    orders = {
        "sum_v_normal": 4.0,
        "sum_v_symp_odd": 4.0,
        "sum_logdq_normal": 1.5,
        "sum_logdq_symp_odd": 1.5,
        "sum_logr_normal": 1.5,
        "sum_logr_symp_odd": 1.5,
    }
    for which, floor in orders.items():
        d100, p100 = lemma_sum(p, 100, which)
        d200, p200 = lemma_sum(p, 200, which)
        g100, g200 = abs(d100 - p100), abs(d200 - p200)
        assert g100 > 1e-13, which  # nondegenerate case really has a gap
        assert g100 / g200 > floor, (which, g100, g200)


# q = r^4 - 2 log r (ML(2, 1)) without derivs.  The droplet is
# r0 = 2^(-1/4) <= r <= r1 = 1, where laplacian = 4 r^2 >= 2.8, |q| <= 1.35
# and 0 <= q' <= 2.  The circle read's q' errs by at most
# 3 (40 eps m + 2 3^-32 (r^4 + 2)) / r (tests/test_potential.py), where m,
# the largest magnitude of q's terms on the circle of radius r / 3, is at
# most (4/3)^4 + 2 (|log(2 r0 / 3)| + asin(1/3)) <= 5: D1 = 2e-13.  r q' has
# slope 4 r laplacian >= 9.5, so a radius moves by at most D1 / 9.5 plus
# the Newton stops of 1e-13 r on each side: E = 2.3e-13.
#   - log r sums: each term moves by at most E / r0.  The prediction's U(0)
#     = -log r1 + (q(r1) - q(r0)) / 2 reads q only and is stationary in
#     r0 and r1 (r q' = 0 and 2 there), so it moves by O(E^2) plus
#     rounding, under 1e-14 a term of n U(0); the normal variant's
#     log(r1 / r0) / 2 moves by at most E / r0.
#   - V sums: V_tau'(r_tau) = 0, so each term moves by O(E^2) plus its
#     rounding, under 1e-14.  The energy is stationary in r0 and r1 too;
#     its integrand q'^2 moves by at most 2 * 2 D1 over an x-range below
#     0.3, and each integral is within 1e-13 of its value (<= 1.2), so
#     (1/8) (1.2 D1 + 2.4e-13) <= 0.15 D1 + 1e-13 per unit of n; the
#     log(r0 / r1) / (6 n) term moves by at most E / r0.
# Both sides of each sum and of each prediction stay within these bounds.
def test_lemma_sums_without_entropy_return_without_derivs():
    n = 100
    circle = Custom(lambda r: r**4 - 2.0 * np.log(r), name="circle-ml-2-1")
    ml = MittagLeffler(2.0, 1.0)
    r0, e, d1 = 2.0**-0.25, 2.3e-13, 2e-13
    bound_v = n * (0.15 * d1 + 1e-13 + 1e-14) + e / r0
    bound_logr = (n + 1) * e / r0 + n * 1e-14
    for which, bound in (("sum_v_normal", bound_v), ("sum_v_symp_odd", bound_v),
                         ("sum_logr_normal", bound_logr), ("sum_logr_symp_odd", bound_logr)):
        got, want = lemma_sum(circle, n, which), lemma_sum(ml, n, which)
        for g, w in zip(got, want):
            assert abs(g - w) <= bound, (which, g, w, abs(g - w), bound)


def test_lemma_sum_third_order_ratio():
    p = MittagLeffler(1.0, 1.0)
    d100, p100 = lemma_sum(p, 100, "sum_v_normal")
    d200, p200 = lemma_sum(p, 200, "sum_v_normal")
    ratio = abs(d100 - p100) / abs(d200 - p200)
    assert 4.0 <= ratio <= 16.0


@pytest.mark.parametrize("which", ["sum_logdq_normal", "sum_logdq_symp_odd"])
def test_lemma_sum_failure_names_the_potential_n_and_which(which):
    # The entropy integral of the prediction stalls on the noise of q''
    # (noisy.ripple).
    p = noisy.with_noise(MittagLeffler(2.0, 1.0), noisy.ripple, "quartic-log")
    want = f"^quartic-log, n=100, which={which}: refinement stalled"
    with pytest.raises(IntegrationError, match=want) as info:
        lemma_sum(p, 100, which)
    assert str(info.value).count("quartic-log") == 1


def test_lemma_sum_rejects_disc_and_bad_token():
    with pytest.raises(DomainError):
        lemma_sum(Ginibre(), 100, "sum_v_normal")
    with pytest.raises(DomainError):
        lemma_sum(MittagLeffler(1.0, 1.0), 100, "sum_v_even")


def test_euler_maclaurin_cross_check():
    # the log r lemma is Euler-Maclaurin in disguise: check the generic
    # second-order formula against the direct grid sum for g(t) = log r_t
    p = MittagLeffler(1.0, 1.0)
    n = 100

    def g(t):
        return math.log(solve_r_tau(p, float(t)))

    def gp(t):
        return dr_dtau(p, float(t)) / solve_r_tau(p, float(t))

    direct = math.fsum(g(j / n) for j in range(n))
    body, _ = integrate(np.vectorize(g), 1e-9, 1.0, rel_tol=1e-11)
    em = n * body - 0.5 * (g(1.0) - g(1e-9)) + (gp(1.0) - gp(1e-9)) / (12.0 * n)
    # with both boundary corrections the gap drops to the n^-3 term
    assert abs(direct - em) < 1e-6


def test_convergence_study_fields_and_csv():
    lam, c = 1.0, 1.0
    p = MittagLeffler(lam, c)
    table = convergence_study(
        p,
        (100, 200, 400, 800),
        "normal",
        exact_fn=lambda n: ml_log_z(lam, c, n, "normal"),
        report=ml_equilibrium(lam, c),
    )
    assert [row.n for row in table.rows] == [100, 200, 400, 800]
    resid = [abs(row.residual) for row in table.rows]
    assert resid == sorted(resid, reverse=True)
    assert not table.underflow
    assert -1.3 < table.fitted_exponent < -0.7
    assert table.fit_r2 > 0.999

    text = table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "N,log_z_exact,log_z_asymptotic,residual"
    assert len(lines) == 6
    assert lines[-1].startswith("# fitted_exponent=")
    # repr round-trip: re-parsed floats match exactly
    for row, line in zip(table.rows, lines[1:5]):
        cells = line.split(",")
        assert int(cells[0]) == row.n
        assert float(cells[1]) == row.log_z_exact
        assert float(cells[2]) == row.log_z_asymptotic
        assert float(cells[3]) == row.residual


def _ml11_study(exact_fn=None):
    lam, c = 1.0, 1.0
    if exact_fn is None:
        exact_fn = lambda n: ml_log_z(lam, c, n, "normal")  # noqa: E731
    return convergence_study(
        MittagLeffler(lam, c),
        (100, 200, 400),
        "normal",
        exact_fn=exact_fn,
        report=ml_equilibrium(lam, c),
    )


def test_vanishing_residuals_skip_the_fit():
    terms = expansion_terms(MittagLeffler(1.0, 1.0), "normal", report=ml_equilibrium(1.0, 1.0))
    table = _ml11_study(exact_fn=terms.evaluate)
    assert table.underflow
    assert all(row.residual == 0.0 for row in table.rows)
    assert math.isnan(table.fitted_exponent) and math.isnan(table.fit_r2)
    assert table.to_csv().endswith("# fitted_exponent=nan r2=nan\n")


def test_convergence_study_input_validation():
    p = MittagLeffler(1.0, 1.0)
    with pytest.raises(DomainError):
        convergence_study(p, (5, 100), "normal")
    with pytest.raises(DomainError):
        convergence_study(p, (100,), "normal")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_exact_log_z_names_n_and_value(bad):
    def exact_fn(n):
        return bad if n == 200 else ml_log_z(1.0, 1.0, n, "normal")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as exc:
            _ml11_study(exact_fn=exact_fn)
    msg = str(exc.value)
    assert msg.startswith("ml(lam=1.0, c=1.0): ")
    assert f"log Z = {bad!r} at n = 200" in msg


def test_convergence_study_dedupes_and_sorts():
    lam, c = 1.0, 1.0
    table = convergence_study(
        MittagLeffler(lam, c),
        (200, 100, 200),
        "normal",
        exact_fn=lambda n: ml_log_z(lam, c, n, "normal"),
        report=ml_equilibrium(lam, c),
    )
    assert [row.n for row in table.rows] == [100, 200]


@pytest.mark.parametrize("call, context, what", [
    (lambda p: lemma_sum(p, 10, "sum_v"), ", n=10, which=sum_v", "which must be one of"),
    (lambda p: expansion_terms(p, "orthogonal"), "", "ensemble must be one of"),
], ids=["lemma_sum which", "expansion_terms ensemble"])
def test_argument_errors_name_the_potential(call, context, what):
    p = MittagLeffler(1.0, 0.5)
    with pytest.raises(DomainError) as info:
        call(p)
    assert str(info.value).startswith(f"{p.name}{context}: {what}"), str(info.value)


# Ginibre's closed-form report, as in test_normal_expansion_terms_consult_no_edge_laplacian.
_GINIBRE_REPORT = EquilibriumReport(0.75, 0.0, 0.5, 0.0, Droplet(0.0, 1.0, "disc"))


def test_expansion_beyond_float64_is_a_domain_error_naming_n():
    # c_n2 n^2 overflows to -inf at n = 10**200.
    n = 10**200
    terms = expansion_terms(Ginibre(), "normal", report=_GINIBRE_REPORT)
    with pytest.raises(DomainError, match=f"{n}\\) is not finite in float64$"):
        terms.evaluate(n)
    assert math.isfinite(terms.evaluate(10**150))
    with pytest.raises(DomainError, match=r"^ml\(lam=1.0, c=1.0\): evaluate\(.*is not finite"):
        log_z_asymptotic(MittagLeffler(1.0, 1.0), n)


@pytest.mark.parametrize("bad", ["x", None, 1j, [1.0]], ids=["str", "none", "complex", "list"])
def test_exact_fn_value_that_is_not_a_real_number_names_n(bad):
    want = f"^ginibre\\(scale=1.0\\): exact_fn gave log Z = {re.escape(repr(bad))} at n = 20$"
    with pytest.raises(DomainError, match=want):
        convergence_study(Ginibre(), (10, 20), exact_fn=lambda n: 1.0 if n == 10 else bad,
                          report=_GINIBRE_REPORT)


def test_a_report_without_a_droplet_is_a_domain_error():
    # A report's droplet is data, never a request for droplet_of.
    report = EquilibriumReport(0.75, 0.0, 0.5, 0.0, None)
    with pytest.raises(DomainError, match="^sq: None breaks the droplet rule"):
        expansion_terms(Custom(lambda r: r * r, name="sq"), "normal", report=report)
