import math
from functools import partial

import numpy as np
import pytest

from coulombgas.droplet import dr_dtau, solve_r_tau
from coulombgas.errors import DomainError
from coulombgas.oracles import ml_equilibrium, ml_log_z, tu_log_z
from coulombgas.partition import (
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
from coulombgas.specialfn import LOG_2PI, ZETA_PRIME_MINUS_ONE, ln_factorial

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


@pytest.mark.parametrize(
    "p, n, ensemble, want",
    [
        (MittagLeffler(1.0, 1.0), 100, "normal", "-0x1.06ddea5ae497ap+13"),
        (MittagLeffler(0.5, 1.0), 60, "symplectic", "0x1.5fe50a35803cdp+11"),
        (TruncatedUnitary(1.0, 1.0), 80, "symplectic", "-0x1.a5417da1eafd7p+12"),
        (dilate(Ginibre(), 1.5), 50, "normal", "-0x1.74773433aef40p+9"),
    ],
    ids=["ml11-normal", "ml051-symplectic", "tu11-symplectic", "dilated-ginibre-normal"],
)
def test_log_z_exact_golden_bits(p, n, ensemble, want):
    # Pinned to the last bit: changes to the saddle solve, the panel
    # bookkeeping or the summation order must not move the result.
    assert log_z_exact(p, n, ensemble).hex() == want


def _as_custom(p):
    """p's profile behind the Custom interface, with p's analytic derivatives."""
    return Custom(p.q_derivs, derivs=[partial(p.q_derivs, order=k) for k in range(1, 5)])


@pytest.mark.parametrize(
    "p, n, ensemble, want",
    [
        (_as_custom(MittagLeffler(0.5, 1.3)), 60, "normal", "0x1.f52d57076f485p+11"),
        (dilate(_as_custom(MittagLeffler(1.0, 1.0)), 1.5), 50, "symplectic",
         "-0x1.09e2639a9ab9fp+11"),
    ],
    ids=["custom-ml0513-normal", "dilated-custom-ml11-symplectic"],
)
def test_log_z_exact_custom_golden_bits(p, n, ensemble, want):
    # Custom potentials reach r_tau through the iterative root solve, not
    # the closed form; these bits pin that route end to end.
    assert log_z_exact(p, n, ensemble).hex() == want


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
    t = expansion_terms(Ginibre(), "normal", "physics")
    assert abs(t.c_n2 - (-0.75)) < 1e-12
    assert abs(t.c_nlogn - 0.5) < 1e-15
    assert abs(t.c_n - (LOG_2PI / 2.0 - 1.0)) < 1e-12
    assert abs(t.c_logn - 5.0 / 12.0) < 1e-15
    assert abs(t.c_1 - (LOG_2PI / 2.0 + ZETA_PRIME_MINUS_ONE)) < 1e-11


def test_ginibre_symplectic_coefficients():
    t = expansion_terms(Ginibre(), "symplectic", "physics")
    assert abs(t.c_n2 - (-1.5)) < 1e-12
    assert abs(t.c_nlogn - 0.5) < 1e-15
    assert abs(t.c_n - (math.log(4.0 * math.pi) / 2.0 - 1.5)) < 1e-11
    assert abs(t.c_logn - 11.0 / 24.0) < 1e-15
    want_c1 = LOG_2PI / 2.0 + ZETA_PRIME_MINUS_ONE / 2.0 + 5.0 / 24.0 * LOG2
    assert abs(t.c_1 - want_c1) < 1e-10


def test_ml_1_1_normal_coefficients():
    t = expansion_terms(MittagLeffler(1.0, 1.0), "normal", "physics")
    assert abs(t.c_n2 - (2.0 * LOG2 - 2.25)) < 1e-11
    assert abs(t.c_nlogn - 0.5) < 1e-15
    assert abs(t.c_n - (LOG_2PI / 2.0 - 1.0)) < 1e-10
    assert abs(t.c_logn - 0.5) < 1e-15
    assert abs(t.c_1 - (LOG_2PI / 2.0 - LOG2 / 12.0)) < 1e-10


def test_canonical_convention_shifts():
    p = MittagLeffler(1.0, 1.0)
    for ensemble in ("normal", "symplectic"):
        phys = expansion_terms(p, ensemble, "physics")
        cano = expansion_terms(p, ensemble, "canonical")
        assert abs(cano.c_n2 - phys.c_n2) < 1e-14
        assert abs(cano.c_nlogn - (phys.c_nlogn - 1.0)) < 1e-14
        assert abs(cano.c_n - (phys.c_n + 1.0)) < 1e-14
        assert abs(cano.c_logn - (phys.c_logn - 0.5)) < 1e-14
        assert abs(cano.c_1 - (phys.c_1 - LOG_2PI / 2.0)) < 1e-14


def test_canonical_equals_physics_minus_log_factorial():
    p = MittagLeffler(1.0, 1.0)
    for n in (50, 200):
        phys = log_z_asymptotic(p, n, "normal", "physics")
        cano = log_z_asymptotic(p, n, "normal", "canonical")
        stirling_gap = phys - cano - ln_factorial(n)
        # the conventions differ by Stirling up to the 1/(12n) remainder
        assert abs(stirling_gap) < 1.0 / (10.0 * n), n


def test_annulus_residual_scales_like_one_over_n():
    lam, c = 1.0, 1.0
    p = MittagLeffler(lam, c)
    terms = expansion_terms(p, "normal", "physics", report=ml_equilibrium(lam, c))
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


def test_lemma_sum_third_order_ratio():
    p = MittagLeffler(1.0, 1.0)
    d100, p100 = lemma_sum(p, 100, "sum_v_normal")
    d200, p200 = lemma_sum(p, 200, "sum_v_normal")
    ratio = abs(d100 - p100) / abs(d200 - p200)
    assert 4.0 <= ratio <= 16.0


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
        "physics",
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


def _ml11_study(convention, exact_fn=None):
    lam, c = 1.0, 1.0
    if exact_fn is None:
        exact_fn = lambda n: ml_log_z(lam, c, n, "normal")  # noqa: E731
    return convergence_study(
        MittagLeffler(lam, c),
        (100, 200, 400),
        "normal",
        convention,
        exact_fn=exact_fn,
        report=ml_equilibrium(lam, c),
    )


def test_canonical_residuals_shift_by_the_stirling_remainder():
    physics = _ml11_study("physics")
    canonical = _ml11_study("canonical")
    terms = expansion_terms(MittagLeffler(1.0, 1.0), "normal", "physics",
                            report=ml_equilibrium(1.0, 1.0))
    for row_p, row_c in zip(physics.rows, canonical.rows):
        n = row_p.n
        ln = math.log(n)
        stirling = n * ln - n + 0.5 * ln + 0.5 * LOG_2PI
        want = -(ln_factorial(n) - stirling)
        # Bound: every quantity entering either residual (log Z, ln n! and
        # each of the five expansion terms in both conventions) is rounded a
        # few times at its own magnitude; 8 eps of their summed magnitudes.
        scale = (
            abs(row_p.log_z_exact)
            + 2.0 * ln_factorial(n)
            + abs(terms.c_n2) * n * n
            + 2.0 * (abs(terms.c_nlogn) + 1.0) * n * ln
            + 2.0 * (abs(terms.c_n) + 1.0) * n
            + 2.0 * (abs(terms.c_logn) + 1.0) * ln
            + 2.0 * (abs(terms.c_1) + LOG_2PI)
        )
        got = row_c.residual - row_p.residual
        assert abs(got - want) <= 8.0 * np.finfo(float).eps * scale, n


def test_vanishing_residuals_skip_the_fit():
    terms = expansion_terms(MittagLeffler(1.0, 1.0), "normal", "physics",
                            report=ml_equilibrium(1.0, 1.0))
    table = _ml11_study("physics", exact_fn=terms.evaluate)
    assert table.underflow
    assert all(row.residual == 0.0 for row in table.rows)
    assert math.isnan(table.fitted_exponent) and math.isnan(table.fit_r2)
    assert table.to_csv().endswith("# fitted_exponent=nan r2=nan\n")


def test_convergence_study_input_validation():
    p = MittagLeffler(1.0, 1.0)
    with pytest.raises(DomainError):
        convergence_study(p, (5, 100), "normal", "physics")
    with pytest.raises(DomainError):
        convergence_study(p, (100,), "normal", "physics")


def test_convergence_study_dedupes_and_sorts():
    lam, c = 1.0, 1.0
    table = convergence_study(
        MittagLeffler(lam, c),
        (200, 100, 200),
        "normal",
        "physics",
        exact_fn=lambda n: ml_log_z(lam, c, n, "normal"),
        report=ml_equilibrium(lam, c),
    )
    assert [row.n for row in table.rows] == [100, 200]


@pytest.mark.parametrize("call, what", [
    (lambda p: lemma_sum(p, 10, "sum_v"), "which must be one of"),
    (lambda p: expansion_terms(p, "orthogonal"), "ensemble must be one of"),
    (lambda p: expansion_terms(p, "normal", "math"), "convention must be one of"),
], ids=["lemma_sum which", "expansion_terms ensemble", "expansion_terms convention"])
def test_argument_errors_name_the_potential(call, what):
    p = MittagLeffler(1.0, 0.5)
    with pytest.raises(DomainError) as info:
        call(p)
    assert str(info.value).startswith(f"{p.name}: {what}"), str(info.value)
