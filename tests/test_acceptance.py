"""End-to-end acceptance checks.

Each test prints a single pass/fail line so the suite output doubles as a
scorecard.  Tolerances here are contractual: do not loosen them to make a
failure go away.
"""

import math
import time

import numpy as np
import pytest

from coulombgas.cli import main as cli_main
from coulombgas.equilibrium import (
    b1_integral,
    equilibrium_report,
    f_annulus,
    f_disc,
    f_disc_chi_form,
    mu_mass,
    zw_coefficients,
)
from coulombgas.norms import NormQuery, log_norm_exact, log_norm_laplace
from coulombgas.oracles import ml_equilibrium, ml_log_z, tu_log_z
from coulombgas.partition import default_rel_tol, expansion_terms, lemma_sum, log_z_exact
from coulombgas.potential import Custom, Ginibre, MittagLeffler, TruncatedUnitary, dilate
from coulombgas.specialfn import (
    LOG_2PI,
    ZETA_PRIME_MINUS_ONE,
    ln_barnes_g,
    ln_barnes_g_asymptotic,
    ln_gamma,
)


def _verdict(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_exact_matches_ml_oracle_small_n():
    p = MittagLeffler(1.0, 1.0)
    t0 = time.perf_counter()
    worst = 0.0
    for n in (10, 50, 100):
        gap = abs(log_z_exact(p, n, "normal") - ml_log_z(1.0, 1.0, n, "normal"))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed <= 30.0
    _verdict(
        "quadrature vs closed form, ml annulus",
        ok,
        f"worst gap {worst:.3e}, {elapsed:.1f}s",
    )


def test_exact_matches_disc_oracles_both_ensembles():
    cases = [
        (TruncatedUnitary(1.0, 1.0), lambda n, e: tu_log_z(1.0, 1.0, n, e), "tu"),
        (Ginibre(), lambda n, e: ml_log_z(1.0, 0.0, n, e), "ginibre"),
    ]
    worst = 0.0
    for p, oracle, _ in cases:
        for ensemble in ("normal", "symplectic"):
            for n in (10, 50, 100):
                gap = abs(log_z_exact(p, n, ensemble) - oracle(n, ensemble))
                worst = max(worst, gap)
    _verdict(
        "quadrature vs closed form, disc families",
        worst <= 1e-8,
        f"worst gap {worst:.3e}",
    )


def _annulus_remainder_check(ensemble):
    report = ml_equilibrium(1.0, 1.0)
    p = MittagLeffler(1.0, 1.0)
    t0 = time.perf_counter()
    terms = expansion_terms(p, ensemble, "physics", report=report)
    ns = np.array([200, 400, 800, 1600], dtype=float)
    resid = np.array(
        [abs(ml_log_z(1.0, 1.0, int(n), ensemble) - terms.evaluate(int(n))) for n in ns]
    )
    elapsed = time.perf_counter() - t0
    slope = np.polyfit(np.log(ns), np.log(resid), 1)[0]
    ok = -1.3 <= slope <= -0.7 and resid[-1] < resid[0] / 4.0 and elapsed <= 5.0
    return ok, f"slope {slope:.3f}, R(1600)/R(200) {resid[-1] / resid[0]:.3f}, {elapsed:.1f}s"


def test_annulus_expansion_remainder_order_normal():
    ok, detail = _annulus_remainder_check("normal")
    _verdict("annulus expansion remainder, normal", ok, detail)


def test_annulus_expansion_remainder_order_symplectic():
    ok, detail = _annulus_remainder_check("symplectic")
    _verdict("annulus expansion remainder, symplectic", ok, detail)


def test_disc_expansion_residuals_decrease():
    cases = [
        (Ginibre(), lambda n, e: ml_log_z(1.0, 0.0, n, e), "ginibre"),
        (TruncatedUnitary(1.0, 1.0), lambda n, e: tu_log_z(1.0, 1.0, n, e), "tu"),
    ]
    ok = True
    details = []
    for p, oracle, tag in cases:
        report = equilibrium_report(p)
        for ensemble in ("normal", "symplectic"):
            terms = expansion_terms(p, ensemble, "physics", report=report)
            resid = [abs(oracle(n, ensemble) - terms.evaluate(n)) for n in (100, 200, 400, 800)]
            decreasing = all(b < a for a, b in zip(resid, resid[1:]))
            ok = ok and decreasing and resid[-1] <= 1e-2
            details.append(f"{tag}/{ensemble} R(800)={resid[-1]:.2e}")
    _verdict("disc expansion residuals decrease", ok, "; ".join(details))


def test_zw_coefficients_identify_functionals():
    worst = 0.0
    for p in (TruncatedUnitary(1.0, 1.0), TruncatedUnitary(2.0, 1.0), Ginibre()):
        rep = equilibrium_report(p)
        zw = zw_coefficients(p)
        worst = max(
            worst,
            abs(zw.f0 + rep.energy),
            abs(zw.f_half + 0.5 * rep.entropy),
            abs(zw.f1 - rep.f_term),
        )
    _verdict("x-variable functionals identify energy/entropy/correction", worst <= 1e-9, f"worst gap {worst:.3e}")


def test_laplace_norm_error_order():
    p = MittagLeffler(1.0, 1.0)
    errs = {}
    for n in (200, 400):
        q = NormQuery(n, n // 2, "normal")
        errs[n] = abs(log_norm_laplace(p, q) - log_norm_exact(p, q))
    ok = errs[400] / errs[200] <= 0.5 and errs[200] <= 1e-6
    _verdict(
        "laplace norm error order",
        ok,
        f"e(200)={errs[200]:.3e}, ratio {errs[400] / errs[200]:.3f}",
    )


def test_partial_sum_remainder_orders():
    # lam=1 makes the conformal density constant, so the logdq sums are
    # exactly zero at every N; a doubling ratio is 0/0 there and the
    # remainder bound holds trivially.  Guard that case instead of dividing.
    p = MittagLeffler(1.0, 1.0)
    floors = {
        "sum_v_normal": 4.0,
        "sum_v_symp_odd": 4.0,
        "sum_logdq_normal": 1.5,
        "sum_logdq_symp_odd": 1.5,
        "sum_logr_normal": 1.5,
        "sum_logr_symp_odd": 1.5,
    }
    ok = True
    details = []
    for which, floor in floors.items():
        d1, p1 = lemma_sum(p, 100, which)
        d2, p2 = lemma_sum(p, 200, which)
        g1, g2 = abs(d1 - p1), abs(d2 - p2)
        if g1 <= 1e-13 and g2 <= 1e-13:
            details.append(f"{which} exact")
            continue
        ratio = g1 / g2
        if ratio < floor:
            ok = False
        details.append(f"{which} {ratio:.2f}")
    _verdict("partial sum remainder orders", ok, "; ".join(details))


def test_special_function_identities():
    recursion = math.fsum(math.lgamma(k) for k in range(1, 31))
    gap30 = abs(recursion - ln_barnes_g_asymptotic(30.0))
    gap4 = abs(ln_barnes_g(4.0) - math.log(2.0))
    half = math.log(2.0) / 24.0 + 1.5 * ZETA_PRIME_MINUS_ONE - 0.25 * math.log(math.pi)
    gap_half = abs(ln_barnes_g(0.5) - half)
    gap_mult = 0.0
    for n in (2, 3):
        for z in (0.7, 1.3, 5.5, 20.25):
            lhs = ln_gamma(n * z)
            rhs = (
                (1.0 - n) / 2.0 * LOG_2PI
                + (n * z - 0.5) * math.log(n)
                + math.fsum(ln_gamma(z + k / n) for k in range(n))
            )
            gap_mult = max(gap_mult, abs(lhs - rhs))
    ok = gap30 <= 1e-4 and gap4 <= 1e-12 and gap_half <= 1e-12 and gap_mult <= 1e-12
    _verdict(
        "special function identities",
        ok,
        f"asymptotic {gap30:.1e}, G(4) {gap4:.1e}, G(1/2) {gap_half:.1e}, mult {gap_mult:.1e}",
    )


def test_invariance_suite():
    mass_gap = max(
        abs(mu_mass(p) - 1.0)
        for p in (Ginibre(), MittagLeffler(1.5, 0.8), TruncatedUnitary(2.0, 1.5))
    )

    ml = MittagLeffler(1.0, 1.0)
    tu = TruncatedUnitary(1.0, 1.0)
    fa, fd = f_annulus(ml), f_disc(tu)
    dilation_gap = 0.0
    for a in (0.5, 2.0, 3.0):
        dilation_gap = max(
            dilation_gap,
            abs(f_annulus(dilate(ml, a)) - fa),
            abs(f_disc(dilate(tu, a)) - fd),
        )

    chi_gap = max(
        abs(f_disc(p) - f_disc_chi_form(p))
        for p in (Ginibre(), TruncatedUnitary(1.0, 1.0), TruncatedUnitary(2.0, 1.0))
    )

    b1_gap = 0.0
    for lam, c in ((1.0, 1.0), (2.0, 1.0), (0.5, 0.7)):
        direct, identity = b1_integral(MittagLeffler(lam, c))
        b1_gap = max(b1_gap, abs(direct - identity))

    ok = (
        mass_gap <= 1e-12
        and dilation_gap <= 1e-10
        and chi_gap <= 1e-9
        and b1_gap <= 1e-9
    )
    _verdict(
        "invariance suite",
        ok,
        f"mass {mass_gap:.1e}, dilation {dilation_gap:.1e}, chi {chi_gap:.1e}, b1 {b1_gap:.1e}",
    )


def test_converge_csv_determinism(tmp_path):
    base = [
        "converge",
        "--potential",
        "ml",
        "--lambda",
        "1",
        "--c",
        "1",
        "--Ns",
        "10,15,20,30",
    ]
    f1 = tmp_path / "threads1.csv"
    f8 = tmp_path / "threads8.csv"
    rc1 = cli_main(base + ["--threads", "1", "--out", str(f1)])
    rc8 = cli_main(base + ["--threads", "8", "--out", str(f8)])
    identical = f1.read_bytes() == f8.read_bytes()
    ok = rc1 == 0 and rc8 == 0 and identical
    _verdict("converge output determinism across thread counts", ok, f"byte-identical={identical}")


# Large-N gate: the exact route against the Barnes-G oracles at the sizes
# where the expansion is tested.  The bound is fixed before any run:
#   - each of the n norms is accurate to default_rel_tol(n) relative, or to
#     its roundoff floor floor_j = 4 s eps (|q(r*_j)| + |2 tau_j log r*_j|)
#     where that is larger, which moves log Z by at most n * rel_tol plus
#     the sum of the floors.  The floors are the rounding of s V_tau at the
#     saddles, O(s) per degree for these families against the O(n^2 log n)
#     scales below: summed over j they are at most 8 % of the 4-ulp term
#     in each of the 24 cases;
#   - both routes round their sums once, so each contributes a few ulp of
#     its largest intermediate: |log Z| for the compensated norm sum, and for
#     the oracle the Barnes-G terms ln G(x) ~ x^2 ln(x) / 2 at x up to
#     n (1 + c) + 2 (power-log, p = 1/lam or 2/lam factors, next to
#     p (n^2/2 + c n^2) ln s) or (1 + alpha) n + 2 (hard wall, next to
#     s n |ln beta|), with s = n or 2n.
# 4 ulp of each scale covers the rounding of both routes.
_EPS = float(np.finfo(float).eps)


def _ml_scale(lam, c, n, ensemble):
    k = 1 if ensemble == "normal" else 2
    x = n * (1.0 + c) + 2.0
    return k / lam * (x * x * math.log(x) + (0.5 + c) * n * n * math.log(k * n))


def _tu_scale(alpha, R, n, ensemble):
    k = 1 if ensemble == "normal" else 2
    x = (1.0 + alpha) * n + 2.0
    log_beta = abs(2.0 * math.log(R) + math.log1p(alpha))
    return 2.0 * x * x * math.log(x) + k * n * n * log_beta


_LARGE_N_FAMILIES = {
    "ml(1,1)": (lambda: MittagLeffler(1.0, 1.0),
                lambda n, e: ml_log_z(1.0, 1.0, n, e),
                lambda n, e: _ml_scale(1.0, 1.0, n, e)),
    "ml(1/2,1)": (lambda: MittagLeffler(0.5, 1.0),
                  lambda n, e: ml_log_z(0.5, 1.0, n, e),
                  lambda n, e: _ml_scale(0.5, 1.0, n, e)),
    "tu(1,1)": (lambda: TruncatedUnitary(1.0, 1.0),
                lambda n, e: tu_log_z(1.0, 1.0, n, e),
                lambda n, e: _tu_scale(1.0, 1.0, n, e)),
    # The oracle of Ginibre is the power-log family at lam = 1, c = 0.
    "ginibre": (Ginibre,
                lambda n, e: ml_log_z(1.0, 0.0, n, e),
                lambda n, e: _ml_scale(1.0, 0.0, n, e)),
}

_LARGE_N_CASES = [
    pytest.param(family, ensemble, n, id=f"{family}-{ensemble}-{n}")
    for family in _LARGE_N_FAMILIES
    for ensemble in ("normal", "symplectic")
    for n in (400, 800, 1600)
]


@pytest.mark.parametrize("family, ensemble, n", _LARGE_N_CASES)
def test_exact_matches_oracle_large_n(family, ensemble, n):
    make, oracle, scale = _LARGE_N_FAMILIES[family]
    t0 = time.perf_counter()
    exact = log_z_exact(make(), n, ensemble)
    elapsed = time.perf_counter() - t0
    ref = oracle(n, ensemble)
    bound = n * default_rel_tol(n) + 4.0 * _EPS * (abs(ref) + scale(n, ensemble))
    gap = abs(exact - ref)
    _verdict(
        f"quadrature vs closed form, {family} {ensemble} N={n}",
        gap <= bound,
        f"gap {gap:.3e}, bound {bound:.3e}, ratio {gap / bound:.3f}, {elapsed:.2f}s",
    )


def _ml11_custom(derivs):
    """The ML(1, 1) profile r^2 - 2 log r as a Custom potential, so that
    every saddle radius comes from the r q'(r) table, with analytic or with
    finite-difference derivatives."""
    q = lambda r: r * r - 2.0 * np.log(r)
    if derivs == "fd":
        return Custom(q, name="custom-ml(1,1)-fd")
    return Custom(q, derivs=(
        lambda r: 2.0 * r - 2.0 / r,
        lambda r: 2.0 + 2.0 / r**2,
        lambda r: -4.0 / r**3,
        lambda r: 12.0 / r**4,
    ), name="custom-ml(1,1)")


@pytest.mark.parametrize("derivs", ["analytic", "fd"])
@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
@pytest.mark.parametrize("n", [400, 1600])
def test_custom_exact_matches_oracle_large_n(derivs, ensemble, n):
    # The bound of test_exact_matches_oracle_large_n.  The saddle radius and
    # the Laplacian there only place the quadrature; the integrand is q
    # itself, so a finite-difference q' does not enter the bound.
    p = _ml11_custom(derivs)
    t0 = time.perf_counter()
    exact = log_z_exact(p, n, ensemble)
    elapsed = time.perf_counter() - t0
    ref = ml_log_z(1.0, 1.0, n, ensemble)
    bound = n * default_rel_tol(n) + 4.0 * _EPS * (abs(ref) + _ml_scale(1.0, 1.0, n, ensemble))
    gap = abs(exact - ref)
    _verdict(
        f"quadrature vs closed form, {p.name} {ensemble} N={n}",
        gap <= bound,
        f"gap {gap:.3e}, bound {bound:.3e}, ratio {gap / bound:.3f}, {elapsed:.2f}s",
    )
