"""End-to-end acceptance checks.

Each test prints a single pass/fail line so the suite output doubles as a
scorecard.  Tolerances here are contractual: do not loosen them to make a
failure go away.
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import mp_reference
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
from coulombgas.partition import expansion_terms, lemma_sum, log_z_exact
from coulombgas.potential import Custom, Ginibre, MittagLeffler, TruncatedUnitary, dilate
from coulombgas.specialfn import (
    LOG_2PI,
    ZETA_PRIME_MINUS_ONE,
    _ln_g_asymptotic,
    ln_barnes_g,
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
    terms = expansion_terms(p, ensemble, report=report)
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
            terms = expansion_terms(p, ensemble, report=report)
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
    gap30 = abs(recursion - _ln_g_asymptotic(30.0))
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


# Large-N gate: the exact route against the 40-digit per-degree reference
# (mp_reference.log_z) at the sizes where the expansion is tested, under
# mp_reference.log_z_bound, fixed before any run: the sum of the documented
# per-norm bounds plus the rounding of the sum.  Ginibre and the Custom
# r^2 discs go through the ML(1, 0) closed form of the same q = r^2.
def _reference_gap_and_bound(p, ref, n, ensemble):
    """|log_z_exact(p) - mp_reference.log_z(ref)| and its bound, with the
    norm bounds taken at p (the potential the route ran on)."""
    want = mp_reference.log_z(ref, n, ensemble)
    got = log_z_exact(p, n, ensemble)
    bound = mp_reference.log_z_bound(p, n, ensemble, ref)
    return abs(float(mpmath.mpf(got) - want)), bound


def _square_custom(derivs):
    """q = r^2 as a Custom potential without origin data (no q_origin= or
    laplacian_origin=), with analytic or finite-difference derivatives."""
    if derivs == "fd":
        return Custom(lambda r: r * r, name="custom-r^2-fd")
    return Custom(lambda r: r * r, derivs=(
        lambda r: 2.0 * r,
        lambda r: 2.0 + 0.0 * r,
        lambda r: 0.0 * r,
        lambda r: 0.0 * r,
    ), name="custom-r^2")


# Each family with the sizes it runs at.  ML(0.7, 0.3), TU(0.3, 0.8), the
# ML(lam != 1, 0) discs and the Custom r^2 discs have no Barnes-G oracle at
# every N; they also run at small N, where the saddle of the lowest degrees
# sits nearest the origin and, for TU, the hard wall.  The ML(lam != 1, 0)
# discs have no finite positive Laplacian at the origin and the Custom ones
# no origin data: the exact route needs none, as its saddle r_tau',
# tau' = (j + 1/2)/s, is positive for every degree.
_LARGE_N_FAMILIES = {
    "ml(1,1)": (lambda: MittagLeffler(1.0, 1.0), (400, 800, 1600)),
    "ml(1/2,1)": (lambda: MittagLeffler(0.5, 1.0), (400, 800, 1600)),
    "tu(1,1)": (lambda: TruncatedUnitary(1.0, 1.0), (400, 800, 1600)),
    "ginibre": (Ginibre, (400, 800, 1600)),
    "ml(0.7,0.3)": (lambda: MittagLeffler(0.7, 0.3), (10, 100, 1600)),
    "tu(0.3,0.8)": (lambda: TruncatedUnitary(0.3, 0.8), (10, 100, 1600)),
    "ml(1/2,0)": (lambda: MittagLeffler(0.5, 0.0), (10, 100, 1600)),
    "ml(2,0)": (lambda: MittagLeffler(2.0, 0.0), (10, 100, 1600)),
    "ml(1.3,0)": (lambda: MittagLeffler(1.3, 0.0), (10, 100, 1600)),
    "custom-r^2": (lambda: _square_custom("analytic"), (10, 100, 1600)),
    "custom-r^2-fd": (lambda: _square_custom("fd"), (10, 100, 1600)),
    # The disc-annulus transition: as c -> 0 the inner radius sqrt(c) and
    # the low-degree saddles and cuts move toward the origin.
    "ml(1,0.1)": (lambda: MittagLeffler(1.0, 0.1), (10, 100, 1600)),
    "ml(1,0.01)": (lambda: MittagLeffler(1.0, 0.01), (10, 100, 1600)),
    "ml(1,0.001)": (lambda: MittagLeffler(1.0, 0.001), (10, 100, 1600)),
    "ml(1,1e-6)": (lambda: MittagLeffler(1.0, 1e-6), (10, 100, 1600)),
}

_LARGE_N_CASES = [
    pytest.param(family, ensemble, n, id=f"{family}-{ensemble}-{n}")
    for family, (_, sizes) in _LARGE_N_FAMILIES.items()
    for ensemble in ("normal", "symplectic")
    for n in sizes
]


@pytest.mark.parametrize("family, ensemble, n", _LARGE_N_CASES)
def test_exact_matches_oracle_large_n(family, ensemble, n):
    p = _LARGE_N_FAMILIES[family][0]()
    ref = MittagLeffler(1.0, 0.0) if isinstance(p, (Ginibre, Custom)) else p
    t0 = time.perf_counter()
    gap, bound = _reference_gap_and_bound(p, ref, n, ensemble)
    elapsed = time.perf_counter() - t0
    _verdict(
        f"quadrature vs 40-digit reference, {family} {ensemble} N={n}",
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
    # The bound of test_exact_matches_oracle_large_n, with the norm bounds
    # at the Custom profile.  The saddle radius and the Laplacian there only
    # place the quadrature; the integrand is q itself, so a finite-difference
    # q' enters the bound only through r* in the roundoff floor.
    p = _ml11_custom(derivs)
    t0 = time.perf_counter()
    gap, bound = _reference_gap_and_bound(p, MittagLeffler(1.0, 1.0), n, ensemble)
    elapsed = time.perf_counter() - t0
    _verdict(
        f"quadrature vs 40-digit reference, {p.name} {ensemble} N={n}",
        gap <= bound,
        f"gap {gap:.3e}, bound {bound:.3e}, ratio {gap / bound:.3f}, {elapsed:.2f}s",
    )


def test_steep_hard_wall_symplectic_matches_reference():
    # TU(3, 1.6) symplectic at N = 800 stalled at j = 7 while the hard-wall
    # profile was log(beta) - log(beta - r^2), whose cancellation lifts the
    # integrand's noise above the roundoff floor of the norm target.
    p = TruncatedUnitary(3.0, 1.6)
    t0 = time.perf_counter()
    gap, bound = _reference_gap_and_bound(p, p, 800, "symplectic")
    elapsed = time.perf_counter() - t0
    _verdict(
        f"quadrature vs 40-digit reference, {p.name} symplectic N=800",
        gap <= bound,
        f"gap {gap:.3e}, bound {bound:.3e}, ratio {gap / bound:.3f}, {elapsed:.2f}s",
    )


# At j = 1 the saddle is r* ~ 4.44, where r*^(2 lam) ~ 2.70 and 2 c log r*
# ~ 2.68 cancel in q(r*).  A roundoff floor scaled by |q(r*)| understated
# the integrand's noise there (the error estimate stalled at 3.8e-14
# against a target of 3.6e-14); the floor now scales with the magnitudes
# of q's terms, and mp_reference.norm_bound derives the same floor.
def test_power_log_whose_profile_cancels_at_the_saddle_large_n():
    p = MittagLeffler(1.0 / 3.0, 0.9)
    got = log_z_exact(p, 1600, "symplectic")
    gap = abs(float(mpmath.mpf(got) - mp_reference.log_z(p, 1600, "symplectic")))
    assert gap <= mp_reference.log_z_bound(p, 1600, "symplectic")


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
def test_dilated_hard_wall_every_size_matches_reference(ensemble):
    # dilate(TU(1, 1), 0.7) puts seeds r* + k w within a few ulps of the
    # support radius at some sizes; integrate drops those, so no node lands
    # on the wall, where the profile is nan.  Every n in 2..119 against the
    # reference (TU(1, 1)'s norms times a^(2j+2)) under the gate's bound.
    p = dilate(TruncatedUnitary(1.0, 1.0), 0.7)
    t0 = time.perf_counter()
    ratios = []
    for n in range(2, 120):
        gap, bound = _reference_gap_and_bound(p, p, n, ensemble)
        ratios.append((gap / bound, n))
    worst, worst_n = max(ratios)
    elapsed = time.perf_counter() - t0
    _verdict(
        f"quadrature vs 40-digit reference, {p.name} {ensemble} N=2..119",
        worst <= 1.0,
        f"worst ratio {worst:.3f} at N={worst_n}, {elapsed:.2f}s",
    )


# Five-term expansion off the closed-form families.  R(N) = log_z_exact -
# expansion_terms(...).evaluate(N) with the quadrature equilibrium report.
# The bound is fixed before any run:
#   - if the expansion is right through its O(1) term, R = delta + a/N +
#     b/N^2 + O(N^-3) with delta = 0, so N R = a + b/N + O(N^-2) and the
#     difference of N R over a doubling, D(N) = N'R(N') - N R(N) with
#     N' = 2N, is -b/(2N) + O(N^-2): each D is half the one before, up to
#     a relative O(1/N);
#   - a wrong O(1) term puts delta N into N R, so D grows like delta N and
#     each D is about twice the one before; a wrong log N term grows the
#     same way, and a wrong O(N) or N log N term faster;
#   - so each D must keep the previous one's sign and be at most 3/4 of it
#     in magnitude.  The 1/4 of room above 1/2 takes the O(1/N) part and
#     the float64 noise in N R: at most N times the exact route's sum of
#     mp_reference.norm_bound, 1.6e-6 at N = 800 (annulus, symplectic),
#     plus N^3 eps |energy| from the expansion's N^2 term, about 1e-7.
# Both profiles have analytic derivatives.  Laplacian of Q (q'' + q'/r)/4
# is 1 + r^2 for both, 1 at the origin of the disc.  The annulus
# q = r^2 + r^4/4 - 2c log r has the inner radius r0^2 = sqrt(1 + 2c) - 1
# and a U(0) that move with its strength c while Delta Q does not, so every
# bound below holds unchanged across c.  U(0) enters only the symplectic
# O(N) term, so the strengths c = 0.1 (r0 = 0.31) and c = 2 (r0 = 1.11)
# run symplectic only; c = 1/2 (r0 = 0.64) runs in both ensembles.  A
# stronger c leaves the gates nothing to read: at c = 8, N R stays within
# 1e-6 over N = 100 ... 800 and its doubling differences change sign, so
# the ratios would read rounding.
def _quartic(kind, c=0.5):
    if kind == "disc":
        return Custom(lambda r: r * r + r**4 / 4.0, derivs=(
            lambda r: 2.0 * r + r**3,
            lambda r: 2.0 + 3.0 * r * r,
            lambda r: 6.0 * r,
            lambda r: 6.0 + 0.0 * r,
        ), q_origin=0.0, laplacian_origin=1.0, name="quartic disc")
    return Custom(lambda r: r * r + r**4 / 4.0 - 2.0 * c * np.log(r), derivs=(
        lambda r: 2.0 * r + r**3 - 2.0 * c / r,
        lambda r: 2.0 + 3.0 * r * r + 2.0 * c / r**2,
        lambda r: 6.0 * r - 4.0 * c / r**3,
        lambda r: 6.0 + 12.0 * c / r**4,
    ), name=f"quartic-log annulus c={c!r}")


_OFF_FAMILY_CASES = [
    *(pytest.param(kind, 0.5, ensemble, id=f"{kind}-{ensemble}")
      for ensemble in ("normal", "symplectic") for kind in ("disc", "annulus")),
    *(pytest.param("annulus", c, "symplectic", id=f"annulus-c{c!r}-symplectic")
      for c in (0.1, 2.0)),
]


@pytest.mark.parametrize("kind, c, ensemble", _OFF_FAMILY_CASES)
def test_expansion_remainder_is_o_of_1_over_n_off_the_families(kind, c, ensemble):
    p = _quartic(kind, c)
    t0 = time.perf_counter()
    report = equilibrium_report(p)
    assert report.droplet.kind == kind
    terms = expansion_terms(p, ensemble, report=report)
    ns = (100, 200, 400, 800)
    scaled = [n * (log_z_exact(p, n, ensemble) - terms.evaluate(n)) for n in ns]
    diffs = [b - a for a, b in zip(scaled, scaled[1:])]
    ratios = [b / a for a, b in zip(diffs, diffs[1:])]
    elapsed = time.perf_counter() - t0
    _verdict(
        f"expansion remainder O(1/N), {p.name} {ensemble}",
        all(0.0 < r <= 0.75 for r in ratios),
        f"N R(N) {', '.join(f'{v:.7f}' for v in scaled)}, "
        f"difference ratios {', '.join(f'{r:.3f}' for r in ratios)}, {elapsed:.2f}s",
    )


# The same expansion, fitted: R(N) = delta + a/N + b/N^2 by least squares
# over N = 200, 400, 800, 1600, where delta = 0 if the O(1) term is right.
# The fit's delta is sum_i w_i R(N_i) with w = (1/6, -5/6, 1/3, 4/3), the
# first row of the pseudo-inverse (checked exactly below), so an error e_i in
# R(N_i) moves delta by at most sum_i |w_i| e_i, with sum |w_i| = 8/3.
# The bound, fixed before any run, is that sum with
#   e(N) = mp_reference.route_bound (the exact route: sum of norm_bound
#          and the summation's rounding; the log h_j are the route's own)
#        + (1e-13 + 4 eps) (k S N^2 + (|E_Q| + G) N / 2 + 1 + (r1^2 - r0^2) / 48)
#        + 2 eps sum of |c_i N^i| (evaluate's products and fsum);
# k = 1 normal, 2 symplectic.  The coefficients come from quadratures to
# 1e-13 relative and from radii to 1e-13 r:
#   - c_N2 = -k E, E = q(r1) - log r1 - (1/8) int q'(sqrt x)^2 dx.  Each
#     of its three terms is at most S = |q(r1)| + |log r1| + |q(r1) -
#     log r1 - E|, and E is stationary in r0 and r1 (r q'(r) = 2 at r1, 0
#     at r0);
#   - c_N takes -E_Q / 2; E_Q = int Delta Q log Delta Q dx moves by
#     1e-13 G, G = sum over the edges of 2 r^2 Delta Q |log Delta Q|, with
#     the radii; U(0) is stationary in them;
#   - c_1 takes f_term (times 1/2 symplectic) and the edge Laplacians:
#     the f_term integral (1/48) int (Delta Q' / Delta Q)^2 dx is at most
#     (r1^2 - r0^2) / 48, since Delta Q = 1 + r^2 and 2r / (1 + r^2) <= 1,
#     and its log and edge terms move with the radii by at most 1e-13.
# The float64 weighted sum adds 4 eps sum |w_i R_i|.  An O(N^-3) term
# c3 / N^3 in R leaks c3 sum_i w_i / N_i^3 = 8.8e-9 c3 into delta; the
# bound allows |c3| <= 1.
_FIT_NS = (200, 400, 800, 1600)
_FIT_WEIGHTS = tuple(map(Fraction, ("1/6", "-5/6", "1/3", "4/3")))


def test_fit_weights_are_the_least_squares_delta():
    # Exactly, in x = 1/N: w reproduces delta (sum w x^m = 1, 0, 0 for
    # m = 0, 1, 2) and lies in the span of the fit's columns (orthogonal
    # to v, the weights of the third divided difference, which span the
    # complement).  Then sum w x^3 is the leak of an N^-3 term.
    xs = [Fraction(1, n) for n in _FIT_NS]
    assert [sum(w * x**m for w, x in zip(_FIT_WEIGHTS, xs)) for m in range(3)] == [1, 0, 0]
    v = [1 / math.prod(x - y for y in xs if y != x) for x in xs]
    assert sum(w * vi for w, vi in zip(_FIT_WEIGHTS, v)) == 0
    assert sum(w * x**3 for w, x in zip(_FIT_WEIGHTS, xs)) <= Fraction(88, 10**10)


def _expansion_error(p, report, terms, n):
    """e(N) less route_bound: the expansion's share, as derived above."""
    eps = mp_reference.EPS
    k = 1 if terms.ensemble == "normal" else 2
    d = report.droplet
    q1 = float(p.q_derivs(d.r1))
    s = abs(q1) + abs(math.log(d.r1)) + abs(q1 - math.log(d.r1) - report.energy)
    edges = (d.r0, d.r1) if d.kind == "annulus" else (d.r1,)
    g = math.fsum(2.0 * r * r * p.laplacian(r) * abs(math.log(p.laplacian(r))) for r in edges)
    ln = math.log(n)
    parts = (terms.c_n2 * n * n, terms.c_nlogn * n * ln, terms.c_n * n, terms.c_logn * ln,
             terms.c_1)
    coefficients = (k * s * n * n + (abs(report.entropy) + g) * n / 2.0
                    + 1.0 + (d.r1**2 - d.r0**2) / 48.0)
    return (1e-13 + 4.0 * eps) * coefficients + 2.0 * eps * math.fsum(map(abs, parts))


@pytest.mark.parametrize("kind, c, ensemble", _OFF_FAMILY_CASES)
def test_expansion_fit_has_no_o1_residual_off_the_families(kind, c, ensemble):
    p = _quartic(kind, c)
    t0 = time.perf_counter()
    report = equilibrium_report(p)
    terms = expansion_terms(p, ensemble, report=report)
    residuals, errors = [], []
    for n in _FIT_NS:
        degrees = range(n) if ensemble == "normal" else range(1, 2 * n, 2)
        log_hs = [log_norm_exact(p, NormQuery(n, j, ensemble)) for j in degrees]
        residuals.append(log_z_exact(p, n, ensemble) - terms.evaluate(n))
        errors.append(mp_reference.route_bound(p, n, ensemble, log_hs)
                      + _expansion_error(p, report, terms, n))
    weights = [float(w) for w in _FIT_WEIGHTS]
    weighted = [w * r for w, r in zip(weights, residuals)]
    delta = math.fsum(weighted)
    bound = (math.fsum(abs(w) * e for w, e in zip(weights, errors))
             + 4.0 * mp_reference.EPS * math.fsum(map(abs, weighted)) + 8.8e-9)
    elapsed = time.perf_counter() - t0
    _verdict(
        f"expansion fit O(1) residual, {p.name} {ensemble}",
        abs(delta) <= bound,
        f"delta {delta:.3e}, bound {bound:.3e} ({abs(delta) / bound:.1e} of it), {elapsed:.2f}s",
    )
