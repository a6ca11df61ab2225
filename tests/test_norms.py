import inspect
import math
import re

import mpmath
import numpy as np
import pytest

import mp_reference
from coulombgas import droplet, norms, potential
from coulombgas.errors import DomainError, IntegrationError, InvalidPotentialError
from coulombgas.norms import (
    NormQuery,
    log_norm_exact,
    log_norm_highdeg,
    log_norm_laplace,
    log_norm_lowdeg,
)
from coulombgas.partition import convergence_study, log_z_exact
from coulombgas.potential import (
    Custom,
    Ginibre,
    MittagLeffler,
    RadialPotential,
    TruncatedUnitary,
    dilate,
    v_tau,
)
from coulombgas.specialfn import ln_gamma


def _ginibre_closed(j, s):
    # 2 int r^(2j+1) e^(-s r^2) dr = Gamma(j+1) / s^(j+1)
    return ln_gamma(j + 1.0) - (j + 1.0) * math.log(s)


def _ml_closed(lam, c, j, s):
    # substitute t = r^(2 lam); weight r^(2cs) e^(-s t)
    a = (j + 1.0 + c * s) / lam
    return -math.log(lam) - a * math.log(s) + ln_gamma(a)


def _tu_closed(alpha, R, j, s):
    # Beta integral after t = r^2 / beta
    beta = R * R * (1.0 + alpha)
    return (
        (j + 1.0) * math.log(beta)
        + ln_gamma(j + 1.0)
        + ln_gamma(alpha * s + 1.0)
        - ln_gamma(j + alpha * s + 2.0)
    )


def test_ginibre_norms_exact():
    p = Ginibre()
    for n in (10, 50, 200):
        for ensemble, s in (("normal", n), ("symplectic", 2 * n)):
            degrees = range(n) if ensemble == "normal" else range(1, 2 * n, 2)
            for j in degrees:
                q = NormQuery(n, j, ensemble)
                got = log_norm_exact(p, q)
                want = _ginibre_closed(j, s)
                assert abs(got - want) < 1e-11, (n, j, ensemble)


def test_ml_norms_exact():
    lam, c = 1.5, 0.8
    p = MittagLeffler(lam, c)
    n = 20
    for ensemble, s in (("normal", n), ("symplectic", 2 * n)):
        degrees = range(n) if ensemble == "normal" else range(1, 2 * n, 2)
        for j in degrees:
            q = NormQuery(n, j, ensemble)
            got = log_norm_exact(p, q)
            want = _ml_closed(lam, c, j, s)
            assert abs(got - want) < 1e-11 * max(1.0, abs(want)), (j, ensemble)


def test_tu_norms_exact():
    alpha, R = 2.0, 1.5
    p = TruncatedUnitary(alpha, R)
    n = 15
    for ensemble, s in (("normal", n), ("symplectic", 2 * n)):
        degrees = range(n) if ensemble == "normal" else range(1, 2 * n, 2)
        for j in degrees:
            q = NormQuery(n, j, ensemble)
            got = log_norm_exact(p, q)
            want = _tu_closed(alpha, R, j, s)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want)), (j, ensemble)


def test_laplace_error_shrinks_like_one_over_n_squared():
    p = MittagLeffler(1.0, 1.0)
    errs = {}
    for n in (100, 200):
        q = NormQuery(n, n // 2, "normal")
        errs[n] = abs(log_norm_laplace(p, q) - log_norm_exact(p, q))
    assert errs[100] < 1e-5
    assert errs[200] / errs[100] < 0.3


def test_laplace_symplectic_route():
    p = MittagLeffler(1.0, 1.0)
    n = 150
    q = NormQuery(n, 151, "symplectic")
    gap = abs(log_norm_laplace(p, q) - log_norm_exact(p, q))
    assert gap < 1e-5


def test_lowdeg_ginibre_is_exact():
    p = Ginibre()
    for n in (50, 200):
        for j in (0, 1, 2, 3):
            q = NormQuery(n, j, "normal")
            want = _ginibre_closed(j, n)
            assert abs(log_norm_lowdeg(p, q) - want) < 1e-12, (n, j)


def test_lowdeg_tu_error_shrinks():
    p = TruncatedUnitary(1.0, 1.0)
    gaps = {}
    for n in (200, 400):
        q = NormQuery(n, 3, "normal")
        gaps[n] = abs(log_norm_lowdeg(p, q) - log_norm_exact(p, q))
    assert gaps[200] < 1e-1
    assert gaps[400] < gaps[200]


def test_highdeg_matches_laplace_above_gate():
    p = TruncatedUnitary(1.0, 1.0)
    n = 200
    j = 40  # well above n^(1/6)
    q = NormQuery(n, j, "normal")
    a = log_norm_highdeg(p, q)
    b = log_norm_laplace(p, q)
    assert abs(a - b) < 1e-12


def test_highdeg_gate():
    p = Ginibre()
    n = 200
    with pytest.raises(DomainError):
        log_norm_highdeg(p, NormQuery(n, 1, "normal"))
    # symplectic gate doubles
    with pytest.raises(DomainError):
        log_norm_highdeg(p, NormQuery(n, 3, "symplectic"))


def test_disc_only_methods_reject_annulus():
    p = MittagLeffler(1.0, 1.0)
    q = NormQuery(100, 2, "normal")
    with pytest.raises(DomainError):
        log_norm_lowdeg(p, q)
    with pytest.raises(DomainError):
        log_norm_highdeg(p, NormQuery(100, 50, "normal"))


def test_norm_sequence_smoothness():
    # log h_j + (j+1) log s should vary smoothly in j away from the low end
    p = MittagLeffler(1.0, 1.0)
    n = 80
    vals = []
    for j in range(n // 4, n):
        q = NormQuery(n, j, "normal")
        vals.append(log_norm_exact(p, q) + (j + 1.0) * math.log(n))
    d2 = np.abs(np.diff(vals, n=2))
    med = np.median(d2)
    assert med > 0
    assert np.max(d2) < 10.0 * med


def test_norm_query_validation():
    NormQuery(10, 0, "normal")
    NormQuery(10, 19, "symplectic")
    with pytest.raises(DomainError):
        NormQuery(10, 10, "normal")
    with pytest.raises(DomainError):
        NormQuery(10, 20, "symplectic")
    with pytest.raises(DomainError):
        NormQuery(0, 0, "normal")
    with pytest.raises(DomainError):
        NormQuery(10, -1, "normal")
    with pytest.raises(DomainError):
        NormQuery(10, 0, "orthogonal")
    # The degree follows the matrix-size rules and is stored as an int.
    for bad in (math.nan, math.inf, True, 2.5):
        with pytest.raises(DomainError, match="degree must be an integer"):
            NormQuery(10, bad, "normal")
    q = NormQuery(10, 2.0, "normal")
    assert q.j == 2 and type(q.j) is int


def _checked_query_fields(n, j, ensemble):
    """(n, j, s) by the generic size and degree checks, or the message of
    the DomainError they raise."""
    try:
        n = potential._check_n(n)
    except DomainError as exc:
        return str(exc)
    s = potential._check_ensemble(ensemble) * n
    if not potential._is_integer(j) or not 0 <= j <= s - 1:
        return f"degree must be an integer in [0, {s - 1}], got {j!r}"
    return n, int(j), s


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
def test_int_sizes_and_degrees_follow_the_generic_checks(ensemble):
    # Python ints skip the generic checks; at and beyond the edges of that
    # path every query gets what the checks give.
    cases = [(1, 0), (5, 4), (5, 5), (5, 9), (5, 10), (5, -1), (0, 0), (-3, 0),
             (2**53, 2**53 - 1), (2**53 + 1, 2**53), (2**1023, 2**1024), (10**400, 0),
             (True, 0), (5, True), (np.int64(5), np.int64(4)), (5.0, 4), (5, 4.0)]
    for n, j in cases:
        want = _checked_query_fields(n, j, ensemble)
        try:
            q = NormQuery(n, j, ensemble)
        except DomainError as exc:
            assert str(exc) == want, (n, j)
            continue
        assert (q.n, q.j, q.s) == want, (n, j)
        assert (type(q.n), type(q.j)) == (int, int)
        assert q.level == (q.j + 0.5) / q.s


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
def test_norm_query_level_is_stored_and_stays_out_of_init_and_repr(ensemble):
    for n in (1, 7, 60):
        for j in (0, n // 2, n - 1):
            q = NormQuery(n, j, ensemble)
            assert q.level == (j + 0.5) / q.s
            assert "level" not in repr(q)
    assert "level" not in inspect.signature(NormQuery).parameters
    with pytest.raises(TypeError):
        NormQuery(10, 0, ensemble, level=0.5)


def test_failed_norm_names_its_potential_size_and_degree():
    # r^2 up to r = 1.5 and NaN beyond: the truncation search of the first
    # degrees whose saddle lies past r = 0.5 runs into the NaN region.
    nan_past = Custom(
        lambda r: np.where(r <= 1.5, r * r, np.nan),
        derivs=(lambda r: 2.0 * r, lambda r: 2.0 + 0.0 * r, lambda r: 0.0 * r, lambda r: 0.0 * r),
        q_origin=0.0,
        laplacian_origin=1.0,
        name="nan-past-1.5",
    )
    with pytest.raises(IntegrationError) as exc:
        log_z_exact(nan_past, 100)
    msg = str(exc.value)
    assert "nan-past-1.5" in msg and "n=100" in msg and "j=" in msg, msg
    assert "ensemble=normal" in msg, msg


class _Undefined(RadialPotential):
    """A profile that refuses every radius with a message naming itself,
    as the potentials' own checks do."""

    name = "undefined"

    def _profile(self, r, order):
        raise DomainError(f"{self.name}: no profile at r = {r!r}")


@pytest.mark.parametrize("ensemble, j", [("normal", 0), ("symplectic", 1)],
                         ids=["normal", "symplectic"])
def test_norm_failure_names_its_potential_once(ensemble, j):
    # The potential's own error already names it; the norm context adds n,
    # j and the ensemble without a second copy of the name.  j is the
    # ensemble's first degree, where log_z_exact fails first.
    p = _Undefined()
    with pytest.raises(DomainError) as exc:
        log_z_exact(p, 10, ensemble)
    msg = str(exc.value)
    assert msg.count(p.name) == 1, msg
    assert msg.startswith(f"{p.name}, n=10, j={j}, ensemble={ensemble}: "), msg


class _FlatLaplacian(Custom):
    """q = r^2 whose Laplacian hook reads 0 everywhere."""

    def _laplacian(self, r, order):
        return 0.0 * r


@pytest.mark.parametrize("route", ["dr_dtau", "laplace", "exact"])
def test_zero_laplacian_at_the_saddle_is_an_invalid_potential_on_every_route(route):
    # dr_dtau, the Laplace norm and the exact norm each divide by the
    # Laplacian at the saddle r_tau.  Each raises InvalidPotentialError
    # naming r, with the context its route adds: the exact norm's
    # potential, n, j and ensemble, none for the other two.
    p = _FlatLaplacian(lambda r: r * r, derivs=(
        lambda r: 2.0 * r, lambda r: 2.0 + 0.0 * r, lambda r: 0.0 * r, lambda r: 0.0 * r,
    ), name="flat")
    tau, call, context = {
        "dr_dtau": (0.5, lambda: droplet.dr_dtau(p, 0.5), ""),
        "laplace": (0.3, lambda: log_norm_laplace(p, NormQuery(10, 3)), ""),
        "exact": (0.05, lambda: log_z_exact(p, 10), "flat, n=10, j=0, ensemble=normal: "),
    }[route]
    r = droplet.solve_r_tau(p, tau)
    want = f"{context}nonpositive Laplacian 0.0 at r_tau = {r!r}"
    with pytest.raises(InvalidPotentialError, match=f"^{re.escape(want)}$"):
        call()


@pytest.mark.parametrize("p", [Ginibre(), TruncatedUnitary(1.0, 1.0)], ids=["ginibre", "tu"])
@pytest.mark.parametrize("route, query", [
    (log_norm_laplace, NormQuery(5, 0)),
    (log_norm_laplace, NormQuery(5, 0, "symplectic")),
    (log_norm_highdeg, NormQuery(64, 1)),
    (log_norm_highdeg, NormQuery(64, 3, "symplectic")),
], ids=["laplace-origin", "laplace-origin-symplectic", "highdeg-gate",
        "highdeg-gate-symplectic"])
def test_norm_route_guards_name_the_potential_once(p, route, query):
    with pytest.raises(DomainError) as exc:
        route(p, query)
    msg = str(exc.value)
    assert msg.startswith(f"{p.name}: "), msg
    assert msg.count(p.name) == 1, msg


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
@pytest.mark.parametrize(
    "p, ref",
    [(MittagLeffler(0.5, 0.0), MittagLeffler(0.5, 0.0)),
     (Custom(lambda r: r * r, name="sq"), MittagLeffler(1.0, 0.0))],
    ids=["ml-no-origin-laplacian", "custom-no-origin-data"],
)
def test_disc_without_origin_data_matches_the_40_digit_reference(p, ref, ensemble):
    # Discs without a finite positive Laplacian or a q value at the origin:
    # the exact route integrates e^{-s V_tau'} with its saddle r_tau' > 0,
    # tau' = (j + 1/2)/s, so it reads no origin data.  Each norm, j = 0
    # included, is within mp_reference.norm_bound of its closed form.
    n = 10
    for j in range(n) if ensemble == "normal" else range(2 * n):
        query = NormQuery(n, j, ensemble)
        want = mp_reference.log_norm(ref, j, query.s)
        err = abs(float(mpmath.mpf(log_norm_exact(p, query)) - want))
        assert err <= mp_reference.norm_bound(p, query, float(want)), (query, err)


@pytest.mark.parametrize(
    "p, n, ensemble",
    [
        (MittagLeffler(1.0, 1.0), 100, "normal"),
        (MittagLeffler(0.5, 1.0), 60, "symplectic"),
        (TruncatedUnitary(1.0, 1.0), 80, "symplectic"),
        (dilate(Ginibre(), 1.5), 50, "normal"),
    ],
    ids=["ml11-normal", "ml051-symplectic", "tu11-symplectic", "dilated-ginibre-normal"],
)
def test_seeded_partition_converges_in_one_round(monkeypatch, p, n, ensemble):
    # The seeds lay down the partition the adaptive rule converges to, so
    # every norm of these golden inputs meets its tolerance on the first
    # integrand call.  The seeds r* and r* +- k*width give at most
    # 2*len(offsets) + 1 interior cuts, hence 2*len(offsets) + 2 panels.
    calls_per_norm = []
    first_panels = []
    integrate = norms.integrate

    def counting(f, *args, **kwargs):
        sizes = []

        def g(r):
            sizes.append(r.size)
            return f(r)

        out = integrate(g, *args, **kwargs)
        calls_per_norm.append(len(sizes))
        first_panels.append(sizes[0] // 15)  # 15 Kronrod nodes per panel
        return out

    monkeypatch.setattr(norms, "integrate", counting)
    log_z_exact(p, n, ensemble)
    assert calls_per_norm == [1] * n
    assert max(first_panels) <= 2 * len(norms._SEED_OFFSETS) + 2


# ML(1/2, 1) symplectic at N = 1600 (s = 3200) has the largest roundoff
# floors of the large-N gate: at j = 1695 the floor, about 1e-11, lies far
# above 1e-13.  The bound is mp_reference.norm_bound, the documented target
# plus the rounding of -s v_min + log(val).
@pytest.mark.parametrize("j", [1, 1695, 3199])
def test_norms_at_the_roundoff_floor_match_the_40_digit_reference(j):
    p, query = MittagLeffler(0.5, 1.0), NormQuery(1600, j, "symplectic")
    want = mp_reference.log_norm(p, j, query.s)
    got = log_norm_exact(p, query)
    bound = mp_reference.norm_bound(p, query, float(want))
    err = abs(float(mpmath.mpf(got) - want))
    assert err <= bound, (j, err, bound)


# TU(3, R) at R = 1.6 and 2 has its low-degree saddles near the hard wall.
# There log(beta) - log(beta - r^2) rounds off about alpha eps (|log beta| +
# |log(beta - r^2)|), above the floor that norm_bound allows for; the
# profile -alpha log1p(-r^2/beta) carries no such cancellation.  Every
# degree at N = 200 and every 37th at N = 1600.
@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
@pytest.mark.parametrize("R", [1.6, 2.0])
def test_steep_hard_wall_norms_match_the_40_digit_reference(R, ensemble):
    p = TruncatedUnitary(3.0, R)
    for n, step in ((200, 1), (1600, 37)):
        s = NormQuery(n, 0, ensemble).s
        for j in range(0, s, step):
            query = NormQuery(n, j, ensemble)
            want = mp_reference.log_norm(p, j, s)
            err = abs(float(mpmath.mpf(log_norm_exact(p, query)) - want))
            assert err <= mp_reference.norm_bound(p, query, float(want)), (query, err)


_BAD_TOLS = [math.nan, math.inf, 0.0, -1e-13, True]


@pytest.mark.parametrize("bad", _BAD_TOLS)
def test_bad_rel_tol_rejected_before_quadrature(monkeypatch, bad):
    # The per-norm target is derived from each norm's roundoff floor.  An
    # old rel_tol, by keyword or in the slot threads=1 used to follow, is a
    # TypeError rather than a silently ignored argument, and no quadrature
    # runs first.
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran with a rel_tol argument")

    monkeypatch.setattr(norms, "integrate", no_quadrature)
    p, query = Ginibre(), NormQuery(3, 1, "normal")
    calls = [
        lambda: log_norm_exact(p, query, rel_tol=bad),
        lambda: log_norm_exact(p, query, bad),
        lambda: log_z_exact(p, 3, rel_tol=bad),
        lambda: log_z_exact(p, 3, "normal", bad),
        lambda: convergence_study(p, [10, 12], rel_tol=bad),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


_EVERY_KIND = [
    Ginibre(1.3),
    MittagLeffler(0.5, 1.2),
    MittagLeffler(2.0, 0.4),
    TruncatedUnitary(2.0, 1.5),
    dilate(MittagLeffler(1.0, 1.0), 1.5),
    dilate(TruncatedUnitary(1.0, 1.0), 0.7),
    Custom(lambda r: r**3.0 - np.log(r), name="custom-fd"),
    # TU(1, 1)'s profile as a user callable: the hard wall at sqrt(2) is the cut.
    Custom(lambda r: -np.log(1.0 - r * r / 2.0), support_radius=math.sqrt(2.0),
           q_origin=0.0, laplacian_origin=0.5, name="custom-wall"),
]


@pytest.mark.parametrize("p", _EVERY_KIND, ids=lambda p: p.name)
def test_integrand_v_tau_is_v_tau_bit_for_bit(monkeypatch, p):
    # The norm integrand is 2 e^{-s (V_tau'(r) - V_tau'(r*))} at the level
    # tau' = query.level, r* = r_tau', with the order-0 formula called on
    # each node array; on the arrays it is handed that must be v_tau at
    # tau' exactly, and v_tau must be q - 2 tau' log r exactly.
    calls = []
    integrate = norms.integrate

    def recording(f, *args, **kwargs):
        def g(r):
            calls.append((r.copy(), f(r)))
            return calls[-1][1]

        return integrate(g, *args, **kwargs)

    monkeypatch.setattr(norms, "integrate", recording)
    for j in (0, 7, 19):
        query = NormQuery(20, j, "symplectic")
        level = query.level
        v_min = v_tau(p, level, droplet.solve_r_tau(p, level))
        del calls[:]
        log_norm_exact(p, query)
        for r, y in calls:
            helper = potential._evaluate(potential._v_tau_formula, p, r, level)
            assert np.array_equal(helper, v_tau(p, level, r))
            assert np.array_equal(helper, p.q_derivs(r) - 2.0 * level * np.log(r))
            assert np.array_equal(y, 2.0 * np.exp(-query.s * (helper - v_min)))


def test_norm_integrand_evaluates_no_array_through_the_checked_entry_points(monkeypatch):
    # Timing-free guard for the per-norm cost: the integrand runs V_tau's
    # formula on its nodes directly, so in log_z_exact the checked
    # evaluation (_evaluate: the domain check and a nested np.errstate) is
    # left with the scalar calls of _peak, _r_cut and the saddle solve.
    kinds = [
        MittagLeffler(0.5, 1.2),
        TruncatedUnitary(2.0, 1.5),
        dilate(MittagLeffler(1.0, 1.0), 1.5),
        Custom(lambda r: r**3.0 - np.log(r), name="custom-fd"),
    ]
    droplet._table(kinds[-1])  # a Custom's r q'(r) table: one array call per potential
    args = []
    evaluate = potential._evaluate

    def counting(formula, p, r, arg):
        args.append(r)
        return evaluate(formula, p, r, arg)

    monkeypatch.setattr(potential, "_evaluate", counting)
    monkeypatch.setattr(norms, "_evaluate", counting)
    for p in kinds:
        for ensemble in ("normal", "symplectic"):
            log_z_exact(p, 12, ensemble)
    assert args
    assert not [r for r in args if isinstance(r, np.ndarray)]


def _old_seeds(r_star, width, cut):
    # The per-offset list the norms built before the seeds became one array op.
    seeds = [r_star]
    for k in norms._SEED_OFFSETS:
        seeds.append(r_star - k * width)
        seeds.append(r_star + k * width)
    return [x for x in seeds if 0.0 < x < cut]


@pytest.mark.parametrize(
    "r_star, width, cut",
    [
        (0.0, 0.05, 1.0),  # disc, j = 0: only r* + k width survive
        (0.7, 0.01, 0.9),  # the cut drops the outer seeds
        (1.3, 0.2, 9.0),  # wide peak: the inner seeds fall below 0
        (1e8, 1e-9, 2e8),  # width below half an ulp of r*: seeds coincide
        (0.8, 1e-300, 2.0),
        (2.0**-30, 2.0**-35, 1.0),
    ],
)
def test_seed_array_gives_the_old_cuts(r_star, width, cut):
    new = r_star + norms._SEED_T * width
    batches = {}
    for key, seeds in (("old", _old_seeds(r_star, width, cut)), ("new", new)):
        batches[key] = []

        def f(x, out=batches[key]):
            out.append(x.copy())
            return np.zeros_like(x)

        norms.integrate(f, 0.0, cut, rel_tol=1e-13, abs_tol=0.0, seeds=seeds)
    assert len(batches["old"]) == len(batches["new"]) == 1
    assert np.array_equal(batches["old"][0], batches["new"][0])
    assert len(norms._SEED_T) == 2 * len(norms._SEED_OFFSETS) + 1
