import inspect
import math
import re
from functools import partial

import mpmath
import numpy as np
import pytest

import coulombgas
import mp_reference
from coulombgas import droplet, norms, partition, potential
from coulombgas.equilibrium import b1
from coulombgas.errors import DomainError, IntegrationError, InvalidPotentialError
from coulombgas.norms import (
    NormQuery,
    log_norm_exact,
    log_norm_laplace,
    log_norm_lowdeg,
)
from coulombgas.oracles import ml_equilibrium
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
from coulombgas.specialfn import LOG_2PI, ln_gamma


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


@pytest.mark.parametrize("n, j", [(100, 50), (60, 7), (200, 150)])
def test_laplace_norm_reads_the_laplacian_once(n, j):
    # Without derivs every read of ΔQ and its derivatives at a point is one
    # call of q on a circle about it.  Beyond its saddle solve, the Laplace
    # norm reads ΔQ(r_tau) and b1's ΔQ' and ΔQ'' in one such call (v_tau
    # reads q on the real axis only), and its value is the one assembled
    # here from the public reads, bit for bit.
    def fresh():
        calls = []

        def q(z):
            if np.iscomplexobj(z):
                calls.append(1)
            return z ** (2.0 / 3.0) - 1.4 * np.log(z)

        return Custom(q, name="power-log"), calls

    tau = j / n
    p, calls = fresh()
    r = droplet.solve_r_tau(p, tau)
    solve = len(calls)
    p, calls = fresh()
    got = log_norm_laplace(p, NormQuery(n, j))
    assert len(calls) == solve + 1
    log_ratio = LOG_2PI + 2.0 * math.log(r) - math.log(n) - math.log(p.laplacian(r))
    want = -n * v_tau(p, tau, r) + 0.5 * log_ratio + math.log1p(b1(p, r) / n)
    assert got.hex() == want.hex()


def test_lowdeg_ginibre_is_exact():
    p = Ginibre()
    for n in (50, 200):
        for j in (0, 1, 2, 3):
            q = NormQuery(n, j, "normal")
            want = _ginibre_closed(j, n)
            assert abs(log_norm_lowdeg(p, q) - want) < 1e-12, (n, j)


def test_lowdeg_reads_the_origin_and_solves_no_radius(monkeypatch):
    # The factorial form needs q(0) and ΔQ(0) only: no droplet, no r_tau.
    def no_solve(*args):
        raise AssertionError("log_norm_lowdeg solved for a radius")

    for module, name in ((droplet, "droplet_of"), (droplet, "solve_r_tau"),
                         (norms, "solve_r_tau")):
        monkeypatch.setattr(module, name, no_solve)
    for j in (0, 3):
        q = NormQuery(200, j, "normal")
        assert abs(log_norm_lowdeg(Ginibre(), q) - _ginibre_closed(j, 200)) < 1e-12, j


def test_lowdeg_tu_error_shrinks():
    p = TruncatedUnitary(1.0, 1.0)
    gaps = {}
    for n in (200, 400):
        q = NormQuery(n, 3, "normal")
        gaps[n] = abs(log_norm_lowdeg(p, q) - log_norm_exact(p, q))
    assert gaps[200] < 1e-1
    assert gaps[400] < gaps[200]


def test_disc_only_methods_reject_annulus():
    p = MittagLeffler(1.0, 1.0)
    q = NormQuery(100, 2, "normal")
    with pytest.raises(DomainError):
        log_norm_lowdeg(p, q)


# The factorial form where s ΔQ(0) overflows float64 and ΔQ(0) does not,
# against its closed sum -(j + 1) log(s ΔQ(0)) + log j! (q(0) = 0) in 40
# digits.  log s and log ΔQ(0) are each within an ulp, their sum, its
# product by j + 1 and the last sum each round by half an ulp, and log j!
# is within 4 ulp: 4 eps ((j + 1)(log s + |log ΔQ(0)|) + log j!) bounds it.
@pytest.mark.parametrize("j", [0, 3])
@pytest.mark.parametrize("p", [TruncatedUnitary(1.0, 1e-152), Ginibre(1e-153), Ginibre(1e-152)],
                         ids=lambda p: p.name)
def test_lowdeg_where_s_times_the_origin_laplacian_overflows(p, j):
    q = NormQuery(10**6, j)
    dq0 = p.laplacian_at_zero()
    assert q.s * dq0 == math.inf
    want = -(j + 1) * mpmath.log(q.s * mpmath.mpf(dq0)) + mpmath.loggamma(j + 1)
    got = log_norm_lowdeg(p, q)
    terms = (j + 1) * (math.log(q.s) + abs(math.log(dq0))) + math.lgamma(j + 1.0)
    bound = 4.0 * mp_reference.EPS * terms
    assert abs(float(got - want)) <= bound, (got, want)


def test_laplace_norm_beyond_float64_raises():
    # log h_j of ML(1, 1e300) at j = n/2 grows like n: 6.9e305 at n = 1000,
    # so ~6.9e308 at n = 10^6, past the float64 maximum.  That is an error
    # naming the norm, not inf.
    p = MittagLeffler(1.0, 1e300)
    assert log_norm_laplace(p, NormQuery(1000, 500)) == 6.897755278982138e305
    with pytest.raises(DomainError, match=r"^ml\(lam=1.0, c=1e\+300\), n=1000000, j=500000, "
                                          r"ensemble=normal: log h_j = inf is not finite"):
        log_norm_laplace(p, NormQuery(10**6, 5 * 10**5))


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
    # NormQuery has no path of its own for Python ints: every size and
    # degree, int, bool, numpy int or float, at and beyond the edges of the
    # valid range and of float64, gets what the generic checks give.
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


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
def test_the_log_z_grid_is_the_norm_queries_of_its_degrees(ensemble):
    # log_z_exact checks n and the ensemble once, in norms._grid, and gets
    # the queries that NormQuery builds and checks one degree at a time.
    k = potential._check_ensemble(ensemble)
    for n in (1, 2, 7, 200):
        grid = norms._grid(Ginibre(), n, ensemble)
        want = [NormQuery(n, j, ensemble) for j in norms._degrees(k, n)]
        assert grid == want, n
        for q, w in zip(grid, want):
            assert type(q) is NormQuery
            assert (hash(q), repr(q)) == (hash(w), repr(w))
            assert (q.tau, q.level, q.s, q.k) == (w.tau, w.level, w.s, w.k)
            assert (type(q.n), type(q.j)) == (int, int)
    for n, e in ((0, ensemble), (2.5, ensemble), (True, ensemble), (math.nan, ensemble),
                 (10, "Normal")):
        with pytest.raises(DomainError) as want:
            NormQuery(n, 0, e)
        with pytest.raises(DomainError, match=f"^{re.escape(str(want.value))}$"):
            norms._grid(Ginibre(), n, e)


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

    def _laplacian(self, r, orders):
        return tuple([0.0 * r for _ in orders])


@pytest.mark.parametrize("route", ["dr_dtau", "laplace", "exact"])
def test_zero_laplacian_at_the_saddle_is_an_invalid_potential_on_every_route(route):
    # dr_dtau, the Laplace norm and the exact norm each divide by the
    # Laplacian at the saddle r_tau.  Each raises InvalidPotentialError
    # naming r, with the context its entry point adds: a norm route's
    # potential, n, j and ensemble, dr_dtau's potential.
    p = _FlatLaplacian(lambda r: r * r, derivs=(
        lambda r: 2.0 * r, lambda r: 2.0 + 0.0 * r, lambda r: 0.0 * r, lambda r: 0.0 * r,
    ), name="flat")
    tau, call, context = {
        "dr_dtau": (0.5, lambda: droplet.dr_dtau(p, 0.5), "flat: "),
        "laplace": (0.3, lambda: log_norm_laplace(p, NormQuery(10, 3)),
                    "flat, n=10, j=3, ensemble=normal: "),
        "exact": (0.05, lambda: log_z_exact(p, 10), "flat, n=10, j=0, ensemble=normal: "),
    }[route]
    r = droplet.solve_r_tau(p, tau)
    want = f"{context}nonpositive Laplacian 0.0 at r_tau = {r!r}"
    with pytest.raises(InvalidPotentialError, match=f"^{re.escape(want)}$"):
        call()


@pytest.mark.parametrize("study, ensemble", [
    (False, "normal"), (True, "normal"), (False, "symplectic"),
], ids=["log_z_exact", "convergence_study", "log_z_exact-symplectic"])
def test_a_nested_norm_failure_keeps_its_context_once(study, ensemble):
    # The first norm fails, at j = 0 normal and j = 1 symplectic, on a
    # query of log_z_exact's grid; log_z_exact, and convergence_study around
    # it, pass its context on unchanged.  The given report spares
    # expansion_terms the flat potential (the normal table reads no
    # Laplacian; the symplectic one reads it at the droplet edges).
    p = _FlatLaplacian(lambda r: r * r, derivs=(
        lambda r: 2.0 * r, lambda r: 2.0 + 0.0 * r, lambda r: 0.0 * r, lambda r: 0.0 * r,
    ), name="flat")
    with pytest.raises(InvalidPotentialError) as info:
        if study:
            convergence_study(p, [10, 20], ensemble, report=ml_equilibrium(1.0, 1.0))
        else:
            log_z_exact(p, 10, ensemble)
    msg = str(info.value)
    j = {"normal": 0, "symplectic": 1}[ensemble]
    context = f"flat, n=10, j={j}, ensemble={ensemble}: "
    assert msg.startswith(context + "nonpositive Laplacian"), msg
    assert msg.count("flat") == 1, msg


@pytest.mark.parametrize("p", [Ginibre(), TruncatedUnitary(1.0, 1.0)], ids=["ginibre", "tu"])
@pytest.mark.parametrize("route, query", [
    (log_norm_laplace, NormQuery(5, 0)),
    (log_norm_laplace, NormQuery(5, 0, "symplectic")),
], ids=["laplace-origin", "laplace-origin-symplectic"])
def test_norm_route_guards_name_the_potential_once(p, route, query):
    with pytest.raises(DomainError) as exc:
        route(p, query)
    msg = str(exc.value)
    context = f"{p.name}, n={query.n}, j={query.j}, ensemble={query.ensemble}: "
    assert msg.startswith(context), msg
    assert msg.count(p.name) == 1, msg


# q = log(1 + r^2) / 2 confines no level: r q'(r) = r^2 / (1 + r^2) stays
# below 1, so r_tau' (exact route, 2 tau' = 1.75) and r_tau (Laplace, 1.5) do
# not exist.  The low-degree form reads only the origin, where this Custom
# supplies no q value.  Each route's error names the potential once, then n,
# j and the ensemble.
def _weak(name, **origin):
    return Custom(
        lambda r: 0.5 * np.log1p(r * r),
        derivs=(lambda r: 1.0 / (r + 1.0 / r), lambda r: (1.0 - r * r) / (1.0 + r * r) ** 2,
                lambda r: 0.0 * r, lambda r: 0.0 * r),
        name=name, **origin,
    )


_WEAK = _weak("weak")


@pytest.mark.parametrize("route, cls, reason", [
    (log_norm_exact, InvalidPotentialError, "r q'(r) never reaches 1.75; "),
    (log_norm_laplace, InvalidPotentialError, "r q'(r) never reaches 1.5; "),
    (log_norm_lowdeg, DomainError, "no origin value supplied"),
], ids=["log_norm_exact-1.75", "log_norm_laplace-1.5", "log_norm_lowdeg-origin"])
def test_every_norm_route_names_the_potential_n_j_and_ensemble(route, cls, reason):
    want = f"weak, n=4, j=3, ensemble=normal: {reason}"
    with pytest.raises(cls, match=f"^{re.escape(want)}"):
        route(_WEAK, NormQuery(4, 3))


def test_lowdeg_gives_the_factorial_form_where_droplet_of_refuses():
    # _WEAK with origin data, q(0) = 0 and ΔQ(0) = (q''(0) + lim q'/r) / 4
    # = 1/2: droplet_of refuses it, as no level is confined, but the
    # factorial form reads nothing beyond the origin.
    p = _weak("weak0", q_origin=0.0, laplacian_origin=0.5)
    with pytest.raises(InvalidPotentialError, match="never reaches"):
        droplet.droplet_of(p)
    for j in (0, 3):
        q = NormQuery(50, j)
        want = -(j + 1) * math.log(0.5 * q.s) + ln_gamma(j + 1.0)
        assert abs(log_norm_lowdeg(p, q) - want) < 1e-12, j


def test_log_norm_highdeg_is_retired():
    # log_norm_laplace covers the high degrees; no gated copy of it is left.
    assert "log_norm_highdeg" not in coulombgas.__all__
    for module in (coulombgas, norms):
        assert not hasattr(module, "log_norm_highdeg"), module.__name__


def test_norm_routes_keep_their_names_and_docstrings():
    for route in (log_norm_exact, log_norm_laplace, log_norm_lowdeg):
        assert route.__module__ == "coulombgas.norms"
        assert route.__name__.startswith("log_norm_") and route.__doc__
        assert route.__wrapped__.__name__ == route.__name__


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


def _with_derivs(p):
    """p's profile behind the Custom interface, with p's analytic derivatives."""
    return Custom(p.q_derivs, derivs=[partial(p.q_derivs, order=k) for k in range(1, 5)])


# The profile of ML(1/3, 0.7) without derivs, read on circles.
_CIRCLE_ML = Custom(lambda r: r ** (2.0 / 3.0) - 1.4 * np.log(r), name="circle-ml-third")


def _count_rounds(monkeypatch):
    """Record, per norm integral, the number of integrand calls (Kronrod
    rounds) and the number of panels of the first one."""
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
    return calls_per_norm, first_panels


@pytest.mark.parametrize(
    "p, n, ensemble",
    [
        (MittagLeffler(1.0, 1.0), 100, "normal"),
        (MittagLeffler(0.5, 1.0), 60, "symplectic"),
        (TruncatedUnitary(1.0, 1.0), 80, "symplectic"),
        (dilate(Ginibre(), 1.5), 50, "normal"),
        (_with_derivs(MittagLeffler(0.5, 1.3)), 60, "normal"),
        (dilate(_with_derivs(MittagLeffler(1.0, 1.0)), 1.5), 50, "symplectic"),
        (_CIRCLE_ML, 60, "normal"),
        (_CIRCLE_ML, 60, "symplectic"),
        (MittagLeffler(1.0, 1.0), 1600, "normal"),
        (MittagLeffler(1.0, 1.0), 1600, "symplectic"),
        (TruncatedUnitary(1.0, 1.0), 1600, "normal"),
        (TruncatedUnitary(1.0, 1.0), 1600, "symplectic"),
    ],
    ids=["ml11-normal", "ml051-symplectic", "tu11-symplectic", "dilated-ginibre-normal",
         "custom-ml0513-normal", "dilated-custom-ml11-symplectic", "circle-ml-third-normal",
         "circle-ml-third-symplectic", "ml11-1600-normal", "ml11-1600-symplectic",
         "tu11-1600-normal", "tu11-1600-symplectic"],
)
def test_seeded_partition_converges_in_one_round(monkeypatch, p, n, ensemble):
    # The seeds lay down the partition the adaptive rule converges to, so
    # every norm of these golden inputs, and of ML(1, 1) and TU(1, 1) at
    # the largest N, meets its tolerance on the first integrand call.  The
    # seeds r* and r* +- k*width give at most 2*len(offsets) + 1 interior
    # cuts, hence 2*len(offsets) + 2 panels.
    calls_per_norm, first_panels = _count_rounds(monkeypatch)
    log_z_exact(p, n, ensemble)
    assert calls_per_norm == [1] * n
    assert max(first_panels) <= 2 * len(norms._SEED_OFFSETS) + 2


@pytest.mark.parametrize("p", [MittagLeffler(1.0, 1.0), TruncatedUnitary(1.0, 1.0), Ginibre()],
                         ids=lambda p: p.name)
def test_gaussian_peaks_are_cut_at_eight_widths(monkeypatch, p):
    # At N = 1600 a peak more than 32 widths from the origin is close to
    # e^{-t^2}, whose exponent 64 at t = 8 is above 40 + log s, so the cut
    # search stops at r* + 8 width (or the hard wall): the rows of
    # log_z_exact's set-up stage say so.  Every inner seed is then positive
    # and the outer ones from 8 on lie beyond the cut: the first round has
    # 2 + len(offsets) + #{k < 8} panels, 19.  Peaks nearer the origin (the
    # lowest degrees) have heavier right tails and lose inner seeds below
    # 0; the test above bounds their panels.
    rows = [q._row for q in norms._grid(p, 1600, "normal")]
    cuts = [(r_star - 32.0 * width > 0.0, cut in (r_star + 8.0 * width, p.support_radius))
            for r_star, _, width, cut, _ in rows]
    _, first_panels = _count_rounds(monkeypatch)
    log_z_exact(p, 1600, "normal")
    offsets = norms._SEED_OFFSETS
    gaussian = [panels for (far, _), panels in zip(cuts, first_panels) if far]
    assert len(gaussian) > len(cuts) // 2  # Ginibre: r*/width = sqrt(2j + 1), so j >= 512
    assert all(at_eight for far, at_eight in cuts if far)
    assert max(gaussian) == 2 + len(offsets) + sum(k < 8.0 for k in offsets)


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


# A Custom off the closed forms: q = r^2 + a r^4 + b r^6 with analytic
# derivatives and origin data, at the draw a = 0.324, b = 0.151.  Then
# ΔQ = 1 + 4a r^2 + 9b r^4 > 0 and r q'(r) is strictly increasing, so the
# droplet is a disc and every level has one saddle.  The reference is
# mp_reference.log_norm_of_profile of the same q in mpmath, with a and b
# the floats the Custom evaluates with.  The bound is mp_reference.
# norm_bound, fixed before any run: its _q_terms is |q(r*)| for a Custom,
# and that is the exact sum of the magnitudes of q's terms here, because
# every term r^2, a r^4, b r^6 is >= 0 for a, b >= 0; the same |q| is the
# route's own _q_magnitude.  The first, ~1/7, middle and last degree of
# each grid, at N = 200 and 1600.
_A, _B = 0.324, 0.151
_SEXTIC = Custom(
    lambda r: r * r + _A * r**4 + _B * r**6,
    derivs=(lambda r: 2.0 * r + 4.0 * _A * r**3 + 6.0 * _B * r**5,
            lambda r: 2.0 + 12.0 * _A * r * r + 30.0 * _B * r**4,
            lambda r: 24.0 * _A * r + 120.0 * _B * r**3,
            lambda r: 24.0 * _A + 360.0 * _B * r * r),
    q_origin=0.0, laplacian_origin=1.0, name="sextic",
)


def _sextic_mp(r):
    return r * r + mpmath.mpf(_A) * r**4 + mpmath.mpf(_B) * r**6


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
@pytest.mark.parametrize("n", [200, 1600])
def test_custom_norms_match_the_40_digit_quadrature(n, ensemble):
    s = NormQuery(n, 0, ensemble).s
    grid = mp_reference._degrees(n, ensemble)
    for j in (grid[0], grid[len(grid) // 7], grid[len(grid) // 2], grid[-1]):
        query = NormQuery(n, j, ensemble)
        want = mp_reference.log_norm_of_profile(_sextic_mp, j, s)
        err = abs(float(mpmath.mpf(log_norm_exact(_SEXTIC, query)) - want))
        assert err <= mp_reference.norm_bound(_SEXTIC, query, float(want)), (query, err)


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
    Custom(lambda r: r**3.0 - np.log(r), name="custom-circle"),
    # TU(1, 1)'s profile as a user callable: the hard wall at sqrt(2) is the cut.
    Custom(lambda r: -np.log(1.0 - r * r / 2.0), support_radius=math.sqrt(2.0),
           q_origin=0.0, laplacian_origin=0.5, name="custom-wall"),
]


@pytest.mark.parametrize("p", _EVERY_KIND, ids=lambda p: p.name)
def test_integrand_v_tau_is_v_tau_bit_for_bit(monkeypatch, p):
    # The norm integrand is e^{-s (V_tau'(r) - V_tau'(r*))} at the level
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
            assert np.array_equal(y, np.exp(-query.s * (helper - v_min)))


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
def test_a_width_that_underflows_still_finds_the_peak(ensemble):
    # Ginibre(1e-154): 2 s ΔQ(r*) = 2 s 1e308 overflows, so the width reads
    # 0 and every seed is r*.  The cut search steps from an ulp of r*, so
    # the cut lands a few true widths out and refinement resolves the peak
    # on both sides of r*; a cut at 1 left the right half of the peak
    # between nodes.  The reference is q = r^2 / a^2 in mpmath.
    p, ref = Ginibre(1e-154), dilate(MittagLeffler(1.0, 0.0), 1e-154)
    query = NormQuery(4, 3, ensemble)
    assert norms._rows(p, query.s, (query.level,))[0][2] == 0.0
    got = log_z_exact(p, 4, ensemble)
    gap = abs(float(mpmath.mpf(got) - mp_reference.log_z(ref, 4, ensemble)))
    assert gap <= mp_reference.log_z_bound(p, 4, ensemble, ref=ref)


def test_a_doubled_norm_integral_that_overflows_raises(monkeypatch):
    # The route integrates e^{-s (V - v_min)} and doubles the result; a
    # doubled value beyond float64 is an IntegrationError naming the norm,
    # as a panel sum of 2 e^{-s (V - v_min)} that overflows used to be.
    monkeypatch.setattr(norms, "integrate", lambda *args, **kwargs: (1.5e308, 0.0))
    with pytest.raises(IntegrationError, match=r"^ginibre\(scale=1.0\), n=3, j=1, "
                                               r"ensemble=normal: .*overflows"):
        log_norm_exact(Ginibre(), NormQuery(3, 1, "normal"))
    # Just below, the doubled value is the norm: 2 * 0.5e308 is 1e308 exactly.
    monkeypatch.setattr(norms, "integrate", lambda *args, **kwargs: (0.5e308, 0.0))
    query = NormQuery(3, 1, "normal")
    v_min = norms._rows(Ginibre(), query.s, (query.level,))[0][1]
    assert log_norm_exact(Ginibre(), query) == -query.s * v_min + math.log(1e308)


def test_norm_integrand_evaluates_no_array_through_the_checked_entry_points(monkeypatch):
    # Timing-free guard for the per-norm cost: the integrand runs V_tau's
    # formula on its nodes directly, and a norm of log_z_exact takes its
    # set-up from its row, so within a norm the checked evaluation
    # (_evaluate: the domain check and a nested np.errstate) is never
    # called.  Outside the norms, log_z_exact's one set-up stage reads a
    # Custom's q' and q'' (each Newton round), ΔQ and V on arrays of at
    # most one entry per norm.  It reads V once for v_min and once a round
    # of its cut search for all rows still searching: as often as the
    # slowest of its norms alone (one-row calls), at most three times here
    # at n = 12 and at n = 400, however many rows there are.
    kinds = [
        MittagLeffler(0.5, 1.2),
        TruncatedUnitary(2.0, 1.5),
        dilate(MittagLeffler(1.0, 1.0), 1.5),
        Custom(lambda r: r**3.0 - np.log(r), name="custom-circle"),
    ]
    droplet._table(kinds[-1])  # a Custom's r q'(r) table: one array call per potential
    inside, outside, v_reads = [], [], []
    evaluate = potential._evaluate
    v_tau_formula = norms._v_tau_formula
    norm = partition.log_norm_exact

    def counting(formula, p, r, arg):
        (inside if in_norm else outside).append(r)
        return evaluate(formula, p, r, arg)

    def reading(p, r, t):
        if not in_norm:
            v_reads.append(r.size)
        return v_tau_formula(p, r, t)

    def counted_norm(p, query):
        nonlocal in_norm
        in_norm = True
        try:
            return norm(p, query)
        finally:
            in_norm = False

    in_norm = False
    monkeypatch.setattr(potential, "_evaluate", counting)
    monkeypatch.setattr(norms, "_v_tau_formula", reading)
    monkeypatch.setattr(partition, "log_norm_exact", counted_norm)
    for p in kinds:
        for ensemble in ("normal", "symplectic"):
            for n in (12, 400):
                alone = []
                for j in norms._degrees(NormQuery(n, 0, ensemble).k, n):
                    del v_reads[:]
                    query = NormQuery(n, j, ensemble)
                    norms._rows(p, query.s, (query.level,))
                    alone.append(len(v_reads))
                del v_reads[:], outside[:]
                log_z_exact(p, n, ensemble)
                sizes = v_reads + [r.size for r in outside if isinstance(r, np.ndarray)]
                assert max(sizes) <= n, (p.name, ensemble, n, sizes)
                assert len(v_reads) == max(alone) <= 3, (p.name, ensemble, n, v_reads, max(alone))
    assert inside == []


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
