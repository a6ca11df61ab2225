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
from coulombgas import droplet, norms
from coulombgas.droplet import Droplet, dr_dtau, solve_r_tau
from coulombgas.equilibrium import EquilibriumReport, _dirichlet, equilibrium_report
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
from coulombgas.norms import NormQuery, log_norm_exact, log_norm_laplace
from coulombgas.potential import (
    Custom,
    Ginibre,
    MittagLeffler,
    TruncatedUnitary,
    dilate,
    v_tau,
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


def _squared(p):
    """Q(rho) = 2 q(sqrt(rho)) of the family p, as a Custom with its analytic
    derivatives: with rho = r^2, the symplectic norm of degree 2j + 1 of q at
    s = 2n is half the normal norm of degree j of Q at s = n, so the
    symplectic log Z_n of q is the normal log Z_n of Q.  A hard wall at
    sqrt(beta) maps to one at beta."""
    if isinstance(p, MittagLeffler):  # Q = 2 rho^lam - 2c log rho
        lam, c = p.lam, p.c
        return Custom(lambda x: 2.0 * x**lam - 2.0 * c * np.log(x), derivs=(
            lambda x: 2.0 * lam * x ** (lam - 1.0) - 2.0 * c / x,
            lambda x: 2.0 * lam * (lam - 1.0) * x ** (lam - 2.0) + 2.0 * c / x**2,
            lambda x: 2.0 * lam * (lam - 1.0) * (lam - 2.0) * x ** (lam - 3.0) - 4.0 * c / x**3,
            lambda x: (2.0 * lam * (lam - 1.0) * (lam - 2.0) * (lam - 3.0) * x ** (lam - 4.0)
                       + 12.0 * c / x**4),
        ), name=f"squared-{p.name}")
    if isinstance(p, TruncatedUnitary):  # Q = -2 alpha log(1 - rho / beta)
        a, b = p.alpha, p.beta
        return Custom(lambda x: -2.0 * a * np.log1p(x / -b), derivs=(
            lambda x: 2.0 * a / (b - x),
            lambda x: 2.0 * a / (b - x) ** 2,
            lambda x: 4.0 * a / (b - x) ** 3,
            lambda x: 12.0 * a / (b - x) ** 4,
        ), support_radius=b, name=f"squared-{p.name}")
    k = 2.0 / p.scale**2  # Ginibre: Q = 2 rho / scale^2
    return Custom(lambda x: k * x, derivs=(
        lambda x: np.full_like(x, k), lambda x: 0.0 * x, lambda x: 0.0 * x, lambda x: 0.0 * x,
    ), name=f"squared-{p.name}")


@pytest.mark.parametrize("n", [20, 60])
@pytest.mark.parametrize(
    "p",
    [MittagLeffler(1.0, 1.0), MittagLeffler(1.0 / 3.0, 1.1), MittagLeffler(2.0, 0.7),
     TruncatedUnitary(1.0, 1.0), TruncatedUnitary(2.0, 1.5), Ginibre()],
    ids=lambda p: p.name,
)
def test_symplectic_log_z_is_the_normal_log_z_of_the_squared_profile(p, n):
    # Both routes are exact for the same number, so they may differ by what
    # each may be off from it: route_bound of each, taken on that route's
    # own log h values (Ginibre has no closed-form norms in mp_reference).
    sq = _squared(p)
    symp = [log_norm_exact(p, NormQuery(n, j, "symplectic")) for j in range(1, 2 * n, 2)]
    normal = [log_norm_exact(sq, NormQuery(n, j, "normal")) for j in range(n)]
    bound = (mp_reference.route_bound(p, n, "symplectic", symp)
             + mp_reference.route_bound(sq, n, "normal", normal))
    got, want = log_z_exact(p, n, "symplectic"), log_z_exact(sq, n, "normal")
    assert abs(got - want) <= bound, (got, want, bound)


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


def _ml_profile(lam, c, derivs):
    """ML(lam, c) as a Custom, with its analytic derivatives or read on
    circles; a disc (c = 0) carries its origin data, ΔQ(0) = 1 only where
    it is finite and positive (lam = 1)."""
    k = 2.0 * lam
    d = [
        lambda r: k * r ** (k - 1.0) - 2.0 * c / r,
        lambda r: k * (k - 1.0) * r ** (k - 2.0) + 2.0 * c / r**2,
        lambda r: k * (k - 1.0) * (k - 2.0) * r ** (k - 3.0) - 4.0 * c / r**3,
        lambda r: k * (k - 1.0) * (k - 2.0) * (k - 3.0) * r ** (k - 4.0) + 12.0 * c / r**4,
    ]
    origin = {} if c else {"q_origin": 0.0, "laplacian_origin": 1.0 if lam == 1.0 else None}
    return Custom(lambda r: r**k - 2.0 * c * np.log(r), derivs=d if derivs else None,
                  name=f"ml-profile({lam:.3g}, {c}, {'derivs' if derivs else 'circle'})", **origin)


def _assert_rows_are_the_one_row_route(p, ensemble):
    """log_z_exact's set-up stage gives each query a row that is bit for
    bit the row of its one-row call, r* the lone solve_r_tau of its level,
    and log Z the sum of the standalone norms, at n = 25 and 200."""
    k = 1 if ensemble == "normal" else 2
    for n in (25, 200):
        queries = norms._grid(p, n, ensemble)
        # The row a query holds is private: not in its equality, hash or repr.
        bare = NormQuery(n, queries[-1].j, ensemble)
        assert bare._row is None and queries[-1]._row is not None
        assert (queries[-1], hash(queries[-1]), repr(queries[-1])) == (bare, hash(bare), repr(bare))
        rows = [[x.hex() for x in q._row] for q in queries]
        alone = [[x.hex() for x in norms._rows(p, q.s, (q.level,))[0]] for q in queries]
        assert rows == alone, n
        assert [row[0] for row in rows] == [solve_r_tau(p, q.level).hex() for q in queries], n
        norms_alone = [log_norm_exact(p, NormQuery(n, q.j, ensemble)) for q in queries]
        want = ln_factorial(n) + n * math.log(k) + math.fsum(norms_alone)
        assert log_z_exact(p, n, ensemble).hex() == want.hex(), n


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
@pytest.mark.parametrize("derivs", [True, False], ids=["derivs", "circle"])
@pytest.mark.parametrize("lam, c", [(lam, c) for lam in (1.0 / 3.0, 0.5, 1.0, 2.0)
                                    for c in (0.0, 1.1)])
def test_saddle_stage_rows_are_the_per_norm_route_bit_for_bit(lam, c, derivs, ensemble):
    # log_z_exact solves every saddle of a Custom in one array Newton and
    # sets up every norm in one array stage; each row (r*, v_min, width,
    # cut, target) must be its norm's own, and log Z the sum of the
    # standalone norms, each of which sets itself up alone.
    _assert_rows_are_the_one_row_route(_ml_profile(lam, c, derivs), ensemble)


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
@pytest.mark.parametrize(
    "p",
    [MittagLeffler(lam, c) for lam in (1.0 / 3.0, 0.5, 1.0, 2.0) for c in (0.0, 1.1)]
    + [TruncatedUnitary(1.0, 1.0), TruncatedUnitary(3.0, 1.6), Ginibre(),
       Ginibre(1e-154), dilate(MittagLeffler(1.0 / 3.0, 0.8), 0.96), _CIRCLE_ML],
    ids=lambda p: p.name,
)
def test_set_up_rows_of_every_family_are_the_per_norm_route_bit_for_bit(p, ensemble):
    # The closed forms solve each saddle alone and read the rest of their
    # rows in the same array stage: its arithmetic on n rows must be that
    # on one, hard walls (TU), an underflowing width (Ginibre(1e-154)),
    # a dilation and a Custom read on circles included.
    _assert_rows_are_the_one_row_route(p, ensemble)


def _assert_laplace_rows_are_the_lone_form(p, ensemble):
    """Each lone log_norm_laplace is bit for bit its own row of one
    many-row Laplace stage call (norms._laplace_grid), assembled as the
    lone form assembles it, at every degree at n = 25 and 200.  On a disc
    the j = 0 saddle is the origin: the lone form and a stage call that
    holds that row both raise, so the rows start at j = 1."""
    disc = droplet.droplet_of(p).kind == "disc"
    k = 1 if ensemble == "normal" else 2
    for n in (25, 200):
        s = k * n
        if disc:
            for call in (lambda: log_norm_laplace(p, NormQuery(n, 0, ensemble)),
                         lambda: norms._laplace_grid(p, [j / s for j in range(s)])):
                with pytest.raises(DomainError, match="positive saddle radius"):
                    call()
        degrees = range(1 if disc else 0, s)
        rows = zip(*(x.tolist() for x in norms._laplace_grid(p, [j / s for j in degrees])))
        got = [log_norm_laplace(p, NormQuery(n, j, ensemble)).hex() for j in degrees]
        want = []
        for r, dq, v, b in rows:
            log_ratio = LOG_2PI + 2.0 * math.log(r) - math.log(s) - math.log(dq)
            want.append((-s * v + 0.5 * log_ratio + math.log1p(b / s)).hex())
        assert got == want, n


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
@pytest.mark.parametrize(
    "p",
    [MittagLeffler(1.0 / 3.0, 1.1), TruncatedUnitary(1.0, 1.0), Ginibre(),
     dilate(MittagLeffler(1.0 / 3.0, 0.8), 0.96), _ml_profile(0.5, 1.1, True),
     _ml_profile(0.5, 1.1, False)],
    ids=lambda p: p.name,
)
def test_laplace_stage_rows_are_the_lone_laplace_norm_bit_for_bit(p, ensemble):
    # The Laplace form at many degrees is one array stage; a lone Laplace
    # norm is its one-row call, so its arithmetic on n rows must be that on
    # one: closed forms, a hard wall (TU), a dilation, and a Custom with
    # derivs and read on circles.
    _assert_laplace_rows_are_the_lone_form(p, ensemble)


@pytest.mark.parametrize("which", ["sum_v_normal", "sum_logdq_symp_odd"])
def test_lemma_sum_circle_reads_do_not_grow_with_n(which):
    # lemma_sum reads q on circles in its one Laplace stage call (a Newton
    # round for all unfinished rows, then one read of ΔQ, ΔQ' and ΔQ'' at
    # every row) and in its droplet and prediction, none of which depends
    # on n; the r q'(r) table is built first.
    counts = {}
    for n in (25, 200, 800):
        calls = []

        def q(r):
            if np.iscomplexobj(r):
                calls.append(1)
            return r ** (2.0 / 3.0) - 1.4 * np.log(r)

        p = Custom(q, name="counted-circle")
        droplet._table(p)
        calls.clear()
        lemma_sum(p, n, which)
        counts[n] = len(calls)
    assert counts[25] == counts[200] == counts[800], counts


def _steep(wrap=lambda k, f: f):
    # r q'(r) = (r / 1.3)^1500: r q' underflows to 0 at most table radii, so
    # there is no table.  wrap(k, f) wraps the callable f of q^(k), k = 1, 2.
    R, pw = 1.3, 1500.0
    return Custom(lambda r: (r / R) ** pw / pw, derivs=(
        wrap(1, lambda r: (r / R) ** pw / r),
        wrap(2, lambda r: (pw - 1.0) * (r / R) ** pw / r**2),
        lambda r: (pw - 1.0) * (pw - 2.0) * (r / R) ** pw / r**3,
        lambda r: (pw - 1.0) * (pw - 2.0) * (pw - 3.0) * (r / R) ** pw / r**4,
    ), name="steep")


def _gap(wrap=lambda k, f: f):
    # q = r^2 - 0.05 e^(-u^2 / 0.01), u = r^2 - 1/2: r q' is not monotone
    # (a spectral gap, as in ROADMAP item 12), so there is no table.  f(r, k)
    # is the k-th u-derivative of the bump, (-10)^k H_k(s) of s = 10 u.
    def f(r, k):
        s = 10.0 * (r * r - 0.5)
        h = (1.0, 2.0 * s, 4.0 * s * s - 2.0, 8.0 * s**3 - 12.0 * s,
             16.0 * s**4 - 48.0 * s * s + 12.0)[k]
        return -0.05 * (-10.0) ** k * h * np.exp(-s * s)

    return Custom(lambda r: r * r + f(r, 0), derivs=(
        wrap(1, lambda r: 2.0 * r + 2.0 * r * f(r, 1)),
        wrap(2, lambda r: 2.0 + 4.0 * r * r * f(r, 2) + 2.0 * f(r, 1)),
        lambda r: 8.0 * r**3 * f(r, 3) + 12.0 * r * f(r, 2),
        lambda r: 16.0 * r**4 * f(r, 4) + 48.0 * r * r * f(r, 3) + 12.0 * f(r, 2),
    ), name="gap")


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
@pytest.mark.parametrize("profile", [_steep, _gap], ids=["steep", "gap"])
def test_saddle_stage_rows_of_a_table_less_profile_are_the_per_norm_route(profile, ensemble):
    # Without a table every row starts from its bracket of one shared upward
    # scan, and the rows share one Newton call: each row is the lone
    # solve_r_tau of its level, and log Z the sum of the standalone norms.
    # A scan reads q' at one point, a Newton round q' and q'' at every
    # unfinished row, and the ΔQ read q' and q'' at every row.  So log Z
    # calls q' as often as the slowest scan of its rows alone, plus the
    # slowest Newton, plus once for ΔQ, however many rows there are.
    reads = []
    p = profile(lambda k, f: lambda r: (reads.append(k), f(r))[1])
    k = 1 if ensemble == "normal" else 2
    for n in (25, 200):
        queries = norms._grid(p, n, ensemble)
        rows, scans, rounds = [], [], []
        for q in queries:
            reads.clear()
            rows.append(solve_r_tau(p, q.level).hex())
            rounds.append(reads.count(2))
            scans.append(reads.count(1) - reads.count(2))
        assert [q._row[0].hex() for q in queries] == rows, n
        alone = [log_norm_exact(p, NormQuery(n, q.j, ensemble)) for q in queries]
        want = ln_factorial(n) + n * math.log(k) + math.fsum(alone)
        reads.clear()
        assert log_z_exact(p, n, ensemble).hex() == want.hex(), n
        assert reads.count(1) == max(scans) + max(rounds) + 1, (n, reads.count(1), scans, rounds)
    assert droplet._table(p) == ()


def test_circle_reads_per_log_z_do_not_grow_with_n():
    # The saddle stage reads q on circles once a Newton round for all
    # unfinished rows, and once more for ΔQ at every row; the norms read q
    # on the real line only.  So
    # once the r q'(r) table is built, the calls of q on complex points of
    # one log Z do not depend on n.
    calls = []

    def q(r):
        if np.iscomplexobj(r):
            calls.append(r.size)
        return r ** (2.0 / 3.0) - 1.4 * np.log(r)

    p = Custom(q, name="counted-circle")
    droplet._table(p)
    counts = {}
    for n in (25, 400):
        calls.clear()
        log_z_exact(p, n)
        counts[n] = len(calls)
        # The first round reads every row's circle of 18 points; rows
        # drop out of the later reads as they converge.
        assert calls[0] == 18 * n and max(calls) == 18 * n, (n, calls)
    assert counts[25] == counts[400] <= 6, counts


@pytest.mark.parametrize("ensemble, j", [("normal", 5), ("symplectic", 11)])
def test_a_saddle_stage_error_names_the_lowest_failing_degree(ensemble, j):
    # q = r^2 with a q'' of -10 on (0.5, 0.6): r q' = 2 r^2 still gives the
    # saddles sqrt(tau'), but ΔQ = (q'/r + q'')/4 is -2 there, at the levels
    # tau' = (j + 1/2) / s in (0.25, 0.36).  At n = 20 the lowest is j = 5
    # (normal) or j = 11 (symplectic), and log_z_exact raises that norm's
    # own error.
    def q2(r):
        return np.where((0.5 < r) & (r < 0.6), -10.0, 2.0)

    p = Custom(lambda r: r * r, derivs=[lambda r: 2.0 * r, q2, lambda r: 0.0 * r,
                                        lambda r: 0.0 * r], name="dented")
    with pytest.raises(InvalidPotentialError) as info:
        log_z_exact(p, 20, ensemble)
    want = f"dented, n=20, j={j}, ensemble={ensemble}: nonpositive Laplacian -2.0 at r_tau = "
    assert str(info.value).startswith(want)
    with pytest.raises(InvalidPotentialError) as alone:
        log_norm_exact(p, NormQuery(20, j, ensemble))
    assert str(alone.value) == str(info.value)


def _nan_beyond(r):
    return np.where(r < 1.3, r * r, np.nan)


def _raise_beyond(r):
    if np.any(r >= 1.3):
        raise ValueError("no profile beyond r = 1.3")
    return r * r


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
@pytest.mark.parametrize("q, error, cause", [
    (_nan_beyond, IntegrationError, "failed to locate a truncation radius"),
    (_raise_beyond, DomainError, "q at an array of shape (1,) failed (no profile beyond r = 1.3)"),
], ids=["nan-cut", "raising-cut"])
def test_a_set_up_error_past_the_saddle_names_the_lowest_failing_degree(q, error, cause, ensemble):
    # q = r^2 below r = 1.3 only, with analytic derivatives, so every saddle
    # sqrt(tau') and ΔQ = 1 solve; the cut search reads V at r* + 8 width
    # 2^k, beyond 1.3 at some degrees (j = 3, 4 and from 54 on at n = 100
    # normal).  There a nan V never reaches the threshold, and a raising q
    # fails the read, so the set-up stage raises.  The degrees below
    # succeed, and log_z_exact raises the lowest failing degree's error word
    # for word as that norm does alone.
    p = Custom(q, derivs=[lambda r: 2.0 * r, lambda r: 2.0 + 0.0 * r, lambda r: 0.0 * r,
                          lambda r: 0.0 * r], name="cut-short")
    n = 100
    queries = norms._grid(p, n, ensemble)
    levels = [query.level for query in queries]
    droplet._laplacian_at(p, droplet._radii(p, levels))
    with pytest.raises(error):
        norms._rows(p, queries[0].s, levels)
    for query in queries:
        try:
            log_norm_exact(p, NormQuery(n, query.j, ensemble))
        except error as exc:
            j, alone = query.j, str(exc)
            break
    assert j > 2 and alone.startswith(f"cut-short, n={n}, j={j}, ensemble={ensemble}: {cause}")
    with pytest.raises(error) as info:
        log_z_exact(p, n, ensemble)
    assert str(info.value) == alone


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


_EPS = float(np.finfo(float).eps)


def _table_error(p, k):
    """{coefficient: (integral part, magnitude)} of the annulus table of
    ensemble factor k (1 normal, 2 symplectic) of p: the integral part sums
    each equilibrium integral's target max(1e-16, 1e-13 |I|) times its
    weight in the coefficient, and the magnitude the absolute values of the
    coefficient's terms.  E = q(r1) - log r1 - I/8 (I the integral of
    q'^2), U(0) = -log r1 + (q(r1) - q(r0))/2, the entropy S is an
    integral, and the f-term F = log(r0^2 ΔQ0 / (r1^2 ΔQ1))/12
    - (r1 ΔQ1'/ΔQ1 - r0 ΔQ0'/ΔQ0)/16 + D/48 (D the Dirichlet integral)."""
    rep = equilibrium_report(p)
    d = rep.droplet
    q0, q1 = float(p.q_derivs(d.r0, 0)), float(p.q_derivs(d.r1, 0))
    log_r1 = math.log(d.r1)
    i_q = 8.0 * (q1 - log_r1 - rep.energy)
    dirichlet = _dirichlet(p, d)
    (dq0, dq1), (dr0, dr1) = droplet._edge_laplacians(p, d)
    f_parts = (abs(math.log(d.r0**2 * dq0 / (d.r1**2 * dq1))) / 12.0,
               abs(d.r1 * dr1 / dq1) / 16.0, abs(d.r0 * dr0 / dq0) / 16.0, dirichlet / 48.0)

    def tol(value):
        return max(1e-16, 1e-13 * abs(value))

    if k == 1:
        u_terms, edge = (), 0.0
    else:
        u_terms, edge = (abs(log_r1), abs(q1) / 2.0, abs(q0) / 2.0), abs(math.log(dq0 / dq1)) / 8.0
    return {
        "c_n2": (k * tol(i_q) / 8.0, k * (abs(q1) + abs(log_r1) + i_q / 8.0)),
        "c_n": (tol(rep.entropy) / 2.0,
                0.5 * math.log(2.0 * k * math.pi) + 1.0 + sum(u_terms) + abs(rep.entropy) / 2.0),
        "c_1": (tol(dirichlet) / 48.0 / k, 0.5 * LOG_2PI + sum(f_parts) / k + edge),
    }


@pytest.mark.parametrize(
    "p, sq",
    [(MittagLeffler(lam, c), _squared(MittagLeffler(lam, c)))
     for lam, c in ((1.0, 1.0), (0.5, 1.3), (1.0 / 3.0, 1.1), (2.0, 0.7), (0.25, 0.4))]
    + [(dilate(MittagLeffler(0.5, 1.3), a), dilate(_squared(MittagLeffler(0.5, 1.3)), a * a))
       for a in (0.9, 1.7)],
    ids=lambda p: p.name,
)
def test_symplectic_annulus_table_is_the_normal_table_of_the_squared_profile(p, sq):
    # The symplectic log Z of q is the normal log Z of Q(rho) = 2 q(sqrt(rho))
    # (_squared), so the two annulus tables are one: the symplectic table's
    # origin log-potential U(0) is what the Jacobian of rho = r^2 adds to
    # the normal table's entropy.  Discs are left out: their Q has a cone
    # at the origin.
    # Bound, written before the first run.  Each side is exact for the same
    # number, so the sides may differ by what each may be off from it:
    #   - each equilibrium integral within its target max(1e-16, 1e-13 |I|),
    #     times its weight in the coefficient (_table_error);
    #   - rounding: each side of a coefficient is at most 8 float operations
    #     on terms that each carry at most 4 ulp (a log, a power or a
    #     quotient of inputs within an ulp or two), so 32 eps of the sum of
    #     its terms' magnitudes;
    #   - the droplet radii (closed forms on q's side, a converged Newton
    #     step on Q's) are within a few ulp: E and U(0) are stationary in
    #     them (q' = 0 at r0, r q' = 2 at r1), and the entropy, F and the
    #     edge term move with O(1) slopes on these annuli, so they add a few
    #     ulp of the terms, inside the 32 eps above.
    # c_nlogn and c_logn are the literal 0.5 on both sides.
    symp, normal = expansion_terms(p, "symplectic"), expansion_terms(sq, "normal")
    assert (symp.c_nlogn, symp.c_logn) == (normal.c_nlogn, normal.c_logn) == (0.5, 0.5)
    errs_symp, errs_normal = _table_error(p, 2), _table_error(sq, 1)
    for name, (part_s, mag_s) in errs_symp.items():
        part_n, mag_n = errs_normal[name]
        bound = part_s + part_n + 32.0 * _EPS * (mag_s + mag_n)
        got, want = getattr(symp, name), getattr(normal, name)
        assert abs(got - want) <= bound, (name, got, want, abs(got - want), bound)


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


@pytest.mark.parametrize("p", [_ml_profile(0.5, 1.1, True), _ml_profile(0.5, 1.1, False),
                               MittagLeffler(0.5, 1.3), dilate(MittagLeffler(1.0 / 3.0, 1.1), 0.9)],
                         ids=["derivs", "circle", "ml", "dilated-ml"])
def test_lemma_sum_radii_are_the_per_level_solves(p):
    # lemma_sum takes its radii, and ΔQ and V_tau at them, from one Laplace
    # stage call (norms._laplace_grid): off the closed forms the tau = 0 row from the scan, the others
    # from the array Newton, each bit for bit its solve_r_tau.  Each direct
    # sum is then the fsum of the lone reads at the lone solves.
    term = {
        "v": lambda t, r: v_tau(p, t, r),
        "logdq": lambda t, r: math.log(p.laplacian(r)),
        "logr": lambda t, r: math.log(r),
    }
    for which in ("sum_v_normal", "sum_v_symp_odd", "sum_logdq_normal", "sum_logdq_symp_odd",
                  "sum_logr_normal", "sum_logr_symp_odd"):
        k = 1 if which.endswith("_normal") else 2
        taus = [j / (k * 40) for j in range(k - 1, k * 40, k)]
        want = math.fsum(term[which.split("_")[1]](t, solve_r_tau(p, t)) for t in taus)
        assert lemma_sum(p, 40, which)[0].hex() == want.hex(), which


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


def test_every_lemma_sum_reads_the_third_and_fourth_derivatives():
    # The Laplace stage reads ΔQ with b1's ΔQ' and ΔQ'' at every level, so
    # every variant calls q''' and q'''' and raises where they fail.
    def fails(r):
        raise ValueError("no third derivative")

    k, c = 1.0, 1.1  # ML(1/2, 1.1)
    p = Custom(lambda r: r**k - 2.0 * c * np.log(r), derivs=[
        lambda r: k * r ** (k - 1.0) - 2.0 * c / r,
        lambda r: k * (k - 1.0) * r ** (k - 2.0) + 2.0 * c / r**2,
        fails, lambda r: 0.0 * r], name="no-third")
    for which in ("sum_v_normal", "sum_logdq_normal", "sum_logr_normal", "sum_v_symp_odd",
                  "sum_logdq_symp_odd", "sum_logr_symp_odd"):
        with pytest.raises(DomainError, match=rf"^no-third, n=40, which={which}: q\^\(3\) "):
            lemma_sum(p, 40, which)


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
    # c_n2 n^2 overflows to -inf at n = 10**200, which the message names by
    # its digit count and the terms by their class.
    n = 10**200
    terms = expansion_terms(Ginibre(), "normal", report=_GINIBRE_REPORT)
    with pytest.raises(DomainError, match=r"^evaluate\(<ExpansionTerms>, <201-digit int>\) "
                                          r"is not finite in float64$"):
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
