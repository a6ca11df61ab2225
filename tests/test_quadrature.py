import math
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coulombgas import quadrature
from coulombgas.errors import DomainError, IntegrationError
from coulombgas.quadrature import _STALL, _eval_panels, integrate


def _integrate_loop(f, a, b, rel_tol=1e-12, abs_tol=1e-15, seeds=(), sort=False):
    """Reference: the same refinement with per-panel Python bookkeeping.  A
    split round keeps the other panels and appends the split panels' left
    halves, then their right halves, as integrate does.  With sort, it
    evaluates each split panel's two halves in turn and sorts the panels by
    left endpoint every round: ordered bookkeeping, a second reference.  A
    stall raises integrate's message."""
    cuts = sorted({a, b, *(s for s in seeds if a < s < b)})
    panels = list(zip(cuts[:-1], cuts[1:]))
    vals, errs = (list(v) for v in quadrature._eval_panels(f, cuts[:-1], cuts[1:]))
    history = []
    while True:
        total = math.fsum(vals)
        err_total = math.fsum(errs)
        tol = max(abs_tol, rel_tol * abs(total))
        if err_total <= tol:
            return total, err_total
        if len(history) >= _STALL and err_total > 0.5 * history[-_STALL]:
            raise IntegrationError(
                f"refinement stalled: error {err_total:.3e} has not halved in "
                f"{_STALL} rounds (target {tol:.3e}, {len(panels)} panels)"
            )
        history.append(err_total)
        share = 0.5 * tol / len(panels)
        keep = [i for i in range(len(panels)) if errs[i] <= share]
        split = [panels[i] for i in range(len(panels)) if errs[i] > share]
        left = [(lo, 0.5 * (lo + hi)) for lo, hi in split]
        right = [(mid, hi) for (_, mid), (_, hi) in zip(left, split)]
        halves = [h for pair in zip(left, right) for h in pair] if sort else left + right
        new_vals, new_errs = quadrature._eval_panels(f, *zip(*halves))
        panels = [panels[i] for i in keep] + halves
        vals = [vals[i] for i in keep] + list(new_vals)
        errs = [errs[i] for i in keep] + list(new_errs)
        if sort:
            order = sorted(range(len(panels)), key=lambda i: panels[i][0])
            panels = [panels[i] for i in order]
            vals = [vals[i] for i in order]
            errs = [errs[i] for i in order]


def test_polynomial_exact():
    val, err = integrate(lambda x: 3.0 * x**2, 0.0, 2.0)
    assert abs(val - 8.0) < 1e-13
    assert err < 1e-10


def test_sine_over_period():
    val, _ = integrate(np.sin, 0.0, math.pi)
    assert abs(val - 2.0) < 1e-12


def test_oscillatory():
    # int_0^10 sin(x) dx = 1 - cos(10)
    val, _ = integrate(np.sin, 0.0, 10.0, rel_tol=1e-12)
    assert abs(val - (1.0 - math.cos(10.0))) < 1e-11


def test_sharp_gaussian_with_seeds():
    # seeds have to bracket essentially all of the mass; panels that never
    # sample the spike report zero error and are not refined further
    c, w = 7.0, 1e-4

    def f(x):
        return np.exp(-(((x - c) / w) ** 2))

    seeds = tuple(c + k * w for k in (-32, -8, -1, 1, 8, 32))
    val, _ = integrate(f, 0.0, 20.0, rel_tol=1e-12, abs_tol=0.0, seeds=seeds)
    want = w * math.sqrt(math.pi)
    assert abs(val / want - 1.0) < 1e-10


def test_log_singularity():
    val, _ = integrate(np.log, 0.0, 1.0, rel_tol=1e-10, abs_tol=1e-15)
    assert abs(val + 1.0) < 1e-10


def test_deterministic_repeat():
    def f(x):
        return np.exp(-x * x) * np.cos(3.0 * x)

    a = integrate(f, 0.0, 5.0)[0]
    b = integrate(f, 0.0, 5.0)[0]
    assert a == b


def test_nan_integrand_raises():
    def f(x):
        return np.where(x > 0.5, np.nan, x)

    with pytest.raises(IntegrationError):
        integrate(f, 0.0, 1.0)


def _first_evaluation_raises(f, a, b, **kwargs):
    """integrate(f) under warnings-as-errors: it raises IntegrationError,
    and f was called once, never with an empty array."""
    batches = []

    def g(x):
        batches.append(x.size)
        return f(x)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as info:
            integrate(g, a, b, **kwargs)
    assert len(batches) == 1 and batches[0] > 0, batches
    return info.value


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_one_non_finite_node_raises_at_any_node(bad):
    # Every Kronrod weight is positive, so one bad value at any of the 15
    # nodes, Gauss node or not, leaves the panel's error estimate non-finite.
    for k in range(15):
        def f(x, k=k):
            y = x.copy()
            y[k] = bad
            return y

        _first_evaluation_raises(f, 0.0, 1.0)


@pytest.mark.parametrize(
    "f",
    [lambda x: np.full_like(x, 1e308), lambda x: np.where(x < 5.0, -1e308, 1e308)],
    ids=["overflow", "inf-minus-inf"],
)
def test_finite_values_whose_panel_sums_overflow_raise(f):
    # Each node value is finite, but the one panel's weighted sums, of
    # magnitude up to 5 * 2 * 1e308, overflow inside the matmul: no warning
    # and no empty refinement rounds, only IntegrationError.
    err = _first_evaluation_raises(f, 0.0, 10.0)
    assert "non-finite panel estimate" in str(err)


def test_finite_panels_whose_total_overflows_raise():
    # Each of the two panels is 5 * 2e307 = 1e308, finite with a finite
    # error estimate; their sum is not, and fsum's OverflowError becomes
    # IntegrationError.
    err = _first_evaluation_raises(lambda x: np.full_like(x, 2e307), 0.0, 10.0, seeds=(5.0,))
    assert "overflows float64" in str(err)


@pytest.mark.parametrize(
    "f",
    [lambda x: np.full_like(x, np.inf), lambda x: np.full_like(x, np.nan),
     lambda x: 1.0 / (x - x), lambda x: np.full_like(x, 1e308)],
    ids=["inf", "nan", "divide-by-zero", "overflow"],
)
def test_a_raising_error_state_still_gets_integration_error(f):
    # integrate runs f and the panel sums under its own error state, so a
    # caller's np.errstate(all="raise") never turns the non-finite values
    # into FloatingPointError: the package error is the only way out.
    with np.errstate(all="raise"):
        with pytest.raises(IntegrationError, match="non-finite panel estimate"):
            integrate(f, 0.0, 10.0)


def test_stalled_refinement_raises_instead_of_returning_unconverged():
    # The integral is 20.  Splitting the panel at the x^-0.95 singularity
    # cuts its error estimate by 2^-0.05 per round, so the total cannot halve
    # in _STALL rounds: integrate raises after its first evaluation and
    # _STALL split rounds, as the per-panel loop does.
    def recorder(batches):
        def g(x):
            batches.append(x.copy())
            return x**-0.95
        return g

    got_batches, want_batches = [], []
    with pytest.raises(IntegrationError, match="stalled"):
        integrate(recorder(got_batches), 0.0, 1.0, rel_tol=1e-13)
    with pytest.raises(IntegrationError, match="stalled"):
        _integrate_loop(recorder(want_batches), 0.0, 1.0, rel_tol=1e-13)
    assert len(got_batches) == len(want_batches) <= _STALL + 1
    for x, y in zip(got_batches, want_batches):
        assert np.array_equal(x, y)


def test_panel_budget_raises_while_the_error_still_halves(monkeypatch):
    # sin(40 x) e^-x on [0, 10] converges, so the stall rule, which waits
    # _STALL rounds, cannot stop it.  With 3 panels allowed, a split round
    # exceeds the budget long before the error meets 1e-13.
    def f(x):
        return np.sin(40.0 * x) * np.exp(-x)

    integrate(f, 0.0, 10.0, rel_tol=1e-13)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 3)
    with pytest.raises(IntegrationError, match="^panel budget exceeded"):
        integrate(f, 0.0, 10.0, rel_tol=1e-13)


@pytest.mark.parametrize(
    "f",
    [lambda x: 1.0, lambda x: x[:3], lambda x: x[:-1], lambda x: np.append(x, 0.0)],
    ids=["scalar", "short", "one-short", "one-long"],
)
def test_integrand_of_the_wrong_shape_is_a_domain_error(f):
    # One panel has 15 Kronrod nodes; a result of any other shape cannot be
    # matched to them.
    with pytest.raises(DomainError, match=r"returned shape \(\d*,?\) for nodes of shape \(15,\)"):
        integrate(f, 0.0, 1.0)


def test_bad_interval_raises():
    # An interval that is empty, reversed or infinite is a caller mistake.
    with pytest.raises(DomainError):
        integrate(np.sin, 1.0, 1.0)
    with pytest.raises(DomainError):
        integrate(np.sin, 2.0, 1.0)
    with pytest.raises(DomainError):
        integrate(np.sin, 0.0, math.inf)


def test_seeds_outside_interval_ignored():
    val, _ = integrate(lambda x: x, 0.0, 1.0, seeds=(-5.0, 0.5, 17.0))
    assert abs(val - 0.5) < 1e-14


def test_nan_and_duplicate_seeds_give_the_cuts_of_the_rest():
    # nan lies in no interval and is dropped; it must not disorder the sort
    # that the first cuts come from.  Integer seeds are cuts at their float
    # values, and -0.0 and 0.0 are one cut.  The first round's nodes pin
    # the cuts bit for bit: a duplicate cut's zero-width panel would add 15
    # nodes but nothing to the value.
    def value_and_first_nodes(a, b, seeds):
        batches = []

        def f(x):
            batches.append(x.copy())
            return np.cos(x)

        return integrate(f, a, b, seeds=seeds), batches[0].tobytes()

    want = value_and_first_nodes(0.0, 1.0, [0.2, 0.5])
    for seeds in ([math.nan, -1.0, 0.2, 0.5], [0.5, math.nan, 0.2, 0.2, -math.inf, math.inf],
                  [-1.0, 0.5, math.nan, 0.2, math.nan, 2.0]):
        assert value_and_first_nodes(0.0, 1.0, seeds) == want, seeds
    want = value_and_first_nodes(0.0, 4.0, [1.0, 3.0])
    assert value_and_first_nodes(0.0, 4.0, np.array([1, 3])) == want
    want = value_and_first_nodes(-1.0, 1.0, [0.0])
    for seeds in ([-0.0, 0.0], [0.0, -0.0]):
        assert value_and_first_nodes(-1.0, 1.0, seeds) == want, seeds


def test_seeds_a_few_ulps_from_an_end_are_dropped():
    # A hard wall: the integrand is nan at and beyond b.  A seed 2 ulps
    # below b would make a 2-ulp panel whose nodes round onto b; seeds
    # within 2^9 ulps of an end are dropped, so every node stays inside.
    b = 0.9899494936611666  # dilate(TruncatedUnitary(1, 1), 0.7)'s support radius
    f = lambda x: np.where(x < b, np.cos(x), np.nan)
    for seed in (b - 2.0 * math.ulp(b), math.ulp(0.0)):
        val, _ = integrate(f, 0.0, b, seeds=(0.5, seed))
        assert abs(val - math.sin(b)) < 1e-14, seed


def test_interval_whose_midpoints_overflow_raises():
    # With |a| + |b| beyond float64, a + b or b - a overflows, so a panel's
    # midpoint or half-width would be inf and its nodes inf or nan.
    calls = []
    for a, b in ((1e308, 1.7e308), (-1e308, 1e308)):
        with pytest.raises(DomainError, match=r"\|a\| \+ \|b\| finite"):
            integrate(calls.append, a, b)
    assert not calls


@pytest.mark.parametrize(
    "seeds, shape",
    [(0.5, r"shape \(\)"), ([[0.2, 0.4]], r"shape \(1, 2\)"), ([[0.2], [0.3, 0.4]], "a ragged")],
    ids=["scalar", "nested", "ragged"],
)
def test_seeds_that_are_not_1d_are_a_domain_error(seeds, shape):
    with pytest.raises(DomainError, match="integrate needs 1-D seeds, got " + shape):
        integrate(lambda x: x, 0.0, 1.0, seeds=seeds)


@st.composite
def _interval_and_seeds(draw):
    a = draw(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)))
    if a != 0.0 and draw(st.booleans()):
        b = a + draw(st.integers(1, 300)) * math.ulp(a)  # panels of a few ulps
    else:
        b = a + 10.0 ** draw(st.floats(-6.0, 6.0))
    assume(a < b)
    seeds = [a + t * (b - a) for t in draw(st.lists(st.floats(-0.5, 1.5), max_size=6))]
    near_ends = draw(st.lists(st.integers(-1000, 1000), max_size=2))  # ulps from an end
    seeds += [b + k * math.ulp(b) if k < 0 else a + k * math.ulp(a) for k in near_ends]
    return a, b, seeds


# The nodes the docstring promises f: within one ulp of [a, b], inside
# their own panel unless it is narrower than 128 ulps, positive for a = 0,
# and in the first round strictly inside (a, b) unless b - a is within
# 2^9 ulps.  The norm integrand relies on this to skip the domain check.
# Each integrand forces refinement rounds: a square-root cusp at either end
# or a narrow peak.
@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_interval_and_seeds(), kind=st.sampled_from(["left", "right", "peak"]),
       at=st.floats(0.0, 1.0))
def test_nodes_lie_in_their_panels_and_in_the_interval(case, kind, at):
    a, b, seeds = case
    c = a + at * (b - a)
    f = {
        "left": lambda x: np.sqrt(np.abs(x - a)),
        "right": lambda x: np.sqrt(np.abs(b - x)),
        "peak": lambda x: np.exp(-(((x - c) / (1e-3 * (b - a))) ** 2)),
    }[kind]
    seen = []

    def recording(f, lefts, rights):
        def g(x):
            seen.append((np.asarray(lefts), np.asarray(rights), x.reshape(-1, 15).copy()))
            return f(x)
        return _eval_panels(g, lefts, rights)

    with mock.patch.object(quadrature, "_eval_panels", recording):
        try:
            integrate(f, a, b, seeds=seeds)
        except IntegrationError:
            pass  # a few-ulp interval can stall; the nodes it was given still count
    assert seen
    for lefts, rights, x in seen:
        assert np.all(a <= lefts) and np.all(lefts <= rights) and np.all(rights <= b)
        narrow = rights - lefts < 128 * np.spacing(np.maximum(np.abs(lefts), np.abs(rights)))
        lo = np.where(narrow, np.nextafter(lefts, -np.inf), lefts)[:, None]
        hi = np.where(narrow, np.nextafter(rights, np.inf), rights)[:, None]
        assert np.all(lo <= x) and np.all(x <= hi)
        assert np.all(math.nextafter(a, -math.inf) <= x)
        assert np.all(x <= math.nextafter(b, math.inf))
        if a == 0.0:
            assert np.all(x > 0.0)
    if b - a > 512 * math.ulp(max(abs(a), abs(b))):
        x = seen[0][2]
        assert np.all(a < x) and np.all(x < b)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(ends=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40, unique=True))
def test_eval_panels_hands_f_the_kronrod_nodes_bit_for_bit(ends):
    # The nodes are left + width * u for each Kronrod node u on [0, 1],
    # panel by panel.
    cuts = np.array(sorted(ends))
    lefts, rights = cuts[:-1], cuts[1:]
    width = rights - lefts
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.ones_like(x)

    _eval_panels(f, lefts, rights)
    assert len(seen) == 1
    assert np.array_equal(seen[0], (lefts[:, None] + width[:, None] * quadrature._U).ravel())


def test_weight_columns_are_the_kronrod_and_the_embedded_gauss_weights():
    # One product gives both sums: the Gauss weights sit at the odd-indexed
    # nodes, the Gauss nodes, and the rest of their column is zero.
    w2 = quadrature._W2
    assert w2.shape == (15, 2)
    assert np.array_equal(w2[:, 0], quadrature._WGK)
    assert np.array_equal(w2[1::2, 1], quadrature._WG)
    assert np.array_equal(w2[0::2, 1], np.zeros(8))


@st.composite
def _panels(draw):
    left = draw(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)))
    if draw(st.booleans()):
        right = left + draw(st.integers(1, 1000)) * math.ulp(left)  # a few ulps
    else:
        right = left + 10.0 ** draw(st.floats(-300.0, 6.0))
    assume(left < right)
    return left, right


# The guarantees the norm integrand's hard-wall comment relies on.  With
# w = r - l the node l + w u lies in [l, r] for every u in [0, 1] when the
# subtraction is exact, as rounding is monotone; when it is not, l and r
# lie on either side of 0 or more than a factor 2 apart, so w is at least
# half of max(|l|, |r|) and the 0.43 % margin of the outermost nodes
# dwarfs the rounding.  From
# 256 ulps of width on, that margin exceeds an ulp, so no node lands on an
# end; with l = 0 every node is w u, positive unless w u underflows.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(panels=st.lists(_panels(), min_size=1, max_size=8))
def test_kronrod_nodes_lie_in_their_closed_panel(panels):
    lefts, rights = (np.array(c) for c in zip(*panels))
    seen = []

    def f(x):
        seen.append(x.reshape(-1, 15).copy())
        return np.ones_like(x)

    _eval_panels(f, lefts, rights)
    x = seen[0]
    lo, hi = lefts[:, None], rights[:, None]
    assert np.all(lo <= x) and np.all(x <= hi)
    wide = rights - lefts >= 256 * np.spacing(np.maximum(np.abs(lefts), np.abs(rights)))
    assert np.all((lo < x) & (x < hi) | ~wide[:, None])
    at_zero = (lefts == 0.0) & (rights >= 1e-321)
    assert np.all(x[at_zero] > 0.0)


_REFINING = [
    (lambda x: np.exp(-(((x - 7.0) / 1e-3) ** 2)), 0.0, 20.0,
     {"rel_tol": 1e-13, "abs_tol": 0.0, "seeds": (6.99, 6.999, 7.0, 7.001, 7.01)}),
    (np.log, 0.0, 1.0, {"rel_tol": 1e-12}),
    (lambda x: np.sin(40.0 * x) * np.exp(-x), 0.0, 10.0, {"rel_tol": 1e-13}),
    (np.sqrt, 0.0, 3.0, {"rel_tol": 1e-14, "abs_tol": 0.0}),
    # Each round cuts the error at x^-0.8's singularity by only 2^-0.2,
    # so this takes 201 evaluations; no round cap may stop it.
    (lambda x: x**-0.8, 0.0, 1.0, {"rel_tol": 1e-13}),
]
_REFINING_IDS = ["peak", "log", "oscillatory", "sqrt", "power"]


@pytest.mark.parametrize("f, a, b, kwargs", _REFINING, ids=_REFINING_IDS)
def test_array_bookkeeping_matches_loop_reference(f, a, b, kwargs):
    # The flat arrays must evaluate the same batches in the same order as
    # the per-panel loop, so values and error estimates agree bit for bit.
    def recorder(batches):
        def g(x):
            batches.append(x.copy())
            return f(x)
        return g

    got_batches, want_batches = [], []
    got = integrate(recorder(got_batches), a, b, **kwargs)
    want = _integrate_loop(recorder(want_batches), a, b, **kwargs)
    assert got == want
    assert len(got_batches) == len(want_batches) > 3
    for x, y in zip(got_batches, want_batches):
        assert np.array_equal(x, y)


def _rounds(run, f, a, b, **kwargs):
    """run(f, a, b, **kwargs), or its IntegrationError's message, and each
    round's panels as rows (left, right, value, error) in lexicographic
    order: what the round evaluated, whatever the order of its batch."""
    rounds = []

    def recording(f, lefts, rights):
        vals, errs = _eval_panels(f, lefts, rights)
        rows = np.column_stack((lefts, rights, vals, errs))
        rounds.append(rows[np.lexsort((rows[:, 1], rows[:, 0]))])
        return vals, errs

    with mock.patch.object(quadrature, "_eval_panels", recording):
        try:
            result = run(f, a, b, **kwargs)
        except IntegrationError as exc:
            result = str(exc)
    return result, rounds


@pytest.mark.parametrize(
    "f, a, b, kwargs",
    [*_REFINING, (lambda x: x**-0.95, 0.0, 1.0, {"rel_tol": 1e-13})],
    ids=[*_REFINING_IDS, "stalled"],
)
def test_unordered_panels_match_the_sorted_reference(f, a, b, kwargs):
    # Sorting the panels by left endpoint, and evaluating each split panel's
    # halves in turn, changes no bit: fsum's totals do not depend on the
    # order, and a panel's bits not on its row in a batch of two or more,
    # so each round evaluates the same panels with the same bits, and the
    # value and error estimate, or the stall, are the same.
    got, got_rounds = _rounds(integrate, f, a, b, **kwargs)
    want, want_rounds = _rounds(partial(_integrate_loop, sort=True), f, a, b, **kwargs)
    assert got == want
    assert len(got_rounds) == len(want_rounds) > 3
    for x, y in zip(got_rounds, want_rounds):
        assert np.array_equal(x, y)


# The row-position independence the unordered panels rely on: a panel's
# (value, error) from a batch of 2 to 512 rows, in any order and beside any
# other panels, is that of its own two-row call.  A one-row batch is left
# out: numpy hands a (1, 15) @ (15, 2) product to BLAS gemv, which with
# OpenBLAS 0.3.31's Haswell kernels sums in another order than the gemm of
# a taller batch, a last-bit change for about half of all panels.  No split
# round has one row, as each evaluates both halves of its panels.
@settings(derandomize=True, max_examples=100, deadline=None)
@given(panels=st.lists(_panels(), min_size=1, max_size=16),
       rows=st.integers(2, 512), seed=st.integers(0, 2**32 - 1))
def test_eval_panels_bits_do_not_depend_on_the_row(panels, rows, seed):
    def f(x):
        return np.sin(3.0 * x) * np.exp(-np.abs(x) / 7.0) + np.sqrt(np.abs(x))

    lefts, rights = (np.array(c) for c in zip(*panels))
    own = [_eval_panels(f, lefts[[i, i]], rights[[i, i]]) for i in range(len(panels))]
    rng = np.random.default_rng(seed)
    pick = rng.permutation(np.resize(np.arange(len(panels)), rows))
    vals, errs = _eval_panels(f, lefts[pick], rights[pick])
    for k, i in enumerate(pick):
        assert vals[k] == own[i][0][0] and errs[k] == own[i][1][0], (k, i)
