import math

import numpy as np
import pytest

from coulombgas.errors import DomainError, IntegrationError
from coulombgas.quadrature import _STALL, _eval_panels, integrate


def _integrate_loop(f, a, b, rel_tol=1e-12, abs_tol=1e-15, seeds=()):
    """Reference: the same refinement with per-panel Python bookkeeping."""
    cuts = sorted({a, b, *(s for s in seeds if a < s < b)})
    panels = list(zip(cuts[:-1], cuts[1:]))
    vals, errs = (list(v) for v in _eval_panels(f, cuts[:-1], cuts[1:]))
    history = []
    while True:
        total = math.fsum(vals)
        err_total = math.fsum(errs)
        tol = max(abs_tol, rel_tol * abs(total))
        if err_total <= tol:
            return total, err_total
        if len(history) >= _STALL and not err_total <= 0.5 * history[-_STALL]:
            raise IntegrationError("refinement stalled")
        history.append(err_total)
        share = 0.5 * tol / len(panels)
        worth = [i for i in range(len(panels)) if errs[i] > share]
        new_lefts, new_rights = [], []
        for i in worth:
            lo, hi = panels[i]
            mid = 0.5 * (lo + hi)
            new_lefts += [lo, mid]
            new_rights += [mid, hi]
        new_vals, new_errs = _eval_panels(f, new_lefts, new_rights)
        for pos, i in enumerate(worth):
            panels[i] = (new_lefts[2 * pos], new_rights[2 * pos])
            vals[i], errs[i] = new_vals[2 * pos], new_errs[2 * pos]
            panels.append((new_lefts[2 * pos + 1], new_rights[2 * pos + 1]))
            vals.append(new_vals[2 * pos + 1])
            errs.append(new_errs[2 * pos + 1])
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


@pytest.mark.parametrize(
    "f, a, b, kwargs",
    [
        (lambda x: np.exp(-(((x - 7.0) / 1e-3) ** 2)), 0.0, 20.0,
         {"rel_tol": 1e-13, "abs_tol": 0.0, "seeds": (6.99, 6.999, 7.0, 7.001, 7.01)}),
        (np.log, 0.0, 1.0, {"rel_tol": 1e-12}),
        (lambda x: np.sin(40.0 * x) * np.exp(-x), 0.0, 10.0, {"rel_tol": 1e-13}),
        (np.sqrt, 0.0, 3.0, {"rel_tol": 1e-14, "abs_tol": 0.0}),
        # Each round cuts the error at x^-0.8's singularity by only 2^-0.2,
        # so this takes 201 evaluations; no round cap may stop it.
        (lambda x: x**-0.8, 0.0, 1.0, {"rel_tol": 1e-13}),
    ],
    ids=["peak", "log", "oscillatory", "sqrt", "power"],
)
def test_array_bookkeeping_matches_loop_reference(f, a, b, kwargs):
    # The panel table must evaluate the same batches in the same order as
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
