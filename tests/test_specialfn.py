import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coulombgas.errors import DomainError
from coulombgas.quadrature import integrate
from coulombgas.specialfn import (
    LOG_2PI,
    ZETA_PRIME_MINUS_ONE,
    ln_barnes_g,
    ln_barnes_g_asymptotic,
    ln_factorial,
    ln_gamma,
)

# reference values computed with 40-digit arithmetic
BARNES_REF = [
    (0.5, -0.5054330544896953),
    (1.0, 0.0),
    (1.5, 0.06693188843500471),
    (2.5, -0.05385034920024052),
    (4.0, 0.6931471805599453),
    (7.25, 11.920855252910414),
    (13.0, 81.56801559776963),
    (30.0, 811.4010798896974),
    (61.7, 4856.058732758781),
]


def test_ln_gamma_matches_lgamma():
    for x in (0.5, 1.0, 3.7, 20.0, 171.6):
        assert ln_gamma(x) == math.lgamma(x)


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-3.2)


_NAN = float("nan")
_INF = float("inf")


# Bad arguments (bools, strings, nan, inf, ints too large for a float, a
# negative tolerance, seeds that are not ints or floats) and results that
# overflow float64.
@pytest.mark.parametrize(
    "call",
    [
        lambda: ln_factorial(_NAN),
        lambda: ln_factorial(_INF),
        lambda: ln_factorial(10**400),
        lambda: ln_factorial(1e306),
        lambda: ln_factorial(True),
        lambda: ln_gamma(True),
        lambda: ln_gamma(_INF),
        lambda: ln_gamma(1e308),
        lambda: ln_gamma("2"),
        lambda: ln_barnes_g(_INF),
        lambda: ln_barnes_g(1e160),
        lambda: ln_barnes_g(True),
        lambda: ln_barnes_g_asymptotic(1e300),
        lambda: integrate(np.sin, "0", "1"),
        lambda: integrate(np.sin, True, 2),
        lambda: integrate(np.sin, 0, 1, rel_tol=_NAN),
        lambda: integrate(np.sin, 0, 1, rel_tol=-1),
        lambda: integrate(np.sin, 0.0, 1.0, seeds=["0.5"]),
        lambda: integrate(np.sin, 0.0, 1.0, seeds=[True]),
    ],
    ids=[
        "ln_factorial-nan", "ln_factorial-inf", "ln_factorial-10**400",
        "ln_factorial-1e306", "ln_factorial-True", "ln_gamma-True", "ln_gamma-inf",
        "ln_gamma-1e308", "ln_gamma-str", "ln_barnes_g-inf", "ln_barnes_g-1e160",
        "ln_barnes_g-True", "ln_barnes_g_asymptotic-1e300", "integrate-str",
        "integrate-bool", "integrate-rel_tol-nan", "integrate-rel_tol-negative",
        "integrate-seeds-str", "integrate-seeds-bool",
    ],
)
def test_bad_arguments_and_non_finite_results_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_ln_factorial_small_values():
    assert ln_factorial(0) == 0.0
    assert ln_factorial(1) == 0.0
    assert abs(ln_factorial(5) - math.log(120.0)) < 1e-14
    assert abs(ln_factorial(12) - math.log(479001600.0)) < 1e-13


def test_ln_factorial_rejects_bad_input():
    with pytest.raises(DomainError):
        ln_factorial(-1)
    with pytest.raises(DomainError):
        ln_factorial(2.5)


def test_ln_factorial_stirling_gap():
    # four-term Stirling at n=1000 misses by the 1/(12n) remainder
    n = 1000.0
    stirling = n * math.log(n) - n + 0.5 * math.log(n) + 0.5 * LOG_2PI
    gap = ln_factorial(1000) - stirling
    assert abs(gap) <= 1e-4
    assert abs(gap * 12.0 * n - 1.0) < 0.01


def test_barnes_reference_values():
    for x, want in BARNES_REF:
        assert abs(ln_barnes_g(x) - want) < 1e-12, x


def test_barnes_g_of_four_is_log_two():
    assert abs(ln_barnes_g(4.0) - math.log(2.0)) < 1e-12


def test_barnes_half_integer_formula():
    # ln G(1/2) = (1/24) ln 2 + (3/2) zeta'(-1) - (1/4) ln pi
    want = math.log(2.0) / 24.0 + 1.5 * ZETA_PRIME_MINUS_ONE - 0.25 * math.log(math.pi)
    assert abs(ln_barnes_g(0.5) - want) < 1e-12
    # ln G(3/2) = ln Gamma(1/2) + ln G(1/2)
    want32 = 0.5 * math.log(math.pi) + want
    assert abs(ln_barnes_g(1.5) - want32) < 1e-12


def test_barnes_recursion_consistency():
    rng = np.random.default_rng(20240817)
    xs = rng.uniform(0.5, 100.0, size=200)
    for x in xs:
        lhs = ln_barnes_g(x + 1.0)
        rhs = ln_gamma(x) + ln_barnes_g(x)
        assert abs(lhs - rhs) < 1e-11, x


def test_barnes_recursion_vs_bare_asymptotic_at_30():
    # the uncorrected five-term form at z=30 sits about 4.6e-6 away from the
    # recursion route; the contract only demands 1e-4
    recursion = math.fsum(math.lgamma(k) for k in range(1, 31))
    bare = ln_barnes_g_asymptotic(30.0)
    gap = abs(recursion - bare)
    assert gap < 1e-4
    assert gap > 1e-7  # the bare form really is the uncorrected one


def test_gamma_multiplication_theorem():
    rng = np.random.default_rng(77)
    zs = rng.uniform(0.5, 50.0, size=100)
    for n in (2, 3):
        for z in zs:
            lhs = ln_gamma(n * z)
            rhs = (
                (1.0 - n) / 2.0 * LOG_2PI
                + (n * z - 0.5) * math.log(n)
                + math.fsum(ln_gamma(z + k / n) for k in range(n))
            )
            assert abs(lhs - rhs) < 1e-12, (n, z)


def test_barnes_rejects_below_half():
    with pytest.raises(DomainError):
        ln_barnes_g(0.25)
    with pytest.raises(DomainError):
        ln_barnes_g(-1.0)


_EPS = float(np.finfo(float).eps)


def _barnes_error_bound(x):
    """Rounding bound of ln_barnes_g(x), from its operation count.

    With m upward shifts to y >= 31, z = y - 1, A the sum of the magnitudes
    of the five asymptotic terms at z and L = sum of |ln Gamma(x + k)|,
    k < m:
      - each asymptotic term carries at most 3 roundings (z*z, the product
        with ln z or a constant, ln z itself) and the five-term sum 5 more
        on partial sums no larger than A; the first omitted tail term,
        |B_10| / 80 z^-8 < 2e-15 at z >= 30, is below eps A: 9 eps A;
      - each math.lgamma within 4 eps of max(|ln Gamma|, 1), m partial
        sums of the shift each within eps L, and the final subtraction
        within eps |ln G(x)| <= eps (A + L): (m + 5) eps (L + m);
      - y += 1.0 rounds only where y enters a new binade, at most 6 times
        below 32, so the shifted points move by |delta| <= 2^-48 in all,
        which moves the result by at most |delta| times
        d ln G / dz <= 32 ln 32 on [x, 32].
    """
    y, shift_terms = x, []
    while y < 31.0:
        shift_terms.append(abs(math.lgamma(y)))
        y += 1.0
    m, z = len(shift_terms), y - 1.0
    lz = math.log(z)
    a = 0.5 * z * z * lz + 0.75 * z * z + 0.5 * z * LOG_2PI + lz / 12.0 + abs(ZETA_PRIME_MINUS_ONE)
    bound = 9.0 * _EPS * a + (m + 5) * _EPS * (sum(shift_terms) + m)
    if m:
        bound += 2.0**-48 * 32.0 * math.log(32.0)
    return bound


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.floats(math.log(0.5), math.log(1e5)))
@example(math.log(0.5))
@example(math.log(1.5))
@example(math.log(30.0))
@example(math.log(30.5))
@example(math.log(31.0))
@example(math.log(100.0))
@example(math.log(1e4))
@example(math.log(1e5))
def test_barnes_against_mpmath_at_30_digits(log_x):
    # The bound is derived in _barnes_error_bound before comparing; the
    # 30-digit reference is exact at float64 resolution.
    x = min(max(math.exp(log_x), 0.5), 1e5)
    with mpmath.workdps(30):
        ref = mpmath.log(mpmath.barnesg(x))
        err = float(abs(ln_barnes_g(x) - ref))
    assert err <= _barnes_error_bound(x), (x, err, _barnes_error_bound(x))
