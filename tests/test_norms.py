import math

import numpy as np
import pytest

from coulombgas import norms
from coulombgas.errors import DomainError, IntegrationError
from coulombgas.norms import (
    NormQuery,
    log_norm_exact,
    log_norm_highdeg,
    log_norm_laplace,
    log_norm_lowdeg,
)
from coulombgas.partition import log_z_exact
from coulombgas.potential import Custom, Ginibre, MittagLeffler, TruncatedUnitary, dilate
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


_BAD_TOLS = [math.nan, math.inf, 0.0, -1e-13, True]


@pytest.mark.parametrize("bad", _BAD_TOLS)
def test_bad_rel_tol_rejected_before_quadrature(monkeypatch, bad):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran with a bad tolerance")

    monkeypatch.setattr(norms, "integrate", no_quadrature)
    with pytest.raises(DomainError, match="rel_tol"):
        log_norm_exact(Ginibre(), NormQuery(3, 1, "normal"), rel_tol=bad)
    with pytest.raises(DomainError, match="rel_tol"):
        log_z_exact(Ginibre(), 3, rel_tol=bad)
