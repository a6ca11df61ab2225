"""40-digit reference for the exact route: the per-degree closed forms of
the monomial norms of the power-log and hard-wall families, in mpmath.

    ML(lam, c):   log h_j = -log lam + lgamma(a) - a log s,
                  a = (j + 1 + s c) / lam
    TU(alpha, R): log h_j = (j + 1) log beta + log B(j + 1, s alpha + 1)

    dilate(p, a):  log h_j of p + (2j + 2) log a

They hold for any lam, c, alpha, R and a.  The parameters are read off
the potential as the floats it evaluates with (beta included), so the
reference and the route integrate the same weight.  A profile without a
closed form, given as an mpmath expression, has log_norm_of_profile: a
40-digit mpmath.quad of the norm integral.  norm_bound gives the
error that log_norm_exact documents for one norm, log_z_bound and
route_bound the error of log_z_exact that follows from it.
telescoped_log_z is log_z of the oracle families in Barnes G form, valid
at any n.
"""

import math

import mpmath
import numpy as np

from coulombgas.droplet import solve_r_tau
from coulombgas.norms import NormQuery
from coulombgas.potential import MittagLeffler, TruncatedUnitary, _Dilated, v_tau

EPS = float(np.finfo(float).eps)

_DPS = 40


def log_norm(p, j, s):
    """log h_j of the weight e^{-s q} at 40 digits, as an mpf."""
    with mpmath.workdps(_DPS):
        if isinstance(p, MittagLeffler):
            lam = mpmath.mpf(p.lam)
            a = (j + 1 + s * mpmath.mpf(p.c)) / lam
            return -mpmath.log(lam) + mpmath.loggamma(a) - a * mpmath.log(s)
        if isinstance(p, TruncatedUnitary):
            beta = mpmath.mpf(p.beta)
            b = s * mpmath.mpf(p.alpha) + 1
            log_beta_fn = mpmath.loggamma(j + 1) + mpmath.loggamma(b) - mpmath.loggamma(j + 1 + b)
            return (j + 1) * mpmath.log(beta) + log_beta_fn
        if isinstance(p, _Dilated):  # q(r / a): h_j scales by a^(2j+2)
            return log_norm(p._base, j, s) + (2 * j + 2) * mpmath.log(p._a)
    raise TypeError(f"no closed-form norms for {p.name}")


def log_norm_of_profile(q, j, s):
    """log h_j of the weight e^{-s q} at 40 digits, as an mpf, for a profile
    q(r) given as an mpmath expression with r q'(r) strictly increasing.

    With tau' = (j + 1/2)/s and V(r) = q(r) - 2 tau' log r, log h_j is
    -s V(r*) + log of the quad of 2 e^{-s (V(r) - V(r*))} over (0, inf),
    split at r* +- 8w and r* +- 40w (those above 0), where r* is the root
    of V' and w = (s V''(r*) / 2)^(-1/2) the width of the Gaussian peak.
    r* and w only place the split and the shift, so the value does not
    depend on how accurately they are found.
    """
    with mpmath.workdps(_DPS):
        level = (j + mpmath.mpf(1) / 2) / s

        def v(r):
            return q(r) - 2 * level * mpmath.log(r)

        def dv(r):
            return mpmath.diff(v, r)

        lo = hi = mpmath.mpf(1)
        while dv(hi) < 0:
            lo, hi = hi, 2 * hi
        while dv(lo) > 0:
            lo, hi = lo / 2, lo
        r_star = mpmath.findroot(dv, (lo, hi), solver="anderson")
        v_star = v(r_star)
        w = mpmath.sqrt(2 / (s * mpmath.diff(v, r_star, 2)))
        cuts = [r_star + k * w for k in (-40, -8, 8, 40)]
        val = mpmath.quad(lambda r: 2 * mpmath.exp(-s * (v(r) - v_star)),
                          [0, *(c for c in cuts if c > 0), mpmath.inf])
        return -s * v_star + mpmath.log(val)


def log_z(p, n, ensemble):
    """Physics-convention log Z_n at 40 digits, as an mpf: log n! plus the
    n norms of the ensemble (times 2 each for the symplectic one)."""
    with mpmath.workdps(_DPS):
        if ensemble == "normal":
            total = mpmath.loggamma(n + 1) + mpmath.fsum(log_norm(p, j, n) for j in range(n))
        else:
            s = 2 * n
            total = (
                mpmath.loggamma(n + 1)
                + n * mpmath.log(2)
                + mpmath.fsum(log_norm(p, j, s) for j in range(1, s, 2))
            )
        return total


def telescoped_log_z(p, n, ensemble):
    """log_z of ML(k/P, c) or TU(alpha, R) at 40 digits, as an mpf, for any
    n: the Gauss multiplication sum that ml_log_z and tu_log_z take, with
    k = 1 (normal) or 2 (symplectic).  ML's lam is read as k/P exactly, P
    the integer nearest k/lam, the weight that ml_log_z takes; alpha, beta
    and c are the potential's floats."""
    k = 1 if ensemble == "normal" else 2
    with mpmath.workdps(_DPS):
        base = mpmath.loggamma(n + 1)
        if isinstance(p, MittagLeffler):
            P = round(k / p.lam)
            if abs(k / p.lam - P) > 1e-9 * P:
                raise ValueError(f"{k}/lam is not an integer for {p.name}")
            c = mpmath.mpf(p.c)
            degrees = P * (mpmath.mpf(n) * (n + 1) / 2 + c * n * n)
            return (base + n * mpmath.log(P) - degrees * mpmath.log(k * n)
                    + _gamma_sum(P, n, c * n))
        if isinstance(p, TruncatedUnitary):
            b = k * n * mpmath.mpf(p.alpha) + 1
            return (base + n * mpmath.log(k) + mpmath.mpf(k) * n * (n + 1) / 2 * mpmath.log(p.beta)
                    + n * mpmath.loggamma(b) + _gamma_sum(k, n, 0) - _gamma_sum(k, n, b / k))
    raise TypeError(f"no telescoped log Z for {p.name}")


def _gamma_sum(P, n, z0):
    # sum_{j=1}^{n} ln Gamma(P (j + z0)) = n (1 - P)/2 log 2 pi
    # + (P (n (n + 1)/2 + n z0) - n/2) log P + sum_{i<P} ln G(n + 1 + x) - ln G(1 + x),
    # x = z0 + i/P (DLMF 5.5.6 and 5.17).
    pre = (mpmath.mpf(n) * (1 - P) / 2 * mpmath.log(2 * mpmath.pi)
           + (P * (mpmath.mpf(n) * (n + 1) / 2 + n * z0) - mpmath.mpf(n) / 2) * mpmath.log(P))
    xs = [z0 + mpmath.mpf(i) / P for i in range(P)]
    return pre + mpmath.fsum(mpmath.log(mpmath.barnesg(n + 1 + x)) - mpmath.log(mpmath.barnesg(1 + x))
                             for x in xs)


def norm_bound(p, query, log_h):
    """Bound on |log_norm_exact(p, query) - log h_j|, fixed from the
    documented contract before any comparison.

    The norm integral of e^{-s V_tau'}, tau' = query.level = (j + 1/2)/s,
    meets relative accuracy
    target = max(1e-13, 4 s eps (|q|_terms(r*) + |2 tau' log r*|)) at the
    saddle r* = r_tau' > 0, which moves the log by at most target;
    |q|_terms is the sum of the magnitudes of q's terms (_q_terms).  The
    shift v_min = V_tau'(r*) cancels between the exponent and -s v_min, so
    only the rounding of the final -s v_min + log(val) adds: half an ulp
    each of |s v_min|, of |log val| <= |s v_min| + |log h_j| and of the sum
    |log h_j|, at most eps (|s v_min| + |log h_j|) in all.
    """
    s, level = query.s, query.level
    r_star = solve_r_tau(p, level)
    log_term = 2.0 * level * math.log(r_star)
    target = max(1e-13, 4.0 * s * EPS * (_q_terms(p, r_star) + abs(log_term)))
    v_min = float(v_tau(p, level, r_star))
    return target + EPS * (s * abs(v_min) + abs(log_h))


def _q_terms(p, r):
    """Sum of the magnitudes of the terms of q at r, from the family
    parameters: r^(2 lam) + 2 c |log r| for ML(lam, c), the base's at r / a
    for a dilation, and |q(r)| for a profile of one term."""
    if isinstance(p, _Dilated):
        return _q_terms(p._base, r / p._a)
    if isinstance(p, MittagLeffler):
        return r ** (2.0 * p.lam) + 2.0 * p.c * abs(math.log(r))
    return abs(float(p.q_derivs(r)))


def log_z_bound(p, n, ensemble, ref=None):
    """Bound on |log_z_exact(p, n, ensemble) - log_z(ref, n, ensemble)|,
    ref defaulting to p, fixed from the documented contract before any
    comparison:
      - each norm is within norm_bound (taken at p, the potential the
        route runs on) of its closed form at ref;
      - log_z_exact adds log n! = math.lgamma(n + 1) (within 4 ulp), for
        the symplectic ensemble n log 2 (1 ulp) and the base (half an
        ulp), the correctly rounded fsum of the norms (half an ulp of a sum
        of at most |log Z| + log n! + n log 2) and the last addition (half
        an ulp of |log Z|).  An ulp of x is at most eps |x|, so this is at
        most 5 eps (log n! + n log 2 + |log Z|);
      - the reference itself is exact to far below a float64 ulp.
    """
    ref = p if ref is None else ref
    s = n if ensemble == "normal" else 2 * n
    return route_bound(p, n, ensemble, [float(log_norm(ref, j, s)) for j in _degrees(n, ensemble)])


def route_bound(p, n, ensemble, log_hs):
    """log_z_bound given the n values log h_j in degree order: the
    reference's, or, for a potential without one, the route's own (the
    eps |log h_j| terms then move by about eps^2)."""
    degrees = _degrees(n, ensemble)
    bound = math.fsum(
        norm_bound(p, NormQuery(n, j, ensemble), log_h) for j, log_h in zip(degrees, log_hs)
    )
    base = math.lgamma(n + 1.0) + (n * math.log(2.0) if ensemble == "symplectic" else 0.0)
    return bound + 5.0 * EPS * (base + abs(base + math.fsum(log_hs)))


def _degrees(n, ensemble):
    return range(n) if ensemble == "normal" else range(1, 2 * n, 2)
