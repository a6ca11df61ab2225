"""40-digit reference for the exact route: the per-degree closed forms of
the monomial norms of the power-log and hard-wall families, in mpmath.

    ML(lam, c):   log h_j = -log lam + lgamma(a) - a log s,
                  a = (j + 1 + s c) / lam
    TU(alpha, R): log h_j = (j + 1) log beta + log B(j + 1, s alpha + 1)

They hold for any lam, c, alpha and R.  The parameters are read off the
potential as the floats it evaluates with (beta included), so the
reference and the route integrate the same weight.  norm_bound gives the
error that log_norm_exact documents for one norm.
"""

import math

import mpmath
import numpy as np

from coulombgas.droplet import solve_r_tau
from coulombgas.potential import MittagLeffler, TruncatedUnitary, v_tau

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
    raise TypeError(f"no closed-form norms for {p.name}")


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


def norm_bound(p, query, log_h):
    """Bound on |log_norm_exact(p, query) - log h_j|, fixed from the
    documented contract before any comparison.

    The norm integral meets relative accuracy
    target = max(1e-13, 4 s eps (|q(r*)| + |2 tau log r*|)), which moves
    the log by at most target.  The shift v_min = V_tau(r*) cancels between
    the exponent and -s v_min, so only the rounding of the final
    -s v_min + log(val) adds: half an ulp each of |s v_min|, of
    |log val| <= |s v_min| + |log h_j| and of the sum |log h_j|, at most
    eps (|s v_min| + |log h_j|) in all.
    """
    s, tau = query.s, query.tau
    r_star = solve_r_tau(p, tau)
    q_star = float(p.q_derivs(r_star)) if r_star > 0.0 else p.q_at_zero()
    log_term = 2.0 * tau * math.log(r_star) if r_star > 0.0 else 0.0
    target = max(1e-13, 4.0 * s * EPS * (abs(q_star) + abs(log_term)))
    v_min = float(v_tau(p, tau, r_star)) if r_star > 0.0 else q_star
    return target + EPS * (s * abs(v_min) + abs(log_h))
