"""Log-partition functions: exact summation and free-energy expansions.

The determinantal ensemble satisfies
    log Z_n = log n! + sum_{j=0}^{n-1} log h_j         (weight e^{-n q}),
and the symplectic one
    log Zt_n = log n! + sum_{j=0}^{n-1} log(2 ht_{2j+1})  (weight e^{-2n q}),
where h_j, ht_j are the monomial norms of the norms module.  The asymptotic
route evaluates the five-term expansion
    c_n2 n^2 + c_nlogn n log n + c_n n + c_logn log n + c_1
whose coefficients are equilibrium-measure functionals; the disc and
annulus droplets and the two ensembles have different coefficient tables.

Every route's log Z_n includes log n!.
"""

import math
from dataclasses import dataclass

import numpy as np

from .droplet import _droplet, _edge_laplacians, _given
from .equilibrium import (
    energy,
    entropy,
    equilibrium_report,
    log_potential_origin,
)
from .errors import DomainError, _finite, _named
from .norms import _REL_TOL, _degrees, _grid, _laplace_grid, log_norm_exact
from .potential import _check_ensemble, _check_n, _is_real
from .specialfn import LOG_2PI, ZETA_PRIME_MINUS_ONE, ln_factorial

_LEMMA_VARIANTS = (
    "sum_v_normal",
    "sum_logdq_normal",
    "sum_logr_normal",
    "sum_v_symp_odd",
    "sum_logdq_symp_odd",
    "sum_logr_symp_odd",
)


def default_rel_tol(n):
    """Per-norm accuracy target above the roundoff floor: 1e-13 at every n."""
    return _REL_TOL


@_named()
def log_z_exact(p, n, ensemble="normal", *, threads=1):
    """log Z_n by exact norm quadrature and compensated summation.

    The returned value includes the log n! combinatorial factor.  The
    set-up of all n norms (saddle, v_min, width, cut and target) comes
    from one array stage (_grid).  Norms are then evaluated one after
    another, each to the target log_norm_exact states, and summed by an
    exact compensated sum; each has the bits it has on its own.  threads
    is accepted for compatibility and ignored: a thread pool only slowed
    the GIL-bound norm loop down.
    """
    queries = _grid(p, n, ensemble)
    vals = [log_norm_exact(p, q) for q in queries]
    n, k = queries[0].n, queries[0].k
    return ln_factorial(n) + n * math.log(k) + math.fsum(vals)


@dataclass(frozen=True)
class ExpansionTerms:
    """Coefficients of the five-term free-energy expansion."""

    c_n2: float
    c_nlogn: float
    c_n: float
    c_logn: float
    c_1: float
    ensemble: str

    @_finite
    def evaluate(self, n):
        """The expansion at matrix size n; DomainError where it leaves float64
        (c_n2 n^2 overflows from n ~ 1e154)."""
        n = _check_n(n)
        ln = math.log(n)
        return math.fsum(
            (
                self.c_n2 * n * n,
                self.c_nlogn * n * ln,
                self.c_n * n,
                self.c_logn * ln,
                self.c_1,
            )
        )


@_named()
def expansion_terms(p, ensemble="normal", *, report=None):
    """Expansion coefficients from equilibrium functionals.

    report may carry a precomputed EquilibriumReport (for instance from a
    closed-form oracle), in which case no quadrature is performed here; the
    symplectic table still consults the potential for the Laplacian at the
    droplet edges, and the normal one does not consult it at all.
    """
    _check_ensemble(ensemble)
    rep = report if report is not None else equilibrium_report(p)
    d = _given(rep.droplet)

    if ensemble == "normal":
        c_n2 = -rep.energy
        c_nlogn = 0.5
        c_n = 0.5 * LOG_2PI - 1.0 - 0.5 * rep.entropy
        if d.kind == "annulus":
            c_logn = 0.5
            c_1 = 0.5 * LOG_2PI + rep.f_term
        else:
            c_logn = 5.0 / 12.0
            c_1 = 0.5 * LOG_2PI + ZETA_PRIME_MINUS_ONE + rep.f_term
    else:
        (dq_in, dq_out), _ = _edge_laplacians(p, d)
        c_n2 = -2.0 * rep.energy
        c_nlogn = 0.5
        c_n = (
            0.5 * math.log(4.0 * math.pi)
            - 1.0
            - rep.log_potential_origin
            - 0.5 * rep.entropy
        )
        edge_term = math.log(dq_in / dq_out) / 8.0
        if d.kind == "annulus":
            c_logn = 0.5
            c_1 = 0.5 * LOG_2PI + 0.5 * rep.f_term + edge_term
        else:
            c_logn = 11.0 / 24.0
            c_1 = (
                0.5 * LOG_2PI
                + 0.5 * ZETA_PRIME_MINUS_ONE
                + 0.5 * rep.f_term
                + (5.0 / 24.0) * math.log(2.0)
                + edge_term
            )

    return ExpansionTerms(
        c_n2=c_n2,
        c_nlogn=c_nlogn,
        c_n=c_n,
        c_logn=c_logn,
        c_1=c_1,
        ensemble=ensemble,
    )


@_named()
def log_z_asymptotic(p, n, ensemble="normal"):
    """Five-term expansion value at matrix size n."""
    return expansion_terms(p, ensemble).evaluate(n)


@_named(lambda n, which: (f"n={n}", f"which={which}"))
def lemma_sum(p, n, which):
    """Partial sums over the saddle grid versus their predicted expansions.

    which selects the summand and grid: sum_v_normal accumulates
    V_tau(j)(r_tau(j)) over j = 0..n-1 with tau = j/n; the *_symp_odd
    variants use tau = (2j+1)/(2n).  Returns (direct, predicted) where
    predicted carries the expansion through its stated order, so the gap
    decays like n^-3 for the V sums and n^-1 for the others.  Annular
    droplets only.  The prediction evaluates only the functionals it
    uses: energy and the origin log-potential for the V and log r sums,
    the entropy for the log laplacian sums.  The radii, and ΔQ and V_tau
    at them, come from one _laplace_grid call for all the levels, tau = 0
    included, which reads q''' and q'''' too.  A failure re-raises its
    class with the potential name, n and which in front.
    """
    n = _check_n(n)
    if which not in _LEMMA_VARIANTS:
        raise DomainError(f"which must be one of {_LEMMA_VARIANTS}, got {which!r}")
    d = _droplet(p, kind="annulus", what="lemma_sum")
    k = _check_ensemble("normal" if which.endswith("_normal") else "symplectic")
    taus = [j / (k * n) for j in _degrees(k, n)]
    radii, dqs, vs, _ = _laplace_grid(p, taus)

    if which.startswith("sum_v"):
        terms = vs.tolist()
    elif which.startswith("sum_logdq"):
        terms = [math.log(dq) for dq in dqs.tolist()]
    else:
        terms = [math.log(r) for r in radii.tolist()]
    direct = math.fsum(terms)

    if which == "sum_v_normal":
        u_0 = log_potential_origin(p, d)
        predicted = n * energy(p, d) - u_0 + math.log(d.r0 / d.r1) / (6.0 * n)
    elif which == "sum_logdq_normal":
        (dq0, dq1), _ = _edge_laplacians(p, d)
        predicted = n * entropy(p, d) - 0.5 * math.log(dq1 / dq0)
    elif which == "sum_logr_normal":
        predicted = -n * log_potential_origin(p, d) - 0.5 * math.log(d.r1 / d.r0)
    elif which == "sum_v_symp_odd":
        predicted = n * energy(p, d) - math.log(d.r0 / d.r1) / (12.0 * n)
    elif which == "sum_logdq_symp_odd":
        predicted = n * entropy(p, d)
    else:  # sum_logr_symp_odd
        predicted = -n * log_potential_origin(p, d)
    return direct, predicted


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    log_z_exact: float
    log_z_asymptotic: float
    residual: float


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple
    fitted_exponent: float
    fit_r2: float
    underflow: bool

    def to_csv(self):
        lines = ["N,log_z_exact,log_z_asymptotic,residual"]
        for row in self.rows:
            lines.append(
                f"{row.n},{row.log_z_exact!r},{row.log_z_asymptotic!r},{row.residual!r}"
            )
        lines.append(f"# fitted_exponent={self.fitted_exponent!r} r2={self.fit_r2!r}")
        return "\n".join(lines) + "\n"


@_named()
def convergence_study(p, ns, ensemble="normal", *, exact_fn=None, report=None):
    """Residuals of the expansion over an n-grid, with a log-log rate fit.

    exact_fn, when given, supplies log Z_n directly
    (a closed-form oracle, say); together with a precomputed equilibrium
    report this path runs no quadrature at all; a value that is not a finite
    real number raises DomainError naming n.  Residuals below 1e-12 in
    magnitude are treated as underflow of the comparison: the fit is skipped
    and reported as NaN with the underflow flag set.
    """
    ns = sorted({_check_n(n) for n in ns})
    if len(ns) < 2:
        raise DomainError("the size grid needs at least two distinct entries")
    if ns[0] < 10:
        raise DomainError(f"size grid entries must be at least 10, got {ns[0]}")
    terms = expansion_terms(p, ensemble, report=report)

    rows = []
    for n in ns:
        if exact_fn is not None:
            exact = exact_fn(n)
            if not _is_real(exact):
                raise DomainError(f"exact_fn gave log Z = {exact!r} at n = {n}")
            exact = float(exact)
        else:
            exact = log_z_exact(p, n, ensemble)
        asym = terms.evaluate(n)
        rows.append(
            ConvergenceRow(
                n=n,
                log_z_exact=exact,
                log_z_asymptotic=asym,
                residual=exact - asym,
            )
        )

    underflow = any(abs(r.residual) < 1e-12 for r in rows)
    if underflow:
        fitted, r2 = float("nan"), float("nan")
    else:
        x = np.log([r.n for r in rows])
        y = np.log([abs(r.residual) for r in rows])
        slope, intercept = np.polyfit(x, y, 1)
        pred = slope * x + intercept
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
        fitted = float(slope)
    return ConvergenceTable(
        rows=tuple(rows), fitted_exponent=fitted, fit_r2=r2, underflow=underflow
    )
