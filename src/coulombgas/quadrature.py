"""Deterministic adaptive Gauss-Kronrod quadrature on a finite interval.

The integrand must accept a 1-D numpy array and return an array of the same
shape.  All panels pending in a refinement round are evaluated in a single
batched call, which keeps Python overhead low when the integrand is built
from vectorized potential evaluations.  The returned value is a compensated
sum over panels ordered by their left endpoint, so results do not depend on
the history of panel splits or on any threading in the caller.
"""

import math

import numpy as np

from .errors import IntegrationError

# 15-point Kronrod nodes and weights on [-1, 1]; the embedded 7-point Gauss
# rule uses the odd-indexed nodes.
_XGK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_XGK = np.array([-x for x in _XGK_HALF] + [x for x in reversed(_XGK_HALF[:-1])])
_WGK = np.array(list(_WGK_HALF) + list(reversed(_WGK_HALF[:-1])))
_WG = np.array(
    [_WG_HALF[0], _WG_HALF[1], _WG_HALF[2], _WG_HALF[3], _WG_HALF[2], _WG_HALF[1], _WG_HALF[0]]
)

_MAX_ROUNDS = 64
_MAX_PANELS = 1 << 20

# Panels narrower than this times max(1, |endpoint|) are not split further.
_WIDTH_FLOOR = 64.0 * np.finfo(float).eps


def _eval_panels(f, lefts, rights):
    lefts = np.asarray(lefts, dtype=float)
    rights = np.asarray(rights, dtype=float)
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    pts = mid[:, None] + half[:, None] * _XGK[None, :]
    y = np.asarray(f(pts.reshape(-1)), dtype=float).reshape(len(lefts), _XGK.size)
    if not np.isfinite(y).all():
        raise IntegrationError("integrand returned a non-finite value")
    kron = half * (y @ _WGK)
    gauss = half * (y[:, 1::2] @ _WG)
    return kron, np.abs(kron - gauss)


def integrate(f, a, b, rel_tol=1e-12, abs_tol=1e-15, seeds=()):
    """Integrate a vectorized callable over [a, b].

    seeds is an optional 1-D array-like of interior points used as initial
    panel boundaries (points outside (a, b) are dropped); it lets the caller
    pre-split around a known sharp peak so the first refinement rounds start
    from a sensible partition.  Returns (value, error_estimate) and raises
    IntegrationError when the error estimate cannot be brought under
    max(abs_tol, rel_tol * |value|): when every panel still over its share
    of the error is at the width floor, when the panel budget _MAX_PANELS
    would be exceeded, or after _MAX_ROUNDS refinement rounds.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise IntegrationError(f"bad interval [{a!r}, {b!r}]")
    seeds = np.asarray(seeds, dtype=float).tolist()
    cuts = np.array(sorted({a, b, *[s for s in seeds if a < s < b]}))
    # The panels ordered by left endpoint, as columns of one row per panel
    # (left, right, value, error); most integrals meet their tolerance on
    # this first evaluation, so the table is built at the first split.
    lefts = cuts[:-1]
    rights = cuts[1:]
    vals, errs = _eval_panels(f, lefts, rights)
    panels = None

    for _ in range(_MAX_ROUNDS):
        total = math.fsum(vals.tolist())
        err_total = math.fsum(errs.tolist())
        tol = max(abs_tol, rel_tol * abs(total))
        if err_total <= tol:
            return total, err_total
        share = 0.5 * tol / len(lefts)
        width_floor = _WIDTH_FLOOR * np.maximum(1.0, np.maximum(np.abs(lefts), np.abs(rights)))
        worth = (errs > share) & (rights - lefts > width_floor)
        n_split = int(np.count_nonzero(worth))
        if not n_split:
            # Every panel over its share is at roundoff width; further
            # splitting cannot help.
            raise IntegrationError(
                f"no convergence: the panels over their error share are at the "
                f"width floor (error {err_total:.3e}, target {tol:.3e})"
            )
        if len(lefts) + n_split > _MAX_PANELS:
            raise IntegrationError(
                f"panel budget exceeded ({len(lefts)} panels, error {err_total:.3e})"
            )
        # Each split panel becomes (lo, mid), (mid, hi), evaluated in that order.
        lo = lefts[worth]
        hi = rights[worth]
        mid = 0.5 * (lo + hi)
        halves = np.empty((2 * n_split, 4))
        halves[0::2, 0] = lo
        halves[0::2, 1] = mid
        halves[1::2, 0] = mid
        halves[1::2, 1] = hi
        halves[:, 2], halves[:, 3] = _eval_panels(f, halves[:, 0], halves[:, 1])
        if panels is None:
            panels = np.column_stack((lefts, rights, vals, errs))
        panels = np.concatenate((panels[~worth], halves))
        panels = panels[np.argsort(panels[:, 0], kind="stable")]
        lefts, rights, vals, errs = panels.T

    err_total = math.fsum(errs.tolist())
    raise IntegrationError(
        f"no convergence after {_MAX_ROUNDS} refinement rounds (error {err_total:.3e})"
    )
