"""Deterministic adaptive Gauss-Kronrod quadrature on a finite interval.

The integrand must accept a 1-D numpy array and return an array of the same
shape.  All panels pending in a refinement round are evaluated in a single
batched call, which keeps Python overhead low when the integrand is built
from vectorized potential evaluations.  The returned value is the math.fsum
of the panel values, correctly rounded whatever their order, so the panels
are kept unordered: a split round drops the split panels and appends their
left halves, then their right halves.
"""

import math

import numpy as np

from .errors import DomainError, IntegrationError
from .potential import _is_real

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

# The nodes on [0, 1]: panel [l, r] gets l + (r - l) * _U.  The columns of
# _W2 are the Kronrod weights and the Gauss weights at the odd-indexed
# nodes, zero at the others, so one product gives both sums; the estimate
# stays their difference, as a finite |K15 - G7| then implies a finite K15.
_U = (1.0 + _XGK) / 2.0
_W2 = np.zeros((15, 2))
_W2[:, 0] = _WGK
_W2[1::2, 1] = _WG

# Splitting resolved panels cuts their error estimates by about 2^-14, and an
# endpoint singularity x^a with a > -7/8 halves the total within 8 rounds.
_STALL = 8
# A noisy integrand whose error estimate creeps down while the panel count
# doubles each round never stalls; the budget ends it with one round's node
# array at most 2^16 * 15 * 8 B ~ 7.9 MB.  Every converged integral of the
# test suite needs under 11,000 panels.
_MAX_PANELS = 1 << 16


# The decorator enters the error state once per call and keeps its token
# per call (numpy >= 2), without a with-block object to build each time.
@np.errstate(all="ignore")
def _eval_panels(f, lefts, rights):
    lefts = np.asarray(lefts, dtype=float)
    width = np.asarray(rights, dtype=float) - lefts
    pts = width[:, None] * _U
    pts += lefts[:, None]
    x = pts.reshape(-1)
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise DomainError(f"integrand returned shape {y.shape} for nodes of shape {x.shape}")
    sums = np.dot(y.reshape(pts.shape), _W2)
    half = 0.5 * width
    kron = sums[:, 0] * half
    err = sums[:, 1] * half
    np.subtract(kron, err, out=err)
    np.abs(err, out=err)
    return kron, err


def integrate(f, a, b, rel_tol=1e-12, abs_tol=1e-15, seeds=()):
    """Integrate a vectorized callable over [a, b].

    seeds is an optional 1-D array-like of interior points used as initial
    panel boundaries (points outside (a, b), or within 2^9 ulps of a or b,
    are dropped); it lets the caller pre-split around a known sharp peak so
    the first refinement rounds start from a sensible partition.

    f is called on 1-D arrays of the 15 Kronrod nodes of each pending panel
    [l, r], l + w u with w = r - l and u the nodes on [0, 1], the outermost
    0.43 % of the width inside.  Every node lies in its closed panel, so in
    [a, b]: where r - l is exact, w u <= w and the rounding of l + w u is
    monotone; where it is not, l and r lie on either side of 0 or more than
    a factor 2 apart, so w is at least half of max(|l|, |r|) and the 0.43 %
    margin dwarfs the rounding.  A panel at least 256 ulps of max(|l|, |r|)
    wide has a margin above an ulp and keeps its nodes off its ends; so no
    first-round node lands on a or b unless b - a is within 2^9 ulps, as
    the end panels are wider.  With a = 0 the first panel's nodes are w u,
    positive unless the panel is narrower than 1e-321.  A split round
    evaluates the left halves of its split panels, then the right halves;
    the panels stay unordered, as fsum makes the totals order-free.

    Returns (value, error_estimate), both finite floats, or raises
    IntegrationError, never a numpy warning: f and the panel sums run under
    np.errstate(all="ignore").  IntegrationError is raised at the first
    evaluation that gives a nan or inf node value or a panel sum that
    overflows float64, when the total over panels overflows, and when the
    error estimate cannot be brought under max(abs_tol, rel_tol * |value|):
    when a round's total error estimate is more than half of the total
    _STALL rounds before (refinement stalled), or when the panel budget
    _MAX_PANELS = 2^16 would be exceeded, which ends a noisy integrand whose
    estimate creeps down too slowly to stall.

    a < b must be finite reals with |a| + |b| finite, so that every panel's
    midpoint and half-width are, and the tolerances finite and nonnegative;
    anything else (bools, strings, nan, inf) raises DomainError, as do seeds
    that are not ints or floats or not 1-D and an integrand whose result has
    the wrong shape.
    """
    if not (_is_real(a) and _is_real(b) and a < b):
        raise DomainError(f"integrate needs finite reals a < b, got [{a!r}, {b!r}]")
    if not (_is_real(rel_tol) and _is_real(abs_tol) and rel_tol >= 0 and abs_tol >= 0):
        raise DomainError(f"integrate needs tolerances >= 0, got {rel_tol!r}, {abs_tol!r}")
    a, b = float(a), float(b)
    if abs(a) + abs(b) == math.inf:
        raise DomainError(f"integrate needs |a| + |b| finite in float64, got [{a!r}, {b!r}]")
    try:
        seeds = np.asarray(seeds)
    except ValueError:  # a ragged nesting has no shape
        raise DomainError("integrate needs 1-D seeds, got a ragged sequence") from None
    if seeds.dtype.kind not in "fiu":
        raise DomainError(f"integrate needs real seeds, got dtype {seeds.dtype}")
    if seeds.ndim != 1:
        raise DomainError(f"integrate needs 1-D seeds, got shape {seeds.shape}")
    # The first cuts, in one pass over the seeds: a, b and, once each, the
    # seeds inside (lo, hi), sorted.  The comparison leaves nan out.
    lo, hi = a + 512.0 * math.ulp(a), b - 512.0 * math.ulp(b)
    kept = {s for s in seeds.astype(float, copy=False).tolist() if lo < s < hi}
    kept.add(a)
    kept.add(b)
    cuts = np.fromiter(kept, float, len(kept))
    cuts.sort()
    # The panels as four flat arrays, unordered: the share rule is per panel.
    lefts = cuts[:-1]
    rights = cuts[1:]
    vals, errs = _eval_panels(f, lefts, rights)

    history = []
    while True:
        try:
            # Every Kronrod weight is positive, so a nan or inf node value,
            # like a panel sum that overflows, leaves its panel's error
            # estimate, and so their total, non-finite; a finite total means
            # every panel sum is finite.  It is summed first, as fsum raises
            # ValueError on the panel sums inf + -inf.
            err_total = math.fsum(errs.tolist())
            if not math.isfinite(err_total):
                raise IntegrationError(
                    "non-finite panel estimate: the integrand returned nan or inf, "
                    "or a panel sum overflows float64"
                )
            total = math.fsum(vals.tolist())
        except OverflowError:
            raise IntegrationError(
                f"the sum over {len(lefts)} panels overflows float64"
            ) from None
        tol = max(abs_tol, rel_tol * abs(total))
        if err_total <= tol:
            return total, err_total
        if len(history) >= _STALL and err_total > 0.5 * history[-_STALL]:
            raise IntegrationError(
                f"refinement stalled: error {err_total:.3e} has not halved in "
                f"{_STALL} rounds (target {tol:.3e}, {len(lefts)} panels)"
            )
        history.append(err_total)
        # While err_total > tol, some panel is over its share.
        worth = errs > 0.5 * tol / len(lefts)
        n_split = int(np.count_nonzero(worth))
        if len(lefts) + n_split > _MAX_PANELS:
            raise IntegrationError(
                f"panel budget exceeded ({len(lefts)} panels, error {err_total:.3e})"
            )
        lo = lefts[worth]
        hi = rights[worth]
        mid = 0.5 * (lo + hi)
        keep = ~worth
        lefts = np.concatenate((lefts[keep], lo, mid))
        rights = np.concatenate((rights[keep], mid, hi))
        new_vals, new_errs = _eval_panels(f, lefts[-2 * n_split:], rights[-2 * n_split:])
        vals = np.concatenate((vals[keep], new_vals))
        errs = np.concatenate((errs[keep], new_errs))
