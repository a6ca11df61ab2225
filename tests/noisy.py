"""Profiles whose q'' carries noise built in, for the failure paths of the
adaptive quadrature: a family's profile as a Custom with the family's
analytic derivatives, q'' plus a noise term.  Every functional of the
equilibrium measure reads q'' through the Laplacian (q'/r + q'')/4."""

from functools import partial

import numpy as np

from coulombgas.potential import Custom


def with_noise(p, noise, name):
    """p's profile as a Custom with p's derivatives, q'' plus noise(r)."""
    derivs = [partial(p.q_derivs, order=k) for k in range(1, 5)]
    derivs[1] = lambda r: p.q_derivs(r, 2) + noise(r)
    return Custom(p.q_derivs, derivs=derivs, name=name)


def ripple(r):
    """1e-9 sin(1e9 r): a panel wider than ~1e-8 cannot resolve it, so its
    error estimate stays at ~1e-9 of its width however often it is split,
    and the total stops halving once the smooth part is resolved: the
    refinement stalls."""
    return 1e-9 * np.sin(1e9 * r)


def rough(r):
    """1e-6 r^2 sum_j sin(10 4^j r) / 2^j, j < 11: the terms that a panel of
    width w cannot resolve sum to about sqrt(w) of its width, so the total
    error estimate halves every two rounds, never stalling, while the panel
    count doubles; a 1e-13 target would need far more panels than the
    budget.  The factor r^2 keeps it relative to a Laplacian ~ r^2 at 0."""
    return 1e-6 * r * r * sum(np.sin(10.0 * 4.0**j * r) / 2.0**j for j in range(11))
