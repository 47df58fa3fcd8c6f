"""Independent cross-checks: finite differences and exact combinatorics on
thin representations.

The thin-case routines work over exact rationals so they can serve as ground
truth for the numerical pipeline.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from .rep import (
    Representation,
    energy,
    grad_energy,
    ravel_real,
    unravel_real,
    edge_shapes,
)


def _central_differences(x: Representation, f, h: float, out: np.ndarray) -> np.ndarray:
    """Fill out[..., i] with (f(x + h e_i) - f(x - h e_i)) / 2h over the real
    coordinates of x."""
    shapes = edge_shapes(x.quiver, x.dims)
    base = ravel_real(x.mats)
    for i in range(len(base)):
        up = base.copy()
        dn = base.copy()
        up[i] += h
        dn[i] -= h
        xu = Representation(x.quiver, dict(x.dims), unravel_real(up, shapes))
        xd = Representation(x.quiver, dict(x.dims), unravel_real(dn, shapes))
        out[..., i] = (f(xu) - f(xd)) / (2.0 * h)
    return out


def fd_gradient(x: Representation, alpha):
    """Central-difference gradient of the energy in real coordinates, step 1e-5."""
    n = len(ravel_real(x.mats))
    out = _central_differences(x, lambda y: energy(y, alpha), 1e-5, np.zeros(n))
    return unravel_real(out, edge_shapes(x.quiver, x.dims))


def fd_hessian(x: Representation, alpha) -> np.ndarray:
    """Central-difference Jacobian of the gradient, step h = 1e-4; symmetric
    up to O(h^2)."""
    n = len(ravel_real(x.mats))
    out = _central_differences(x, lambda y: ravel_real(grad_energy(y, alpha)), 1e-4,
                               np.zeros((n, n)))
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# thin representations: every dimension 0 or 1, so subobjects are vertex sets


def _thin_support(x: Representation) -> tuple[str, ...]:
    for v, d in x.dims.items():
        if d not in (0, 1):
            raise ValueError("non-thin representation: dimensions must be 0 or 1")
    return tuple(v for v in x.quiver.vertices if x.dims[v] == 1)


def _edge_pairs(x: Representation, threshold: float):
    """Edges acting nontrivially, as (tail, head) vertex pairs: an entry acts
    above threshold times the largest edge entry, both of degree 1."""
    entries = [abs(m[0, 0]) if m.size else 0.0 for m in x.mats]
    cut = threshold * max(entries, default=0.0)
    return [ends for ends, a in zip(x.quiver.edges, entries) if a > cut]


def _closed(subset: frozenset, pairs, alive: frozenset) -> bool:
    for t, h in pairs:
        if t in subset and h in alive and h not in subset:
            return False
    return True


def _slope(alpha, subset) -> Fraction:
    total = Fraction(0)
    for v in subset:
        total += Fraction(alpha[v])
    return total / len(subset)


def thin_hn_type(x: Representation, alpha, threshold: float = 1e-12):
    """Exact filtration type of a thin representation.

    Returns a list of (dims, slope) pairs with strictly decreasing slopes.
    At each stage the subset of maximal slope, then maximal size, is split
    off and its vertices are deleted from the quotient.  An edge counts as
    acting when its entry exceeds ``threshold`` times the largest edge entry,
    so rescaling x keeps the type; ``threshold`` must be finite and
    nonnegative.  ``alpha`` weights exactly the vertices of x.
    """
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and nonnegative, got {threshold!r}")
    support = _thin_support(x)
    if set(alpha) != set(x.dims):
        raise ValueError("weight keys must match dimension-vector keys")
    pairs = _edge_pairs(x, threshold)
    alive = set(support)
    out = []
    while alive:
        # no tie at the max: A&B is closed, so closed A|B has max slope and is larger
        best = None
        for r in range(1, len(alive) + 1):
            for combo in combinations(sorted(alive), r):
                if not _closed(frozenset(combo), pairs, frozenset(alive)):
                    continue
                key = (_slope(alpha, combo), r)
                if best is None or key > best[0]:
                    best = (key, combo)
        if best is None:
            raise RuntimeError("no admissible subset found in a nonempty quotient")
        (slope, _), combo = best
        dims = {v: (1 if v in combo else 0) for v in x.quiver.vertices}
        out.append((dims, slope))
        alive -= set(combo)
    for a, b in zip(out, out[1:]):
        if not a[1] > b[1]:
            raise RuntimeError("filtration slopes failed to decrease strictly")
    return out

