"""Independent cross-checks: finite differences and exact combinatorics on
thin representations.

The thin-case routines work over exact rationals so they can serve as ground
truth for the numerical pipeline.
"""
from __future__ import annotations

import warnings
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


def fd_gradient(x: Representation, alpha, h: float = 1e-5):
    """Central-difference gradient of the energy in real coordinates."""
    shapes = edge_shapes(x.quiver, x.dims)
    base = ravel_real(x.mats)
    out = np.zeros_like(base)
    for i in range(len(base)):
        up = base.copy()
        dn = base.copy()
        up[i] += h
        dn[i] -= h
        xu = Representation(x.quiver, dict(x.dims), unravel_real(up, shapes))
        xd = Representation(x.quiver, dict(x.dims), unravel_real(dn, shapes))
        out[i] = (energy(xu, alpha) - energy(xd, alpha)) / (2.0 * h)
    return unravel_real(out, shapes)


def fd_hessian(x: Representation, alpha, h: float = 1e-4) -> np.ndarray:
    """Central-difference Jacobian of the gradient; symmetric up to O(h^2)."""
    shapes = edge_shapes(x.quiver, x.dims)
    base = ravel_real(x.mats)
    n = len(base)
    out = np.zeros((n, n))
    for i in range(n):
        up = base.copy()
        dn = base.copy()
        up[i] += h
        dn[i] -= h
        xu = Representation(x.quiver, dict(x.dims), unravel_real(up, shapes))
        xd = Representation(x.quiver, dict(x.dims), unravel_real(dn, shapes))
        gu = ravel_real(grad_energy(xu, alpha))
        gd = ravel_real(grad_energy(xd, alpha))
        out[:, i] = (gu - gd) / (2.0 * h)
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# thin representations: every dimension 0 or 1, so subobjects are vertex sets


def _thin_support(x: Representation) -> tuple[str, ...]:
    for v, d in x.dims.items():
        if d not in (0, 1):
            raise ValueError("non-thin representation: dimensions must be 0 or 1")
    return tuple(v for v in x.quiver.vertices if x.dims[v] == 1)


def _edge_pairs(x: Representation, threshold: float):
    """Edges acting nontrivially, as (tail, head) vertex pairs."""
    q = x.quiver
    pairs = []
    for e in range(q.nedges):
        m = x.mats[e]
        if m.size and np.abs(m[0, 0]) > threshold:
            pairs.append((q.tail(e), q.head(e)))
    return pairs


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
    off and its vertices are deleted from the quotient.  ``threshold`` is
    the magnitude above which an edge counts as acting; it must be finite and
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
        best = None
        ties = 0
        for r in range(1, len(alive) + 1):
            for combo in combinations(sorted(alive), r):
                if not _closed(frozenset(combo), pairs, frozenset(alive)):
                    continue
                key = (_slope(alpha, combo), r)
                if best is None or key > best[0]:
                    best = (key, combo)
                    ties = 1
                elif key == best[0]:
                    ties += 1
        if best is None:
            raise RuntimeError("no admissible subset found in a nonempty quotient")
        if ties > 1:
            warnings.warn("maximal destabilizing subobject is not unique; "
                          "taking the lexicographically first", stacklevel=2)
        (slope, _), combo = best
        dims = {v: (1 if v in combo else 0) for v in x.quiver.vertices}
        out.append((dims, slope))
        alive -= set(combo)
    for a, b in zip(out, out[1:]):
        if not a[1] > b[1]:
            raise RuntimeError("filtration slopes failed to decrease strictly")
    return out

