"""Independent cross-checks: finite differences and the exact filtration of
thin representations.

The thin-case routines work over exact rationals so they can serve as ground
truth for the numerical pipeline.  The filtration takes polynomial time:
Dinkelbach iteration (Management Sci. 13, 1967) over max-weight closures,
each one min cut (Picard, Management Sci. 22, 1976); see ``thin_hn_type``.
"""
from __future__ import annotations

from fractions import Fraction

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


def _edge_pairs(x: Representation, threshold: float):
    """Edges acting nontrivially, as (tail, head) vertex pairs: an entry acts
    above threshold times the largest edge entry, both of degree 1."""
    entries = [abs(m[0, 0]) if m.size else 0.0 for m in x.mats]
    cut = threshold * max(entries, default=0.0)
    return [ends for ends, a in zip(x.quiver.edges, entries) if a > cut]


def _largest_max_closure(pairs, weight):
    """Largest max-``weight`` vertex set closed under the ``pairs`` between its
    keys.  In Picard's network with every arc reversed, its complement is the
    source side of the minimal min cut, which the last Edmonds-Karp search reaches."""
    src, snk = object(), object()
    big = 1 + sum(abs(c) for c in weight.values())
    cap = {u: {} for u in (src, snk, *weight)}
    for u, v, c in [*((h, t, big) for t, h in pairs if t in weight and h in weight),
                    *((src, v, -c) if c < 0 else (v, snk, c) for v, c in weight.items() if c)]:
        cap[u][v] = cap[u].get(v, 0) + c
        cap[v].setdefault(u, 0)
    while True:
        path, queue = {src: []}, [src]
        for u in queue:
            for v, c in cap[u].items():
                if c > 0 and v not in path:
                    path[v] = path[u] + [(u, v)]
                    queue.append(v)
        if snk not in path:
            return [v for v in weight if v not in path]
        push = min(cap[u][v] for u, v in path[snk])
        for u, v in path[snk]:
            cap[u][v] -= push
            cap[v][u] += push


def thin_hn_type(x: Representation, alpha, threshold: float = 1e-12):
    """Exact filtration type of a thin representation.

    Returns a list of (dims, slope) pairs with strictly decreasing slopes.
    Each stage splits off the largest closed vertex set of maximal slope, the
    unique maximal destabilizing subobject (Reineke, Invent. Math. 152, 2003).
    Edges act above ``threshold`` (finite, nonnegative) times the largest edge
    entry, so rescaling x keeps the type; ``alpha`` weights the vertices of x.

    From lam = the slope of the quotient, a stage takes the largest closed set
    of most weight |A| (slope(A) - lam) under the weights alpha_v - lam, a min
    cut with capacity 1 + sum |w| on acting edges, and moves lam to its slope
    until lam stops rising.  Then the optimum 0 is reached by exactly the closed
    sets of maximal slope, so the maximal min cut is their union; O(V E^2) a cut.
    """
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and nonnegative, got {threshold!r}")
    if any(d not in (0, 1) for d in x.dims.values()):
        raise ValueError("non-thin representation: dimensions must be 0 or 1")
    if set(alpha) != set(x.dims):
        raise ValueError("weight keys must match dimension-vector keys")
    pairs = _edge_pairs(x, threshold)
    alive = [v for v in x.quiver.vertices if x.dims[v] == 1]
    weight = {v: Fraction(alpha[v]) for v in alive}
    out = []
    while alive:
        top, slope = alive, None
        while (best := sum(weight[v] for v in top) / len(top)) != slope:
            slope = best
            top = _largest_max_closure(pairs, {v: weight[v] - slope for v in alive})
            if not top:
                raise RuntimeError("no admissible subset found in a nonempty quotient")
        out.append(({v: int(v in top) for v in x.quiver.vertices}, slope))
        alive = [v for v in alive if v not in top]
    if any(a[1] <= b[1] for a, b in zip(out, out[1:])):
        raise RuntimeError("filtration slopes failed to decrease strictly")
    return out
