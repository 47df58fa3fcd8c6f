"""Intertwiners and the correspondences built from them.

Covers module homomorphism spaces, isomorphism testing by invertible
intertwiner, Hecke membership with the distinguished block pinned to 1, the
two constructive bridges between Hecke data and negative-slice flow lines,
the affine projection (zero-weight flow), the Lagrangian comparison, and the
handsaw reduction by reversal plus adjoints.

An intertwiner xi: x1 -> x2 is a block xi_v of shape (d2_v, d1_v) per vertex.
As a vector it is the row-major ravel of the blocks, concatenated in vertex
order; a block pinned to the identity is no part of the vector.  Every Hom
question (a basis, an invertible element, a pinned injective element) is
answered from the one equation system of ``_hom_equations`` and the one
seeded search of ``_generic_element``.

Every residual gate is of degree 1, by the rule of ``rep`` ("Tolerances").
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quiver import Quiver, handsaw_roles, reverse_quiver
from .rep import (
    Representation,
    add_tangent,
    edge_shapes,
    embed_rep,
    energy,
    direct_sum,
    mats_norm,
    null_space,
    numerical_rank,
    ravel_real,
    rep_distance,
    group_act,
)
from .critical import slice_conditions
from .flow import FlowOptions, flow

_TRIALS = 8  # seeded draws of the generic-element search after its start point


@dataclass
class Intertwiner:
    """Per-vertex blocks of a module homomorphism x1 -> x2, with the block at
    the distinguished vertex equal to 1."""

    blocks: dict[str, np.ndarray]
    residual: float
    space_dim: int
    injective: bool | None = None
    surjective: bool | None = None


@dataclass
class FlowLinePair:
    """A critical point (x1, 0), a slice direction delta and a group element
    moving x1 + delta onto the second representation."""

    x1: Representation
    x2: Representation
    delta: list[np.ndarray]
    g: list[np.ndarray]
    action_residual: float
    slice_residual: float


def _injective(blocks: dict[str, np.ndarray], tol: float = 1e-9) -> bool:
    """Every block has full column rank."""
    return all(numerical_rank(np.linalg.svd(b, compute_uv=False), b.shape, tol) == b.shape[1]
               for b in blocks.values())


def _check_step(x1: Representation, x2: Representation, k: str) -> None:
    if x2.dims != {v: x1.dims[v] + (v == k) for v in x1.quiver.vertices}:
        raise ValueError("dimension vectors must differ by one at the given vertex")


def _intertwine_residual(x1: Representation, x2: Representation, blocks) -> float:
    return mats_norm([blocks[h] @ a1 - a2 @ blocks[t]
                      for (t, h), a1, a2 in zip(x1.quiver.edges, x1.mats, x2.mats)])


def _hom_equations(x1: Representation, x2: Representation, pinned: str | None):
    """The intertwining conditions xi_h A1 - A2 xi_t = 0 as M vec + rhs = 0,
    with ``blocks(vec)`` the per-vertex dict of a solution, in the layout of
    the module docstring.  The pinned block is the fixed identity and enters
    rhs only.  Row-major, vec(xi A) = (1 kron A^T) vec(xi) and
    vec(A xi) = (A kron 1) vec(xi)."""
    q = x1.quiver
    d1, d2 = x1.dims, x2.dims
    fixed = {} if pinned is None else {pinned: np.eye(d2[pinned], d1[pinned], dtype=complex)}
    free = [v for v in q.vertices if v not in fixed]
    ends = np.cumsum([0] + [d2[v] * d1[v] for v in free])
    cols = {v: slice(a, b) for v, a, b in zip(free, ends, ends[1:])}
    rows = np.cumsum([0] + [d2[h] * d1[t] for t, h in q.edges])
    M = np.zeros((rows[-1], ends[-1]), dtype=complex)
    rhs = np.zeros(rows[-1], dtype=complex)
    for (t, h), a1, a2, r0, r1 in zip(q.edges, x1.mats, x2.mats, rows, rows[1:]):
        if h in fixed:
            rhs[r0:r1] += (fixed[h] @ a1).ravel()
        else:
            M[r0:r1, cols[h]] += np.kron(np.eye(d2[h]), a1.T)
        if t in fixed:
            rhs[r0:r1] -= (a2 @ fixed[t]).ravel()
        else:
            M[r0:r1, cols[t]] -= np.kron(a2, np.eye(d1[t]))

    def blocks(vec):
        return {v: fixed[v] if v in fixed else vec[cols[v]].reshape(d2[v], d1[v])
                for v in q.vertices}
    return M, rhs, blocks


def _generic_element(part, null, blocks, seed: int, accept):
    """Blocks of the first element of part + span(null) that passes accept:
    part itself, then part + null @ c for ``_TRIALS`` seeded complex normal
    draws c; None if every one fails.  An empty span leaves part alone."""
    rng = np.random.default_rng(seed)
    n = null.shape[1]
    for trial in range(1 + _TRIALS if n else 1):
        vec = part
        if trial:
            vec = part + null @ (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        b = blocks(vec)
        if accept(b):
            return b
    return None


def intertwiner_space(x1: Representation, x2: Representation):
    """Orthonormal basis of Hom(x1, x2); returns a list of per-vertex dicts."""
    if x1.quiver.edges != x2.quiver.edges:
        raise ValueError("intertwiners need a common quiver")
    M, _, blocks = _hom_equations(x1, x2, None)
    return [blocks(vec) for vec in null_space(M, 1e-9).T]


def is_isomorphic(x1: Representation, x2: Representation, seed: int = 0,
                  tol: float = 1e-8, strict: bool = False):
    """Search for an invertible intertwiner; returns (verdict, witness or None).

    The witness is a per-vertex group element with g . x1 = x2 up to
    ``tol`` max(|x1|, |x2|).
    Strict mode additionally requires dim Hom(x1,x2) = dim Hom(x1,x1), which
    separates a semisimple object from a nontrivial extension of the same
    graded pieces.
    """
    if x1.quiver.edges != x2.quiver.edges or x1.dims != x2.dims:
        return False, None
    M, _, blocks = _hom_equations(x1, x2, None)
    null = null_space(M, 1e-9)
    if strict and null.shape[1] != null_space(_hom_equations(x1, x1, None)[0], 1e-9).shape[1]:
        return False, None

    def iso(b):
        # equal dims make every block square, so injective is invertible
        return (_injective(b, 1e-12) and rep_distance(group_act(list(b.values()), x1), x2)
                <= tol * max(x1.norm(), x2.norm()))
    # the search starts at zero, the witness when every dimension is 0
    found = _generic_element(np.zeros(M.shape[1], dtype=complex), null, blocks, seed, iso)
    return (False, None) if found is None else (True, list(found.values()))


# ---------------------------------------------------------------------------
# Hecke membership


def hecke_check(x1: Representation, x2: Representation, k: str, seed: int = 0,
                tol: float = 1e-9):
    """Membership test: is there an intertwiner x1 -> x2 with the block at the
    distinguished vertex pinned to 1?  Returns the intertwiner or None."""
    if not x1.quiver.loop_free:
        raise ValueError("quiver has loops")
    return _pinned_membership(x1, x2, k, seed, tol)


def _pinned_membership(x1: Representation, x2: Representation, k: str,
                       seed: int, tol: float):
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    q = x1.quiver
    if x2.quiver.edges != q.edges:
        raise ValueError("hecke check needs a common quiver")
    if q.infinity is None:
        raise ValueError("hecke check needs a distinguished vertex")
    if k not in q.vertices or k == q.infinity:
        raise ValueError(f"modified vertex {k!r} must be an ordinary vertex")
    _check_step(x1, x2, k)
    M, rhs, blocks = _hom_equations(x1, x2, q.infinity)
    part, *_ = np.linalg.lstsq(M, -rhs, rcond=None)
    residual = float(np.linalg.norm(M @ part + rhs))
    if residual > tol * (x1.norm() + x2.norm()):
        return None
    null = null_space(M, 1e-9)
    found = _generic_element(part, null, blocks, seed, _injective)
    chosen = blocks(part) if found is None else found
    return Intertwiner(blocks=chosen, residual=_intertwine_residual(x1, x2, chosen),
                       space_dim=int(null.shape[1]), injective=found is not None)


def flowline_to_hecke(pair: FlowLinePair, k: str) -> Intertwiner:
    """Restrict the pair's group element to the smaller representation and
    rescale so the distinguished block is 1."""
    x1, x2 = pair.x1, pair.x2
    q = x1.quiver
    if q.infinity is None:
        raise ValueError("hecke restriction needs a distinguished vertex")
    blocks = {v: g[:, : x1.dims[v]].copy() for v, g in zip(q.vertices, pair.g)}
    pin = blocks[q.infinity]
    # g is fixed only up to a scalar; <= keeps an all-zero g degenerate
    top = max(np.max(np.abs(g), initial=0.0) for g in pair.g)
    if pin.size == 0 or abs(pin[0, 0]) <= 1e-12 * top:
        raise ValueError("degenerate restriction: vanishing block at infinity")
    c = pin[0, 0]
    blocks = {v: b / c for v, b in blocks.items()}
    residual = _intertwine_residual(x1, x2, blocks)
    if residual > 1e-8 * (x1.norm() + x2.norm()):
        raise ValueError(f"restricted element fails to intertwine ({residual:.3e})")
    return Intertwiner(blocks=blocks, residual=residual, space_dim=0,
                       injective=_injective(blocks))


def hecke_to_flowline(x1: Representation, x2: Representation, xi: Intertwiner,
                      k: str) -> FlowLinePair:
    """Rebuild slice data from a Hecke intertwiner.

    Extends the intertwiner by a direction off its image at the modified
    vertex, pulls the larger representation back, and removes the component
    along the orbit directions so the correction lies in the adjoint kernel.
    """
    q = x1.quiver
    if not q.loop_free:
        raise ValueError("quiver has loops")
    if k not in q.vertices:
        raise ValueError(f"unknown vertex {k!r}")
    blocks = xi.blocks
    res = _intertwine_residual(x1, x2, blocks)
    if res > 1e-8 * (x1.norm() + x2.norm()):
        raise ValueError(f"intertwiner residual too large ({res:.3e})")
    if not _injective(blocks):
        raise ValueError("intertwiner is not injective")
    _check_step(x1, x2, k)

    d1, d2 = x1.dims, x2.dims
    # unit vector spanning the complement of the image at the modified vertex
    w = np.linalg.svd(blocks[k])[0][:, -1]
    line = d2[k] - 1  # leading-coordinate embedding: new direction is last

    # delta-tilde: per edge out of k, pull x2 applied to w back through xi
    shapes2 = edge_shapes(q, d2)
    delta = [np.zeros(s, dtype=complex) for s in shapes2]
    out_edges = [e for e in range(q.nedges) if q.tail(e) == k]
    cols = {}
    for e in out_edges:
        h = q.head(e)
        vec = x2.mats[e] @ w
        sol, *_ = np.linalg.lstsq(blocks[h], vec, rcond=None)
        cols[e] = sol  # length d1[h]

    # remove the orbit component: least squares over maps from the new line
    if d1[k] > 0 and out_edges:
        A = np.concatenate([x1.mats[e] for e in out_edges], axis=0)
        b = np.concatenate([cols[e] for e in out_edges])
        v_corr, *_ = np.linalg.lstsq(A, b, rcond=None)
        for e in out_edges:
            cols[e] = cols[e] - x1.mats[e] @ v_corr
    else:
        v_corr = np.zeros(d1[k], dtype=complex)
    for e in out_edges:
        h = q.head(e)
        delta[e][: d1[h], line] = cols[e]

    g = []
    for v in q.vertices:
        m = np.zeros((d2[v], d2[v]), dtype=complex)
        m[:, : d1[v]] = blocks[v]
        if v == k:
            m[:, line] = w - blocks[k] @ v_corr
        g.append(m)

    x1_hat = embed_rep(x1, d2)
    start = add_tangent(x1_hat, delta)
    moved = group_act(g, start)
    action_residual = rep_distance(moved, x2)

    slice_residual = float(np.linalg.norm(ravel_real(slice_conditions(x1_hat, delta))))
    if action_residual > 1e-6 * x2.norm():
        raise ValueError(f"flow-line reconstruction failed ({action_residual:.3e})")
    return FlowLinePair(x1=x1, x2=x2, delta=delta, g=g,
                        action_residual=action_residual,
                        slice_residual=slice_residual)


# ---------------------------------------------------------------------------
# affine projection and the Lagrangian comparison


# radial decay toward a non-closed-orbit limit is only polynomial in time, so
# the zero-weight flow starts with a large step (the accuracy control shrinks
# it whenever the field is active) and gets a long horizon
AFFINE_FLOW_DEFAULTS = FlowOptions(dt_init=64.0, max_time=5e5)


def snap_rep(x: Representation, tol: float) -> Representation:
    mats = [np.where(np.abs(m) < tol, 0.0, m) for m in x.mats]
    return Representation(x.quiver, dict(x.dims), mats)


def affine_project(x: Representation, opts: FlowOptions | None = None,
                   snap_tol=None):
    """Flow with all weights zero; the limit represents the closed-orbit
    degeneration.  Radial directions decay only polynomially, so an optional
    snap threshold (or "auto", ten times the cube root of the final gradient
    norm) zeroes the residue they leave; the snapped point is re-verified to
    keep the energy near zero, else the raw limit is returned.

    Returns (representation, flow result).
    """
    if snap_tol not in (None, "auto") and not (np.isfinite(snap_tol) and snap_tol >= 0):
        raise ValueError(f"snap_tol must be 'auto' or finite and nonnegative, got {snap_tol!r}")
    zero_alpha = {v: 0 for v in x.quiver.vertices}
    result = flow(x, zero_alpha, opts or AFFINE_FLOW_DEFAULTS)
    limit = result.limit
    if snap_tol is None:
        return limit, result
    thr = 10.0 * result.final_grad_norm ** (1.0 / 3.0) if snap_tol == "auto" else float(snap_tol)
    snapped = snap_rep(limit, thr)
    # kept absolute: the snapped residue is left by a flow that stops at an
    # absolute grad_tol, so a limit that should be 0 has no scale of its own
    scale = 1.0 + limit.norm() ** 2
    if energy(snapped, zero_alpha) <= max(10.0 * result.final_energy, 1e-4 * scale ** 2):
        return snapped, result
    return limit, result


@dataclass
class LagrangianReport:
    related: bool
    p1: Representation
    p2: Representation
    grad1: float
    grad2: float


def lagrangian_check(x1: Representation, x2: Representation, iso_tol: float = 1e-6,
                     seed: int = 0) -> LagrangianReport:
    """Compare the affine projections of x1 and x2 inside the padded space
    whose dimensions are the sum; the first factor occupies the leading block."""
    if x1.quiver.edges != x2.quiver.edges:
        raise ValueError("lagrangian check needs a common quiver")
    if not (np.isfinite(iso_tol) and iso_tol > 0):
        raise ValueError(f"iso_tol must be finite and positive, got {iso_tol!r}")
    q = x1.quiver
    p1, r1 = affine_project(x1, snap_tol="auto")
    p2, r2 = affine_project(x2, snap_tol="auto")
    big1 = direct_sum(p1, Representation.zero(q, x2.dims))
    big2 = direct_sum(Representation.zero(q, x1.dims), p2)
    ok, _ = is_isomorphic(big1, big2, seed=seed, tol=iso_tol)
    return LagrangianReport(related=ok, p1=p1, p2=p2,
                            grad1=r1.final_grad_norm, grad2=r2.final_grad_norm)


# ---------------------------------------------------------------------------
# handsaw quivers


def _handsaw_tables(q: Quiver):
    roles = handsaw_roles(q)
    b1, b2 = {}, {}
    a_edges: dict[int, list[tuple[int, int]]] = {}
    b_edges: dict[int, list[tuple[int, int]]] = {}
    for e, role in enumerate(roles):
        if role is None:
            continue
        kind, kk, j = role
        if kind == "B1":
            b1[kk] = e
        elif kind == "B2":
            b2[kk] = e
        elif kind == "a":
            a_edges.setdefault(kk, []).append((j, e))
        else:
            b_edges.setdefault(kk, []).append((j, e))
    if not b2:
        raise ValueError("not a handsaw quiver: no B2 loops found")
    n = max(b2) + 1
    if sorted(b2) != list(range(1, n)):
        raise ValueError("not a handsaw quiver: B2 loops must cover 1..n-1")
    if sorted(b1) != list(range(1, n - 1)):
        raise ValueError("not a handsaw quiver: B1 chain incomplete")
    return n, b1, b2, a_edges, b_edges


def handsaw_constraint(x: Representation) -> list[np.ndarray]:
    """The chain-shifted moment expression [B1,B2] + sum a_{k+1} b_{k+1},
    one matrix per chain slot; empty for n = 2.

    Works in either chain orientation: on a reversed quiver the slot lives in
    the opposite Hom space and evaluates to minus the conjugate transpose of
    the forward expression, so the zero set is matched.
    """
    q = x.quiver
    n, b1, b2, a_edges, b_edges = _handsaw_tables(q)
    # B1_1 leaves the B2_1 loop's vertex on the forward chain, enters it reversed
    reversed_chain = bool(b1) and q.head(b1[1]) == q.tail(b2[1])
    out = []
    for kk in range(1, n - 1):
        B1 = x.mats[b1[kk]]
        if reversed_chain:
            slot = B1 @ x.mats[b2[kk + 1]] - x.mats[b2[kk]] @ B1
        else:
            slot = B1 @ x.mats[b2[kk]] - x.mats[b2[kk + 1]] @ B1
        for j, e in a_edges.get(kk + 1, []):
            bs = [ee for jj, ee in b_edges.get(kk + 1, []) if jj == j]
            if not bs:
                raise ValueError(f"handsaw pairing incomplete at index {kk + 1}^{j}")
            if reversed_chain:
                slot = slot + x.mats[bs[0]] @ x.mats[e]
            else:
                slot = slot + x.mats[e] @ x.mats[bs[0]]
        out.append(slot)
    return out


def handsaw_adjoint(x: Representation) -> Representation:
    """Reverse the quiver and take per-edge adjoints, negating the b-role
    maps.  The sign is keyed to the stored role, so applying the transform
    twice restores the representation exactly while each single application
    preserves the handsaw moment-map equation."""
    q = x.quiver
    roles = handsaw_roles(q)
    if all(r is None for r in roles):
        raise ValueError("not a handsaw quiver: no role labels")
    mats = []
    for e in range(q.nedges):
        m = x.mats[e].conj().T
        if roles[e] is not None and roles[e][0] == "b":
            m = -m
        mats.append(m)
    return Representation(reverse_quiver(q), dict(x.dims), mats)


def handsaw_hecke_check(x1: Representation, x2: Representation, k: str,
                        seed: int = 0, tol: float = 1e-9):
    """Surjective-intertwiner membership for handsaw data, implemented by the
    adjoint reduction: run the injective test on the reversed adjoints and
    transport the result back.  x1 has the smaller dimensions; the returned
    blocks map the x2 spaces onto the x1 spaces."""
    y1 = handsaw_adjoint(x1)
    y2 = handsaw_adjoint(x2)
    std = _pinned_membership(y1, y2, k, seed, tol)
    if std is None:
        return None
    blocks = {v: b.conj().T for v, b in std.blocks.items()}
    # a block is surjective iff its adjoint, the block found above, is injective
    return Intertwiner(blocks=blocks, residual=_intertwine_residual(x2, x1, blocks),
                       space_dim=std.space_dim, surjective=std.injective)
