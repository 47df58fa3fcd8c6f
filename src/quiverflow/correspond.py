"""Intertwiners and the correspondences built from them.

Covers module homomorphism spaces, isomorphism testing by invertible
intertwiner, Hecke membership with the distinguished block pinned to 1, the
two constructive bridges between Hecke data and negative-slice flow lines,
the affine projection (zero-weight flow), the Lagrangian comparison, and the
handsaw reduction by reversal plus adjoints.
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
    inf_action_adjoint,
    d_moment_complex,
    ravel_real,
    rep_distance,
    group_act,
)
from .flow import FlowOptions, flow


@dataclass
class Intertwiner:
    """Per-vertex blocks of a module homomorphism x1 -> x2."""

    blocks: dict[str, np.ndarray]
    residual: float
    space_dim: int
    normalized: bool = False
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


def _full_col_rank(m: np.ndarray, tol: float = 1e-9) -> bool:
    if m.shape[1] == 0:
        return True
    if m.shape[0] < m.shape[1]:
        return False
    s = np.linalg.svd(m, compute_uv=False)
    return bool(s[-1] > tol * max(s[0], 1.0))


def _full_row_rank(m: np.ndarray, tol: float = 1e-9) -> bool:
    return _full_col_rank(m.conj().T, tol)


def _xi_unknown_layout(q: Quiver, d1, d2, skip: str | None):
    layout = []
    pos = 0
    for v in q.vertices:
        if v == skip:
            continue
        n = d2[v] * d1[v]
        layout.append((v, pos, (d2[v], d1[v])))
        pos += n
    return layout, pos


def _xi_from_vec(layout, vec, d1, d2, pinned: str | None):
    blocks = {}
    for v, pos, shape in layout:
        blocks[v] = vec[pos:pos + shape[0] * shape[1]].reshape(shape)
    if pinned is not None:
        blocks[pinned] = np.eye(d2[pinned], d1[pinned], dtype=complex)
    return blocks


def _intertwine_residual(q: Quiver, x1: Representation, x2: Representation, blocks) -> float:
    total = 0.0
    for e in range(q.nedges):
        h, t = q.head(e), q.tail(e)
        r = blocks[h] @ x1.mats[e] - x2.mats[e] @ blocks[t]
        total += float(np.sum(np.abs(r) ** 2))
    return float(np.sqrt(total))


def _condition_matrix(x1: Representation, x2: Representation, pinned: str | None):
    """Complex matrix of the intertwining conditions in the unknown blocks,
    plus the constant column coming from a pinned identity block."""
    q = x1.quiver
    d1, d2 = x1.dims, x2.dims
    layout, total = _xi_unknown_layout(q, d1, d2, pinned)
    nrows = sum(d2[q.head(e)] * d1[q.tail(e)] for e in range(q.nedges))
    M = np.zeros((nrows, total), dtype=complex)
    vec = np.zeros(total, dtype=complex)

    def conditions(blocks):
        rows = []
        for e in range(q.nedges):
            h, t = q.head(e), q.tail(e)
            bh = blocks.get(h)
            bt = blocks.get(t)
            r = np.zeros((d2[h], d1[t]), dtype=complex)
            if bh is not None:
                r = r + bh @ x1.mats[e]
            if bt is not None:
                r = r - x2.mats[e] @ bt
            rows.append(r.ravel())
        return np.concatenate(rows) if rows else np.zeros(0, dtype=complex)

    zero_blocks = {v: np.zeros((d2[v], d1[v]), dtype=complex) for v in x1.quiver.vertices}
    if pinned is not None:
        base = dict(zero_blocks)
        base[pinned] = np.eye(d2[pinned], d1[pinned], dtype=complex)
        rhs = conditions(base)
    else:
        rhs = np.zeros(nrows, dtype=complex)
    for col in range(total):
        vec[col] = 1.0
        blocks = _xi_from_vec(layout, vec, d1, d2, None)
        full = dict(zero_blocks)
        full.update(blocks)
        if pinned is not None:
            full[pinned] = np.zeros((d2[pinned], d1[pinned]), dtype=complex)
        M[:, col] = conditions(full)
        vec[col] = 0.0
    return M, rhs, layout, total


def intertwiner_space(x1: Representation, x2: Representation, rank_tol: float = 1e-9):
    """Orthonormal basis of Hom(x1, x2); returns a list of per-vertex dicts."""
    if x1.quiver.edges != x2.quiver.edges:
        raise ValueError("intertwiners need a common quiver")
    M, _, layout, total = _condition_matrix(x1, x2, pinned=None)
    if total == 0:
        return []
    if M.shape[0] == 0:
        null = np.eye(total, dtype=complex)
    else:
        _, s, Vh = np.linalg.svd(M)
        smax = s[0] if len(s) else 0.0
        rank = int(np.sum(s > max(rank_tol * max(smax, 1.0), 1e-13)))
        null = Vh[rank:].conj().T
    basis = []
    for i in range(null.shape[1]):
        basis.append(_xi_from_vec(layout, null[:, i], x1.dims, x2.dims, None))
    return basis


def is_isomorphic(x1: Representation, x2: Representation, seed: int = 0,
                  trials: int = 8, tol: float = 1e-8, strict: bool = False):
    """Search for an invertible intertwiner; returns (verdict, witness or None).

    The witness is a per-vertex group element with g . x1 = x2 up to ``tol``.
    Strict mode additionally requires dim Hom(x1,x2) = dim Hom(x1,x1), which
    separates a semisimple object from a nontrivial extension of the same
    graded pieces.
    """
    if x1.quiver.edges != x2.quiver.edges or x1.dims != x2.dims:
        return False, None
    basis = intertwiner_space(x1, x2)
    if not basis:
        return False, None
    if strict:
        if len(basis) != len(intertwiner_space(x1, x1)):
            return False, None
    rng = np.random.default_rng(seed)
    q = x1.quiver
    candidates = []
    if len(basis) == 1:
        candidates.append(basis[0])
    for _ in range(trials):
        c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        cand = {v: sum(c[i] * basis[i][v] for i in range(len(basis)))
                for v in q.vertices}
        candidates.append(cand)
    for cand in candidates:
        ok = True
        for v in q.vertices:
            m = cand[v]
            if m.shape[0] != m.shape[1]:
                ok = False
                break
            if m.size == 0:
                continue
            s = np.linalg.svd(m, compute_uv=False)
            if s[-1] <= 0.0 or s[0] / s[-1] >= 1e12:
                ok = False
                break
        if not ok:
            continue
        g = [cand[v] for v in q.vertices]
        moved = group_act(g, x1)
        if rep_distance(moved, x2) <= tol * (1.0 + x2.norm()):
            return True, g
    return False, None


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
    if x2.dims != {v: x1.dims[v] + (1 if v == k else 0) for v in q.vertices}:
        raise ValueError("dimension vectors must differ by one at the given vertex")
    M, rhs, layout, total = _condition_matrix(x1, x2, pinned=q.infinity)
    scale = 1.0 + x1.norm() + x2.norm()
    if total == 0:
        residual = float(np.linalg.norm(rhs))
        if residual > tol * scale:
            return None
        blocks = _xi_from_vec(layout, np.zeros(0, dtype=complex),
                              x1.dims, x2.dims, q.infinity)
        inj = all(_full_col_rank(blocks[v]) for v in q.vertices)
        return Intertwiner(blocks=blocks, residual=residual, space_dim=0,
                           normalized=True, injective=inj)
    part, *_ = np.linalg.lstsq(M, -rhs, rcond=None)
    residual = float(np.linalg.norm(M @ part + rhs))
    if residual > tol * scale:
        return None
    _, s, Vh = np.linalg.svd(M)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > max(1e-9 * max(smax, 1.0), 1e-13)))
    null = Vh[rank:].conj().T
    rng = np.random.default_rng(seed)
    tries = [part]
    for _ in range(8):
        if null.shape[1] == 0:
            break
        c = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1])
        tries.append(part + null @ c)
    chosen = None
    injective = False
    for vec in tries:
        blocks = _xi_from_vec(layout, vec, x1.dims, x2.dims, q.infinity)
        if all(_full_col_rank(blocks[v]) for v in q.vertices):
            chosen, injective = blocks, True
            break
    if chosen is None:
        chosen = _xi_from_vec(layout, part, x1.dims, x2.dims, q.infinity)
    residual = _intertwine_residual(q, x1, x2, chosen)
    return Intertwiner(blocks=chosen, residual=residual,
                       space_dim=int(null.shape[1]), normalized=True,
                       injective=injective)


def flowline_to_hecke(pair: FlowLinePair, k: str, tol: float = 1e-8) -> Intertwiner:
    """Restrict the pair's group element to the smaller representation and
    rescale so the distinguished block is 1."""
    x1, x2 = pair.x1, pair.x2
    q = x1.quiver
    if q.infinity is None:
        raise ValueError("hecke restriction needs a distinguished vertex")
    vidx = {v: i for i, v in enumerate(q.vertices)}
    blocks = {v: pair.g[vidx[v]][:, : x1.dims[v]].copy() for v in q.vertices}
    pin = blocks[q.infinity]
    if pin.size == 0 or abs(pin[0, 0]) < 1e-12:
        raise ValueError("degenerate restriction: vanishing block at infinity")
    c = pin[0, 0]
    blocks = {v: b / c for v, b in blocks.items()}
    residual = _intertwine_residual(q, x1, x2, blocks)
    if residual > tol * (1.0 + x1.norm() + x2.norm()):
        raise ValueError(f"restricted element fails to intertwine ({residual:.3e})")
    inj = all(_full_col_rank(blocks[v]) for v in q.vertices)
    return Intertwiner(blocks=blocks, residual=residual, space_dim=0,
                       normalized=True, injective=inj)


def hecke_to_flowline(x1: Representation, x2: Representation, xi: Intertwiner,
                      k: str, tol: float = 1e-8) -> FlowLinePair:
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
    res = _intertwine_residual(q, x1, x2, blocks)
    if res > tol * (1.0 + x1.norm() + x2.norm()):
        raise ValueError(f"intertwiner residual too large ({res:.3e})")
    for v in q.vertices:
        if not _full_col_rank(blocks[v]):
            raise ValueError("intertwiner is not injective")
    if x2.dims != {v: x1.dims[v] + (1 if v == k else 0) for v in q.vertices}:
        raise ValueError("dimension vectors must differ by one at the given vertex")

    d1, d2 = x1.dims, x2.dims
    # unit vector spanning the complement of the image at the modified vertex
    xk = blocks[k]
    if xk.shape[1] == 0:
        U = np.eye(d2[k], dtype=complex)
        w = U[:, 0]
    else:
        U, s, _ = np.linalg.svd(xk)
        w = U[:, -1]
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
        if A.shape[0]:
            v_corr, *_ = np.linalg.lstsq(A, b, rcond=None)
        else:
            v_corr = np.zeros(d1[k], dtype=complex)
        for e in out_edges:
            cols[e] = cols[e] - x1.mats[e] @ v_corr
    else:
        v_corr = np.zeros(d1[k], dtype=complex)
    for e in out_edges:
        h = q.head(e)
        delta[e][: d1[h], line] = cols[e]

    vidx = {v: i for i, v in enumerate(q.vertices)}
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

    slice_rows = [ravel_real(inf_action_adjoint(x1_hat, delta, flavor="full"))]
    if q.pairing is not None:
        slice_rows.append(ravel_real(d_moment_complex(x1_hat, delta)))
    slice_residual = float(np.linalg.norm(np.concatenate(slice_rows)))
    if action_residual > 1e-6 * (1.0 + x2.norm()):
        raise ValueError(f"flow-line reconstruction failed ({action_residual:.3e})")
    return FlowLinePair(x1=x1, x2=x2, delta=delta, g=g,
                        action_residual=action_residual,
                        slice_residual=slice_residual)


# ---------------------------------------------------------------------------
# affine projection and the Lagrangian comparison


# radial decay toward a non-closed-orbit limit is only polynomial in time, so
# the zero-weight flow gets a large step cap (the accuracy control shrinks the
# step whenever the field is active) and a long horizon
AFFINE_FLOW_DEFAULTS = FlowOptions(dt_init=64.0, max_time=5e5, max_steps=1_000_000)


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


def lagrangian_check(x1: Representation, x2: Representation,
                     opts: FlowOptions | None = None, iso_tol: float = 1e-6,
                     seed: int = 0) -> LagrangianReport:
    """Compare the affine projections of x1 and x2 inside the padded space
    whose dimensions are the sum; the first factor occupies the leading block."""
    if x1.quiver.edges != x2.quiver.edges:
        raise ValueError("lagrangian check needs a common quiver")
    if not (np.isfinite(iso_tol) and iso_tol > 0):
        raise ValueError(f"iso_tol must be finite and positive, got {iso_tol!r}")
    q = x1.quiver
    p1, r1 = affine_project(x1, opts, snap_tol="auto")
    p2, r2 = affine_project(x2, opts, snap_tol="auto")
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
    reversed_chain = bool(b1) and q.tail(b1[1]) == "V2"
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
    q = x1.quiver
    blocks = {v: std.blocks[v].conj().T for v in q.vertices}
    residual = _intertwine_residual(q, x2, x1, blocks)
    surj = all(_full_row_rank(blocks[v]) for v in q.vertices)
    return Intertwiner(blocks=blocks, residual=residual, space_dim=std.space_dim,
                       normalized=True, surjective=surj)
