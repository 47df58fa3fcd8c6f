"""Critical-point analysis: block classification, Hessian spectra, slices.

At a critical point the Hermitian element i(mu - alpha) is block scalar; its
per-vertex eigenspaces split the representation into sub-blocks whose
eigenvalue equals the slope of their dimension vector.  The Hessian acts on a
Hom^1 block mapping the slope-s block into the slope-t block with eigenvalue
t - s, so the negative directions point from larger into smaller slope.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quiver import canonical_stability
from .rep import (
    Representation,
    add_tangent,
    d_moment_complex,
    edge_shapes,
    grad_energy,
    hessian_matrix,
    inf_action_adjoint,
    mats_norm,
    moment_complex,
    moment_minus_alpha,
    mult_i,
    ravel_real,
    slope_float,
    unravel_real,
)


@dataclass(frozen=True)
class ClassifyTols:
    cluster_tol: float = 1e-6
    block_tol: float = 1e-8
    rank_tol: float = 1e-9
    grad_tol: float = 1e-8
    grad_factor: float = 10.0

    def __post_init__(self):
        # a NaN cluster gap splits every block and a nonpositive rank_tol falls
        # back to a fixed floor, so both would be misreported further on
        for name in ("cluster_tol", "block_tol", "rank_tol", "grad_tol", "grad_factor"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")


@dataclass
class CriticalProfile:
    """Eigenvalue clusters of i(mu - alpha) with their block data.

    ``eigenvalues`` is increasing; ``blocks`` matches it; ``critical_type``
    lists the same blocks by decreasing slope.  ``projectors[v]`` stacks one
    orthonormal column basis per cluster for vertex v.
    """

    eigenvalues: list[float]
    blocks: list[dict[str, int]]
    projectors: list[dict[str, np.ndarray]]
    critical_type: list[dict[str, int]]
    offdiag_residual: float
    grad_norm: float
    neg_spectrum: list[tuple[float, int]] | None = None
    neg_slice_dim: int | None = None


def _cluster(values: np.ndarray, gap: float) -> list[np.ndarray]:
    """Single-linkage clustering of sorted reals with the given gap."""
    order = np.argsort(values)
    groups: list[list[int]] = []
    for idx in order:
        if groups and values[idx] - values[groups[-1][-1]] <= gap:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return [np.array(g, dtype=int) for g in groups]


def classify_critical(x: Representation, alpha, tols: ClassifyTols | None = None) -> CriticalProfile:
    """Split a numerically critical point into its eigenvalue blocks."""
    tols = tols or ClassifyTols()
    with np.errstate(over="ignore", invalid="ignore"):
        g = mats_norm(grad_energy(x, alpha))
    bound = tols.grad_factor * tols.grad_tol
    # written so that a NaN gradient norm is rejected too
    if not g < bound:
        raise ValueError(f"not critical: gradient norm {g:.3e} exceeds {bound:.3e}")
    q = x.quiver
    herm = []
    for u in moment_minus_alpha(x, alpha):
        m = 1j * u
        herm.append((m + m.conj().T) / 2.0)
    vals: list[float] = []
    owners: list[tuple[int, int]] = []  # (vertex index, column)
    vecs = []
    for vi, m in enumerate(herm):
        if m.shape[0] == 0:
            vecs.append(np.zeros((0, 0)))
            continue
        w, v = np.linalg.eigh(m)
        vecs.append(v)
        for col, lam in enumerate(w):
            vals.append(float(lam))
            owners.append((vi, col))
    flat = np.array(vals)
    groups = _cluster(flat, tols.cluster_tol) if len(flat) else []

    eigenvalues = []
    blocks = []
    projectors = []
    for grp in groups:
        lam = float(np.mean(flat[grp]))
        blk = {v: 0 for v in q.vertices}
        cols: dict[int, list[int]] = {}
        for idx in grp:
            vi, col = owners[idx]
            blk[q.vertices[vi]] += 1
            cols.setdefault(vi, []).append(col)
        proj = {}
        for vi, v in enumerate(q.vertices):
            cs = sorted(cols.get(vi, []))
            proj[v] = vecs[vi][:, cs] if x.dims[v] else np.zeros((0, 0))
        eigenvalues.append(lam)
        blocks.append(blk)
        projectors.append(proj)

    offdiag = 0.0
    for e in range(q.nedges):
        h, t = q.head(e), q.tail(e)
        for j in range(len(groups)):
            for k in range(len(groups)):
                if j == k:
                    continue
                piece = projectors[k][h].conj().T @ x.mats[e] @ projectors[j][t]
                offdiag += float(np.sum(np.abs(piece) ** 2))
    offdiag = float(np.sqrt(offdiag))
    if offdiag > tols.block_tol:
        raise ValueError(f"block structure violated: off-diagonal residual {offdiag:.3e}")

    for lam, blk in zip(eigenvalues, blocks):
        s = slope_float(alpha, blk)
        if abs(lam - s) >= tols.cluster_tol:
            raise ValueError(
                f"eigenvalue {lam:.6e} does not match block slope {s:.6e}"
            )

    order = sorted(range(len(blocks)),
                   key=lambda j: -slope_float(alpha, blocks[j]))
    return CriticalProfile(
        eigenvalues=eigenvalues,
        blocks=blocks,
        projectors=projectors,
        critical_type=[blocks[j] for j in order],
        offdiag_residual=offdiag,
        grad_norm=g,
    )


# ---------------------------------------------------------------------------
# Hessian spectrum


def hessian_spectrum(x: Representation, alpha, tols: ClassifyTols | None = None):
    """Eigenvalues of the energy Hessian with multiplicities and eigenvectors.

    Negative eigenvectors are verified to satisfy the critical-point kernel
    conditions (both compact adjoints vanish) and to live in the Hom^1 blocks
    predicted by the profile.
    """
    tols = tols or ClassifyTols()
    profile = classify_critical(x, alpha, tols)
    H = hessian_matrix(x, alpha)
    sym_defect = float(np.max(np.abs(H - H.T))) if H.size else 0.0
    w, V = np.linalg.eigh((H + H.T) / 2.0)
    shapes = edge_shapes(x.quiver, x.dims)
    groups = _cluster(w, tols.cluster_tol) if len(w) else []
    spectrum = []
    for grp in groups:
        lam = float(np.mean(w[grp]))
        tangents = [unravel_real(V[:, i], shapes) for i in grp]
        if lam < -tols.cluster_tol:
            _check_negative_vectors(x, alpha, profile, lam, tangents, tols)
        spectrum.append((lam, len(grp), tangents))
    profile.neg_spectrum = [(lam, mult) for lam, mult, _ in spectrum
                            if lam < -tols.cluster_tol]
    return spectrum, sym_defect, profile


def _check_negative_vectors(x, alpha, profile: CriticalProfile, lam, tangents, tols):
    q = x.quiver
    for X in tangents:
        nX = mats_norm(X)
        a1 = mats_norm(inf_action_adjoint(x, X, flavor="compact"))
        a2 = mats_norm(inf_action_adjoint(x, mult_i(X), flavor="compact"))
        if max(a1, a2) > 1e-8 * (1.0 + nX) * max(1.0, x.norm()):
            raise ValueError(
                f"negative eigenvector fails kernel conditions ({max(a1, a2):.3e})"
            )
        kept = [np.zeros_like(m) for m in X]
        lams = profile.eigenvalues
        for j in range(len(lams)):
            for k in range(len(lams)):
                if abs((lams[k] - lams[j]) - lam) >= tols.cluster_tol:
                    continue
                for e in range(q.nedges):
                    Qh = profile.projectors[k][q.head(e)]
                    Qt = profile.projectors[j][q.tail(e)]
                    kept[e] += Qh @ (Qh.conj().T @ X[e] @ Qt) @ Qt.conj().T
        res = mats_norm([a - b for a, b in zip(X, kept)])
        if res > 1e-8 * (1.0 + nX):
            raise ValueError(
                f"negative eigenvector leaks out of its predicted blocks ({res:.3e})"
            )


# ---------------------------------------------------------------------------
# negative slices


def negative_slice_basis(x: Representation, alpha, tols: ClassifyTols | None = None):
    """Orthonormal basis of the negative slice at a two-block critical point.

    The point must have the split form (x1, 0) with x1 the block containing
    the distinguished vertex and zero complement, and alpha must be the
    canonical parameter.  The slice is the Hom^1 space from the complement
    into the x1 block, cut by the full-flavour adjoint kernel and, on doubled
    quivers, by the complex moment-map derivative.
    """
    tols = tols or ClassifyTols()
    q = x.quiver
    if q.infinity is None:
        raise ValueError("negative slice needs a distinguished vertex")
    want = canonical_stability(q, x.dims)
    got = {v: alpha[v] for v in alpha}
    if any(float(got[v]) != float(want[v]) for v in want):
        raise ValueError("negative slice requires the canonical stability parameter")
    profile = classify_critical(x, alpha, tols)
    inf_block = [j for j, blk in enumerate(profile.blocks) if blk[q.infinity] == 1]
    if len(inf_block) != 1:
        raise ValueError("not a C0 critical point: no unique block at infinity")
    j1 = inf_block[0]
    if len(profile.blocks) == 1:
        profile.neg_slice_dim = 0
        return [], profile
    P1 = profile.projectors[j1]
    P2 = {}
    for vi, v in enumerate(q.vertices):
        others = [profile.projectors[j][v] for j in range(len(profile.blocks)) if j != j1]
        others = [p for p in others if p.shape[1] > 0]
        P2[v] = np.concatenate(others, axis=1) if others else np.zeros((x.dims[v], 0))

    # the complement representation must vanish
    leak = 0.0
    for e in range(q.nedges):
        h, t = q.head(e), q.tail(e)
        piece = P2[h].conj().T @ x.mats[e] @ P2[t]
        leak += float(np.sum(np.abs(piece) ** 2))
    if np.sqrt(leak) > tols.block_tol * (1.0 + x.norm()):
        raise ValueError("not a C0 critical point: complement block is nonzero")

    coeff_shapes = []
    for e in range(q.nedges):
        coeff_shapes.append((P1[q.head(e)].shape[1], P2[q.tail(e)].shape[1]))
    m = 2 * sum(s[0] * s[1] for s in coeff_shapes)
    if m == 0:
        profile.neg_slice_dim = 0
        return [], profile

    def to_tangent(cvec):
        C = unravel_real(cvec, coeff_shapes)
        return [P1[q.head(e)] @ C[e] @ P2[q.tail(e)].conj().T for e in range(q.nedges)]

    def constraints(delta):
        rows = [ravel_real(inf_action_adjoint(x, delta, flavor="full"))]
        if q.pairing is not None:
            rows.append(ravel_real(d_moment_complex(x, delta)))
        return np.concatenate(rows)

    probe = constraints(to_tangent(np.zeros(m)))
    A = np.zeros((len(probe), m))
    unit = np.zeros(m)
    for col in range(m):
        unit[col] = 1.0
        A[:, col] = constraints(to_tangent(unit))
        unit[col] = 0.0
    if A.size:
        _, s, Vt = np.linalg.svd(A)
        smax = s[0] if len(s) else 0.0
        null = [Vt[i] for i in range(Vt.shape[0])
                if i >= len(s) or s[i] <= max(tols.rank_tol * max(smax, 1.0), 1e-12)]
    else:
        null = [np.eye(m)[i] for i in range(m)]
    basis = [to_tangent(vec) for vec in null]
    for delta in basis:
        drift = mats_norm(moment_complex(add_tangent(x, delta))) if q.pairing else 0.0
        if drift > 1e-9 * (1.0 + x.norm()) ** 2:
            raise ValueError(f"slice vector leaves the constraint set ({drift:.3e})")
    profile.neg_slice_dim = len(basis)
    return basis, profile


# ---------------------------------------------------------------------------
# incoming-image strata


def stratum_codim(x: Representation, k: str, rank_tol: float = 1e-9) -> int:
    """Codimension at vertex k of the span of all incoming edge images."""
    q = x.quiver
    if k not in q.vertices:
        raise ValueError(f"unknown vertex {k!r}")
    if k == q.infinity:
        raise ValueError("stratum vertex must be ordinary")
    incoming = [x.mats[e] for e in q.edges_into(k)]
    dk = x.dims[k]
    cols = [m for m in incoming if m.shape[1] > 0]
    if not cols or dk == 0:
        return dk
    M = np.concatenate(cols, axis=1)
    s = np.linalg.svd(M, compute_uv=False)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > rank_tol * max(smax, 1.0))) if smax > 0 else 0
    return dk - rank

