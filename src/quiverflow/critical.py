"""Critical-point analysis: block classification, Hessian spectra, slices.

At a critical point the Hermitian element H = i(mu - alpha) of ``rep`` is
block scalar; its per-vertex eigenspaces split the representation into
sub-blocks whose eigenvalue equals the slope of their dimension vector.  The
Hessian acts on a Hom^1 block mapping the slope-s block into the slope-t
block with eigenvalue t - s, so the negative directions point from larger
into smaller slope.

The blocks are kept in one layout: at each vertex the unitary eigenbasis of
H, columns in increasing eigenvalue, and the block label of each column; a
block's columns are contiguous.  Every block question is a boolean mask on
an edge matrix read in the eigenbases at its two ends, B_h^* A B_t; as the
bases are unitary, the norm outside the mask is the distance of A from the
maps the mask allows.

Under (x, alpha) -> (c x, c^2 alpha) a tolerance must scale with the degree of
what it compares: x has degree 1; mu, alpha and the eigenvalues of H and of
the Hessian have degree 2; the gradient has degree 3.  So every eigenvalue
decision (clustering, slope match, sign, leak mask) uses the gap
_CLUSTER_TOL * max(|x|^2, max |alpha|).  The off-block residual of x is gated
at block_tol max(|x|, sqrt(max |alpha|)): on a limit that decays to 0 the
slowest edge sets both |x| and the residual, so |x| alone cannot gate it.
The complement of a negative slice's base point is gated at block_tol |x|,
its null space is cut at _RANK_TOL, and the gradient gate is
_GRAD_GATE max(1, |x|)^3.  A negative Hessian eigenvector X may have
|rho*_x X| up to 1e-8 |X| |x| and leak up to 1e-8 |X| out of its blocks.
``_outside`` and the negative-vector checks take tangents with a leading batch
axis, one batch per eigenvalue cluster of the Hessian.

Hessian blocks
--------------
The stabilizer of a critical point contains a torus, one U(1) per block of
H, and the energy is invariant under it, so the Hessian commutes with it
(Kirwan, Cohomology of Quotients in Symplectic and Algebraic Geometry, 1984).
In the eigenbasis coordinates x' = B_h^* A B_t the entry (i, j) of an edge
has torus weight e_s - e_t, where s and t label row i at the head and column
j at the tail.  The Hessian is only real-linear and may send a weight to its
negative, so it is block-diagonal over unordered label pairs {s, t}; the
pairs with s = t are blocks of their own.  In these coordinates the Hessian
is D + G^T G: [H, X'] is diagonal with entries D = lambda_h,i - lambda_t,j
from diag(B^* H B), and rho_x(S) has the quadratic form |S|^2 with S the
Hermitian part of rho*_x'(X'), so G is the matrix of X' -> S.
``hessian_spectrum`` runs one ``eigh`` on D + G^T G per pair and maps the
eigenvectors back by B_h X' B_t^*.  The split is exact when x' has no entry
between different labels, and classify's off-block residual r is what breaks
it: a unit coordinate has |S| <= 2|x|, of which at most 2r comes from the
off-block part of x', so each cross-block entry of G^T G that the split drops
is at most 8|x|r + 4r^2.  The second value of ``hessian_spectrum`` is that
bound plus n eps max(|x|^2, max |alpha|), the roundoff of n coordinates at
degree 2; the tests hold the dense Hessian, read in these coordinates, to it.
G is assembled edge by edge, since an edge's coordinates reach only its two
ends.  The doubled triangle at n = 432 splits into three blocks of 144.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quiver import canonical_stability
from .rep import (
    Representation,
    _adj,
    _assemble,
    _hermitian_moment,
    _paired_edges,
    _view,
    d_moment_complex,
    edge_shapes,
    grad_energy,
    inf_action_adjoint,
    mats_norm,
    matrix_of,
    null_space,
    numerical_rank,
    slope_float,
    unravel_real,
)


# the fixed gates of the module docstring
_CLUSTER_TOL = 1e-6
_RANK_TOL = 1e-9
_GRAD_GATE = 1e-7
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ClassifyTols:
    block_tol: float = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.block_tol) and self.block_tol > 0):
            raise ValueError(f"block_tol must be finite and positive, got {self.block_tol!r}")


@dataclass
class CriticalProfile:
    """Eigenvalue clusters of H = i(mu - alpha) with their block data.

    ``eigenvalues`` is increasing; ``blocks`` matches it; ``critical_type``
    lists the same blocks by decreasing slope.  ``bases[i]`` is the unitary
    eigenbasis at the i-th vertex, columns in increasing eigenvalue, and
    ``labels[i]`` gives the index into ``blocks`` of each of its columns.
    """

    eigenvalues: list[float]
    blocks: list[dict[str, int]]
    bases: list[np.ndarray]
    labels: list[np.ndarray]
    critical_type: list[dict[str, int]]
    offdiag_residual: float
    grad_norm: float
    neg_spectrum: list[tuple[float, int]] | None = None
    neg_slice_dim: int | None = None


def _cluster(values: np.ndarray, gap: float) -> list[np.ndarray]:
    """Single-linkage clustering of sorted reals with the given gap."""
    order = np.argsort(values)
    cuts = np.flatnonzero(~(np.diff(values[order]) <= gap)) + 1
    return np.split(order, cuts) if len(order) else []


def _eigen_gap(x: Representation, alpha) -> float:
    """The degree-2 gap of the module docstring."""
    with np.errstate(over="ignore"):
        n = x.norm()
    # a float product overflows to inf where a power would raise
    return _CLUSTER_TOL * max([n * n] + [abs(float(a)) for a in alpha.values()])


def _outside(q, bases, labels, mats, inside):
    """Norm of the entries of the edge matrices, read in the eigenbases at
    their two ends, that ``inside(head labels, tail labels)`` does not keep;
    one norm per index of the matrices' leading batch axes."""
    total = 0.0
    for (t, h), m in zip(q.ends, mats):
        piece = bases[h].conj().T @ m @ bases[t]
        keep = inside(labels[h][:, None], labels[t][None, :])
        total = total + np.sum(np.abs(piece[..., ~keep]) ** 2, axis=-1)
    return np.sqrt(total)


def classify_critical(x: Representation, alpha, tols: ClassifyTols | None = None) -> CriticalProfile:
    """Split a numerically critical point into its eigenvalue blocks."""
    tols = tols or ClassifyTols()
    with np.errstate(over="ignore", invalid="ignore"):
        g = mats_norm(grad_energy(x, alpha))
        scale = max(1.0, x.norm())
    # the floor max(1, |x|) stays because ``flow`` stops at an absolute grad_tol
    # (x, alpha) -> (c x, c^2 alpha) scales the gradient by c^3; dividing by
    # the scale one factor at a time cannot overflow, and a NaN fails the test
    if not g / scale / scale / scale < _GRAD_GATE:
        raise ValueError(f"not critical: gradient norm {g:.3e} exceeds {_GRAD_GATE:.3e} * max(1, |x|)^3")
    q = x.quiver
    vals, bases = zip(*(np.linalg.eigh(h) for h in _hermitian_moment(x, alpha)))
    flat = np.concatenate(vals)
    gap = _eigen_gap(x, alpha)
    groups = _cluster(flat, gap)
    label = np.empty(len(flat), dtype=int)
    for j, grp in enumerate(groups):
        label[grp] = j
    labels = np.split(label, np.cumsum([len(w) for w in vals[:-1]]))
    eigenvalues = [float(np.mean(flat[grp])) for grp in groups]
    blocks = [{v: int(np.count_nonzero(lab == j)) for v, lab in zip(q.vertices, labels)}
              for j in range(len(groups))]

    offdiag = _outside(q, bases, labels, x.mats, np.equal)
    # gap / _CLUSTER_TOL is max(|x|^2, max |alpha|), so this is the degree-1
    # scale max(|x|, sqrt(max |alpha|)) of the module docstring
    if offdiag > tols.block_tol * np.sqrt(gap / _CLUSTER_TOL):
        raise ValueError(f"block structure violated: off-diagonal residual {offdiag:.3e}")

    for lam, blk in zip(eigenvalues, blocks):
        s = slope_float(alpha, blk)
        if abs(lam - s) > gap:
            raise ValueError(
                f"eigenvalue {lam:.6e} does not match block slope {s:.6e}"
            )

    order = sorted(range(len(blocks)),
                   key=lambda j: -slope_float(alpha, blocks[j]))
    return CriticalProfile(
        eigenvalues=eigenvalues,
        blocks=blocks,
        bases=list(bases),
        labels=labels,
        critical_type=[blocks[j] for j in order],
        offdiag_residual=offdiag,
        grad_norm=g,
    )


# ---------------------------------------------------------------------------
# Hessian spectrum


def hessian_spectrum(x: Representation, alpha, tols: ClassifyTols | None = None):
    """Eigenvalues of the energy Hessian with multiplicities and eigenvectors.

    Each eigenvalue cluster comes as (lambda, mult, tangents); a tangent is a
    per-edge list of views into the cluster's batch of back-transformed
    vectors.  The Hessian is diagonalised block by block in eigenbasis
    coordinates (module docstring, "Hessian blocks"); the second value bounds
    the cross-block entries that this drops.  Negative eigenvectors are
    verified to satisfy the critical-point kernel conditions (both compact
    adjoints vanish) and to live in the Hom^1 blocks predicted by the profile.
    """
    profile = classify_critical(x, alpha, tols)
    q, bases, labels = x.quiver, profile.bases, profile.labels
    xb = _view(x, [bases[h].conj().T @ m @ bases[t] for (t, h), m in zip(q.ends, x.mats)])
    lams = [np.sum(b.conj() * (h @ b), axis=0).real
            for b, h in zip(bases, _hermitian_moment(x, alpha))]
    shapes = edge_shapes(q, x.dims)
    # G edge by edge: one identity batch over all coordinates would multiply
    # every edge's matrices by all of them
    def herm_rho(e):
        return lambda X: [(r + _adj(r)) / 2.0
                          for r in _assemble(xb, [q.ends[e]], X, [_adj(xb.mats[e])])]
    G = np.hstack([matrix_of(herm_rho(e), [s]) for e, s in enumerate(shapes)] or [np.zeros((0, 0))])
    # each coordinate's [H, .] entry and unordered label pair, twice per edge: re and im
    nb = len(profile.blocks)
    keys = [np.minimum.outer(labels[h], labels[t]) * nb + np.maximum.outer(labels[h], labels[t])
            for t, h in q.ends]
    D = np.concatenate([np.tile((lams[h][:, None] - lams[t]).ravel(), 2) for t, h in q.ends] or [[]])
    pair = np.concatenate([np.tile(k.ravel(), 2) for k in keys] or [[]])
    # a block's eigenvectors take the columns of its coordinates
    w, V = np.empty(len(pair)), np.zeros((len(pair), len(pair)))
    for p in np.unique(pair):
        idx = np.flatnonzero(pair == p)
        Gb = G[:, idx]
        w[idx], V[np.ix_(idx, idx)] = np.linalg.eigh(Gb.T @ Gb + np.diag(D[idx]))
    batch = []
    for (t, h), X, k in zip(q.ends, unravel_real(V.T, shapes), keys):
        # only the columns of this edge's own pairs are nonzero on it
        mine = np.zeros(nb * nb, dtype=bool)
        mine[k] = True
        on = mine[pair]
        X[on] = bases[h] @ X[on] @ bases[t].conj().T
        batch.append(X)
    gap = _eigen_gap(x, alpha)
    r = profile.offdiag_residual
    cross_bound = float(8.0 * x.norm() * r + 4.0 * r * r + len(D) * _EPS * gap / _CLUSTER_TOL)
    spectrum = []
    for grp in _cluster(w, gap):
        lam = float(np.mean(w[grp]))
        vecs = [X[grp] for X in batch]
        if lam < -gap:
            _check_negative_vectors(x, profile, lam, vecs, gap)
        spectrum.append((lam, len(grp), [list(X) for X in zip(*vecs)]))
    profile.neg_spectrum = [(lam, mult) for lam, mult, _ in spectrum if lam < -gap]
    return spectrum, cross_bound, profile


def _batch_norm(mats):
    return np.sqrt(sum(np.sum(np.abs(m) ** 2, axis=(-2, -1)) for m in mats))


def _check_negative_vectors(x, profile: CriticalProfile, lam, X, gap):
    lams = np.array(profile.eigenvalues)
    nX = _batch_norm(X)
    # the compact adjoints at X and iX are (R - R*)/2 and i(R + R*)/2, R = rho*_x(X)
    R = inf_action_adjoint(x, X, flavor="full")
    ker = np.maximum(_batch_norm([r - _adj(r) for r in R]),
                     _batch_norm([r + _adj(r) for r in R])) / 2.0
    if np.any(ker > 1e-8 * nX * x.norm()):
        raise ValueError(f"negative eigenvector fails kernel conditions ({np.max(ker):.3e})")
    res = _outside(x.quiver, profile.bases, profile.labels, X,
                   lambda k, j: np.abs((lams[k] - lams[j]) - lam) < gap)
    if np.any(res > 1e-8 * nX):
        raise ValueError(f"negative eigenvector leaks out of its predicted blocks ({np.max(res):.3e})")


# ---------------------------------------------------------------------------
# negative slices


def slice_conditions(x: Representation, delta):
    """The conditions cutting the negative slice at x out of the tangent
    directions delta: the full-flavour adjoint kernel and, on doubled
    quivers, the complex moment-map derivative.  Batch-safe in delta."""
    rows = inf_action_adjoint(x, delta, flavor="full")
    if x.quiver.pairing is not None:
        rows += d_moment_complex(x, delta)
    return rows


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
    if set(alpha) != set(want) or any(float(alpha[v]) != float(want[v]) for v in want):
        raise ValueError("negative slice requires the canonical stability parameter")
    profile = classify_critical(x, alpha, tols)
    inf_block = [j for j, blk in enumerate(profile.blocks) if blk[q.infinity] == 1]
    if len(inf_block) != 1:
        raise ValueError("not a C0 critical point: no unique block at infinity")
    j1 = inf_block[0]
    if len(profile.blocks) == 1:
        profile.neg_slice_dim = 0
        return [], profile
    # the complement representation must vanish
    leak = _outside(q, profile.bases, profile.labels, x.mats,
                    lambda h, t: (h == j1) | (t == j1))
    if leak > tols.block_tol * x.norm():
        raise ValueError("not a C0 critical point: complement block is nonzero")

    P1 = [b[:, lab == j1] for b, lab in zip(profile.bases, profile.labels)]
    P2 = [b[:, lab != j1] for b, lab in zip(profile.bases, profile.labels)]
    coeff_shapes = [(P1[h].shape[1], P2[t].shape[1]) for t, h in q.ends]
    def to_tangent(C):
        return [P1[h] @ c @ P2[t].conj().T for (t, h), c in zip(q.ends, C)]

    A = matrix_of(lambda C: slice_conditions(x, to_tangent(C)), coeff_shapes)
    null = null_space(A, _RANK_TOL)
    deltas = to_tangent(unravel_real(null.T, coeff_shapes))
    if q.pairing is not None:
        # kept with its floor: each delta is a unit vector (orthonormal
        # coefficients, isometric to_tangent), so 1e-9 (|x| + |delta|)^2 is
        # already degree 2, as mu_C; mu_C runs on lists (``rep``, "Packed layout")
        ends, A, B = _paired_edges(q, [m + d for m, d in zip(x.mats, deltas)])
        drift = _batch_norm(_assemble(x, ends, A, B))
        if np.any(drift > 1e-9 * (1.0 + x.norm()) ** 2):
            raise ValueError(f"slice vector leaves the constraint set ({np.max(drift):.3e})")
    basis = [list(X) for X in zip(*deltas)]
    profile.neg_slice_dim = len(basis)
    return basis, profile


# ---------------------------------------------------------------------------
# incoming-image strata


def stratum_codim(x: Representation, k: str) -> int:
    """Codimension at vertex k of the span of all incoming edge images."""
    q = x.quiver
    if k not in q.vertices:
        raise ValueError(f"unknown vertex {k!r}")
    if k == q.infinity:
        raise ValueError("stratum vertex must be ordinary")
    dk = x.dims[k]
    # the empty leading block keeps the shape when no edge comes in
    M = np.hstack([np.zeros((dk, 0))] + [x.mats[e] for e in q.edges_into(k)])
    return dk - numerical_rank(np.linalg.svd(M, compute_uv=False), M.shape, 1e-9)

