"""Representation algebra: group action, moment maps, energy, gradient, Hessian.

Conventions
-----------
A representation assigns edge e the complex matrix ``mats[e]`` of shape
(dim head, dim tail).  Tangent vectors are bare lists of matrices with the
same shapes.  Lie-algebra and group elements are bare lists of per-vertex
square matrices ordered like ``quiver.vertices``; the compact flavour is
anti-Hermitian.  The real pairing on both edge and vertex data is
sum of Re tr(M N*), and the complex structure acts entrywise by i.

Edge-to-vertex assembly
-----------------------
The adjoint rho*, the real moment map, the complex moment map and their
derivatives all send edge data to vertex data by one rule (Nakajima, Duke
Math. J. 76, 1994, section 3): given matrices L_a and R_a on edges a, vertex
i gets sum_{h(a)=i} L_a R_a - sum_{t(a)=i} R_a L_a.  So rho*_x(X) takes
L = X and R = A*; the real moment map (1/2i) sum_a [A_a, A_a*] is (1/2i)
rho*_x(A) in the full flavour; the complex moment map sum [A_a, B_abar] runs
over the doubled pairs with L = A_a and R = B_abar.  ``_assemble`` sums on
edge-matrix lists and ``_incidence_sum`` on the packed layout below; both add
out of place, so leading batch axes broadcast.

The flow is the gradient flow of f = (1/2)|mu - alpha|^2, alpha entering as
the central element (i alpha_j id_j).  All of it is read from the Hermitian
element H = i(mu - alpha) = (1/2) rho*_x(A) + alpha_j id_j per vertex j:
f = (1/2)|H|^2, the gradient is rho_x(H), and the Hessian sends X to
[H, X] + rho_x(S), where [H, X]_a = H_h X_a - X_a H_t and S = (1/2)(R + R*)
= i dmu(X) with R = rho*_x(X) in the full flavour.  At a critical point the
eigenspaces of H give the slope blocks (``critical``).

Batches
-------
The real-linear kernels in the tangent data (``inf_action``,
``inf_action_adjoint``, ``d_moment_real``, ``d_moment_complex``,
``hessian_apply``, ``anti_hermitian_part``) and ``ravel_real``/
``unravel_real`` accept tangent matrices with leading batch axes, shape
(..., rows, cols), so the matrix of such a map is one call on the identity
batch of real coordinates.  Base points may be batched too, as edge matrices
through ``_view``: ``moment_real``, ``moment_complex``, ``grad_energy`` and
``hessian_apply`` give one result per batch index, and ``energy`` the sum
over the batch.  ``flow`` batches two step sizes on the packed layout: its
full step and first half-step share a start.

Packed layout
-------------
``_layout`` compiles one (quiver, dims) once.  With d the largest dimension,
the E edge matrices sit zero-padded in one complex array of shape
(..., E, d, d), A_a in the leading (dim head, dim tail) corner, and vertex
data in one array of shape (..., V, d, d).  The edge-to-vertex rule with
L = A and R = A* is then one matmul: a complex (V, 2E) incidence matrix holds
+1/2 at (h(a), a) and -1/2 at (t(a), E + a), and H = inc @ [A A*; A* A]
+ diag(alpha), alpha sitting only on the d_v live diagonal entries of vertex
v.  The gradient is H[heads] @ A - A @ H[tails], and the complex moment map
is the same incidence sum (+-1) over the doubled pairs.  Padding stays 0:
the padded rows and columns of A A*, A* A and diag(alpha) are 0, so are those
of H, and so those of every gradient.  A point costs O(E d^3) flops in a
fixed handful of numpy calls, where per-edge lists cost O(E) calls.  Padding
rather than the N x N block embedding (N = sum d_v): both time alike at the
library's sizes, but padding grows with the largest dimension, not with N.
One energy and gradient, on 2 shared vCPUs with one BLAS thread:

    w = 4 framed quiver (E = 8, d = 2)    23 us padded,  19 us embedded,  60 us lists
    30-vertex thin chain (E = 29, d = 1)  12 us padded, 1180 us embedded, 362 us lists

``energy``, ``grad_energy``, ``_hermitian_moment``, ``moment_real`` and
``moment_complex`` pack once per call and read the same kernels as ``flow``,
whose state stays packed.  The tangent-linear maps (rho*_x(X),
``d_moment_real``, ``d_moment_complex`` and the S term of ``hessian_apply``)
stay on lists through ``_assemble``, because padding skinny framed edges
((6, 1) and (1, 6) padded to 6 x 6) multiplies their flops.  On the padded
layout, rho*, dmu_C and the Hessian made the 15 ``negative_slice_basis``
tasks of the benchmark 15 % slower (w = 4, d = 6 by 1.44x), and
``hessian_matrix`` at n = 432 1.3x slower as one batch, reaching parity only
in 128-column blocks.  The same holds for base points under a batch of
directions, such as the slice drift check of ``critical``.

Numerical rank
--------------
Every rank decision (invertible group elements, injective or invertible
intertwiners, kernels, incoming-image spans) goes through
``numerical_rank``: a singular value sigma counts when
sigma > max(tol, max(m, n) eps) sigma_max, with the caller's relative tol and
eps the float64 machine epsilon (Golub-Van Loan, Matrix Computations, 5.4).
The cut scales with the data, so rescaling a representation never flips a
verdict; a zero or empty matrix has rank 0.

Tolerances
----------
Under (x, alpha) -> (c x, c^2 alpha) flow lines, critical points of a given
type and Hecke pairs go to objects of the same kind, so no verdict may depend
on c.  The rule: each quantity is compared with a tolerance of its own
degree.  Edge entries, distances between representations and intertwining
residuals have degree 1, and their gates are tol |x|, or tol (|x1| + |x2|)
and tol max(|x1|, |x2|) over a pair; mu, alpha and the eigenvalues of H and
of the Hessian have degree 2 (``critical``); the gradient has degree 3.  A
group element or intertwiner is fixed only up to a scalar, so a test on one
of its entries is relative to its largest entry.  An all-zero input keeps
the verdict of an absolute floor: a residual gate passes on 0 <= 0 and a
degeneracy test fails on it.  Four decisions keep an absolute part, each
with its reason where it is made: the gradient gate of ``classify_critical``,
the slice drift gate of ``negative_slice_basis``, the acceptance tests of
``flow`` and the snap test of ``affine_project``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .quiver import Quiver, check_dims, degree_rank_slope

Mats = "list[np.ndarray]"
_UNPAIRED = "unpaired edge: quiver carries no doubling metadata"


@dataclass(eq=False)
class Representation:
    """Edge-indexed complex matrices over a quiver with fixed dimensions."""

    quiver: Quiver
    dims: dict[str, int]
    mats: list[np.ndarray]

    def __post_init__(self):
        self.dims = check_dims(self.quiver, self.dims)
        if len(self.mats) != self.quiver.nedges:
            raise ValueError("matrix count does not match edge count")
        fixed = []
        for e, (m, want) in enumerate(zip(self.mats, edge_shapes(self.quiver, self.dims))):
            m = np.asarray(m, dtype=complex)
            if m.shape != want:
                raise ValueError(f"edge {e} matrix has shape {m.shape}, expected {want}")
            if m.size and not np.all(np.isfinite(m)):
                raise ValueError(f"edge {e} matrix has non-finite entries")
            fixed.append(m)
        self.mats = fixed

    def copy(self) -> "Representation":
        return Representation(self.quiver, dict(self.dims), [m.copy() for m in self.mats])

    def norm(self) -> float:
        return mats_norm(self.mats)

    @classmethod
    def zero(cls, quiver: Quiver, dims: Mapping[str, int]) -> "Representation":
        dims = check_dims(quiver, dims)
        mats = [np.zeros(s, dtype=complex) for s in edge_shapes(quiver, dims)]
        return cls(quiver, dict(dims), mats)


def _view(x: Representation, mats: Sequence[np.ndarray]) -> Representation:
    """Edge matrices as a Representation over x's quiver and dims, without
    validation: the caller fixes their shapes by construction, and they may
    carry a leading batch axis."""
    y = object.__new__(Representation)
    y.quiver, y.dims, y.mats = x.quiver, x.dims, mats
    return y


def rep_distance(x: Representation, y: Representation) -> float:
    return mats_norm([a - b for a, b in zip(x.mats, y.mats)])


def random_rep(quiver: Quiver, dims: Mapping[str, int], rng: np.random.Generator) -> Representation:
    dims = check_dims(quiver, dims)
    return Representation(quiver, dict(dims), random_mats(edge_shapes(quiver, dims), rng))


# ---------------------------------------------------------------------------
# shapes and real coordinates


def edge_shapes(quiver: Quiver, dims: Mapping[str, int]) -> list[tuple[int, int]]:
    return [(dims[quiver.head(e)], dims[quiver.tail(e)]) for e in range(quiver.nedges)]


def vertex_shapes(quiver: Quiver, dims: Mapping[str, int]) -> list[tuple[int, int]]:
    return [(dims[v], dims[v]) for v in quiver.vertices]


def random_mats(shapes, rng: np.random.Generator) -> Mats:
    return [(rng.standard_normal(s) + 1j * rng.standard_normal(s)) / np.sqrt(2.0)
            for s in shapes]


def ravel_real(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Flatten complex matrices into [re..., im...] blocks, one per matrix,
    along the last axis; leading batch axes broadcast across the matrices."""
    if not mats:
        return np.zeros(0)
    batch = np.broadcast_shapes(*(m.shape[:-2] for m in mats))
    parts = []
    for m in mats:
        # the size is spelled out: reshape cannot infer -1 next to a size-0 axis
        size = m.shape[-2] * m.shape[-1]
        flat = np.broadcast_to(m, batch + m.shape[-2:]).reshape(batch + (size,))
        parts += [flat.real, flat.imag]
    return np.concatenate(parts, axis=-1)


def unravel_real(vec: np.ndarray, shapes: Sequence[tuple[int, int]]) -> Mats:
    """Inverse of ravel_real along the last axis of vec."""
    batch = vec.shape[:-1]
    out = []
    pos = 0
    for s in shapes:
        n = s[0] * s[1]
        re = vec[..., pos:pos + n].reshape(batch + tuple(s))
        im = vec[..., pos + n:pos + 2 * n].reshape(batch + tuple(s))
        out.append(re + 1j * im)
        pos += 2 * n
    if pos != vec.shape[-1]:
        raise ValueError("vector length does not match shapes")
    return out


def matrix_of(apply, shapes: Sequence[tuple[int, int]]) -> np.ndarray:
    """Matrix of a real-linear map on tangent data of the given shapes, in
    [re..., im...] coordinates: the map applied once to the identity batch."""
    n = 2 * sum(s[0] * s[1] for s in shapes)
    cols = ravel_real(apply(unravel_real(np.eye(n), shapes)))
    return cols.T if cols.ndim == 2 else np.zeros((0, n))


def pairing(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> float:
    """Real inner product sum Re tr(a b*)."""
    return float(sum(np.real(np.vdot(n, m)) for m, n in zip(a, b)))


def mats_norm(a: Sequence[np.ndarray]) -> float:
    return float(np.sqrt(sum(np.sum(np.abs(m) ** 2) for m in a)))


def mats_sub(a, b) -> Mats:
    return [m - n for m, n in zip(a, b)]


def mats_scale(c, a) -> Mats:
    return [c * m for m in a]


def mult_i(a) -> Mats:
    return [1j * m for m in a]


def _adj(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return m.conj().swapaxes(-1, -2)


def anti_hermitian_part(a: Sequence[np.ndarray]) -> Mats:
    return [(m - _adj(m)) / 2.0 for m in a]


# ---------------------------------------------------------------------------
# group action and infinitesimal action


def numerical_rank(s: np.ndarray, shape: tuple[int, ...], tol: float) -> int:
    """Rank of a matrix of the given shape from its descending singular
    values s, by the cut in the module docstring."""
    if not len(s):
        return 0
    return int(np.count_nonzero(s > max(tol, max(shape) * np.finfo(float).eps) * s[0]))


def null_space(M: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal columns spanning the numerical kernel of M."""
    _, s, Vh = np.linalg.svd(M)
    return Vh[numerical_rank(s, M.shape, rank_tol):].conj().T


def _inverses(g: Sequence[np.ndarray]) -> Mats:
    out = []
    for i, m in enumerate(g):
        m = np.asarray(m, dtype=complex)
        if m.shape[0] != m.shape[1]:
            raise ValueError("group element blocks must be square")
        if numerical_rank(np.linalg.svd(m, compute_uv=False), m.shape, 1e-14) < m.shape[0]:
            raise ValueError(f"singular block at position {i}")
        out.append(np.linalg.inv(m))
    return out


def group_act(g: Sequence[np.ndarray], x: Representation) -> Representation:
    """Change of basis: edge matrix becomes g_head . A . g_tail^{-1}."""
    ginv = _inverses(g)
    mats = [g[h] @ m @ ginv[t] for (t, h), m in zip(x.quiver.ends, x.mats)]
    return Representation(x.quiver, dict(x.dims), mats)


def _bracket(q: Quiver, u: Sequence[np.ndarray], X: Sequence[np.ndarray]) -> Mats:
    """Edge a gets u_head X_a - X_a u_tail."""
    return [u[h] @ Xe - Xe @ u[t] for (t, h), Xe in zip(q.ends, X)]


def _assemble(x: Representation, ends, L: Sequence[np.ndarray],
              R: Sequence[np.ndarray]) -> Mats:
    """The edge-to-vertex rule of the module docstring over the edges whose
    (tail, head) positions are ``ends``."""
    out = [np.zeros((x.dims[v], x.dims[v]), dtype=complex) for v in x.quiver.vertices]
    for (t, h), l, r in zip(ends, L, R):
        out[h] = out[h] + l @ r
        out[t] = out[t] - r @ l
    return out


def inf_action(x: Representation, u: Sequence[np.ndarray]) -> Mats:
    """rho_x(u): edge a gets u_head A_a - A_a u_tail."""
    return _bracket(x.quiver, u, x.mats)


def inf_action_adjoint(x: Representation, X: Mats, flavor: str = "compact") -> Mats:
    """Adjoint of rho_x: vertex i gets sum_{h(a)=i} X_a A_a* - sum_{t(a)=i} A_a* X_a.

    The compact flavour projects onto anti-Hermitian matrices, matching the
    pairing against anti-Hermitian Lie-algebra elements.
    """
    if flavor not in ("compact", "full"):
        raise ValueError("flavor must be 'compact' or 'full'")
    out = _assemble(x, x.quiver.ends, X, [_adj(m) for m in x.mats])
    return anti_hermitian_part(out) if flavor == "compact" else out


# ---------------------------------------------------------------------------
# packed layout (module docstring)


class _Layout:
    """The packed layout of one quiver and dimension vector."""

    def __init__(self, quiver: Quiver, vdims: tuple[int, ...]):
        E, V = quiver.nedges, len(vdims)
        self.vertices, self.vdims = quiver.vertices, vdims
        self.d = d = max(vdims, default=0)
        ends = np.array(quiver.ends, dtype=np.intp).reshape(E, 2)
        self.tails, self.heads = ends[:, 0], ends[:, 1]
        self.shapes = [(vdims[h], vdims[t]) for t, h in quiver.ends]
        self.inc = _incidence(V, self.heads, self.tails, 0.5)
        self.pairs = None
        if quiver.pairing is not None:
            a, abar = np.array(quiver.pairing, dtype=np.intp).reshape(-1, 2).T
            self.pairs = a, abar, _incidence(V, self.heads[a], self.tails[a], 1.0)
        # the (vertex, i) positions of the live diagonal entries (v, i, i)
        self.diag = np.nonzero(np.arange(d) < np.array(vdims, dtype=np.intp).reshape(V, 1))

    def pack(self, mats: Sequence[np.ndarray]) -> np.ndarray:
        """Edge matrices, with any leading batch axes, as one padded array."""
        # the assignment below broadcasts the other edges to the longest batch
        batch = max((np.shape(m)[:-2] for m in mats), key=len, default=())
        A = np.zeros(batch + (len(self.shapes), self.d, self.d), dtype=complex)
        for e, ((r, c), m) in enumerate(zip(self.shapes, mats)):
            A[..., e, :r, :c] = m
        return A

    def edges(self, A: np.ndarray) -> Mats:
        """Views of the live corner of each padded edge matrix."""
        return [A[..., e, :r, :c] for e, (r, c) in enumerate(self.shapes)]

    def blocks(self, H: np.ndarray) -> Mats:
        """Views of the live block of each padded vertex matrix."""
        return [H[..., v, :n, :n] for v, n in enumerate(self.vdims)]

    def shift(self, alpha: Mapping) -> np.ndarray:
        """diag(alpha) on the live diagonal entries, shape (V, d, d)."""
        if set(alpha) != set(self.vertices):
            raise ValueError("weight keys must match dimension-vector keys")
        a = np.array([float(alpha[v]) for v in self.vertices])
        out = np.zeros((len(self.vdims), self.d, self.d), dtype=complex)
        v, i = self.diag
        out[v, i, i] = a[v]
        return out


def _incidence(V: int, heads: np.ndarray, tails: np.ndarray, c: float) -> np.ndarray:
    """(V, 2n): +c at (heads[k], k) and -c at (tails[k], n + k)."""
    n = len(heads)
    inc = np.zeros((V, 2 * n), dtype=complex)
    inc[heads, np.arange(n)] = c
    inc[tails, n + np.arange(n)] = -c
    return inc


@lru_cache(maxsize=256)
def _layout_of(quiver: Quiver, vdims: tuple[int, ...]) -> _Layout:
    return _Layout(quiver, vdims)


def _layout(quiver: Quiver, dims: Mapping[str, int]) -> _Layout:
    return _layout_of(quiver, tuple(dims[v] for v in quiver.vertices))


def _packed(x: Representation) -> tuple[_Layout, np.ndarray]:
    lay = _layout(x.quiver, x.dims)
    return lay, lay.pack(x.mats)


def _incidence_sum(inc: np.ndarray, L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """inc @ [L; R] over the edge axis, from (..., n, d, d) to (..., V, d, d)."""
    P = np.concatenate((L, R), axis=-3)
    d = P.shape[-1]
    out = inc @ P.reshape(P.shape[:-2] + (d * d,))
    return out.reshape(out.shape[:-1] + (d, d))


def _hermitian(lay: _Layout, A: np.ndarray, shift) -> np.ndarray:
    """Packed H = (1/2) rho*_x(A) + shift, the one place that builds H."""
    Ah = _adj(A)
    return _incidence_sum(lay.inc, A @ Ah, Ah @ A) + shift


def _rho(lay: _Layout, H: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Packed rho_x(H) = H[heads] @ A - A @ H[tails]."""
    return H.take(lay.heads, axis=-3) @ A - A @ H.take(lay.tails, axis=-3)


def _gradient(lay: _Layout, A: np.ndarray, shift) -> np.ndarray:
    """The packed gradient of the energy."""
    return _rho(lay, _hermitian(lay, A, shift), A)


def _energy_and_grad(lay: _Layout, A: np.ndarray, shift) -> tuple[float, np.ndarray]:
    """The packed energy and gradient from one H."""
    H = _hermitian(lay, A, shift)
    return 0.5 * _sqnorm(H), _rho(lay, H, A)


def _complex_moment(lay: _Layout, A: np.ndarray) -> np.ndarray:
    """Packed complex moment map: the incidence sum over the doubled pairs."""
    if lay.pairs is None:
        raise ValueError(_UNPAIRED)
    a, abar, inc = lay.pairs
    Aa, Bb = A.take(a, axis=-3), A.take(abar, axis=-3)
    return _incidence_sum(inc, Aa @ Bb, Bb @ Aa)


def _sqnorm(a: np.ndarray) -> float:
    """sum |a|^2 over every entry and batch index."""
    return float(np.vdot(a, a).real)


# ---------------------------------------------------------------------------
# moment maps


def moment_real(x: Representation) -> Mats:
    """(1/2i) sum_a [A_a, A_a*] per vertex, that is (1/2i) rho*_x(A); anti-Hermitian."""
    lay, A = _packed(x)
    return lay.blocks(-1j * _hermitian(lay, A, 0.0))


def d_moment_real(x: Representation, X: Mats) -> Mats:
    """Derivative of the real moment map at x in direction X: (1/2i)(R + R*)
    with R = rho*_x(X) in the full flavour."""
    return [(1.0 / 2.0j) * (u + _adj(u)) for u in inf_action_adjoint(x, X, flavor="full")]


def _paired_edges(q: Quiver, mats: Sequence[np.ndarray]):
    """The (tail, head) positions of edge a of each doubled pair (a, abar),
    with the pairs' matrices mats[a] and mats[abar]."""
    if q.pairing is None:
        raise ValueError(_UNPAIRED)
    return ([q.ends[a] for a, _ in q.pairing], [mats[a] for a, _ in q.pairing],
            [mats[ab] for _, ab in q.pairing])


def moment_complex(x: Representation) -> Mats:
    """Per-vertex assembly of sum over pairs [A_a, B_abar]; needs pairing."""
    lay, A = _packed(x)
    return lay.blocks(_complex_moment(lay, A))


def d_moment_complex(x: Representation, X: Mats) -> Mats:
    """Derivative of the complex moment map: the assemblies of (dA, B) and (A, dB)."""
    ends, A, B = _paired_edges(x.quiver, x.mats)
    _, dA, dB = _paired_edges(x.quiver, X)
    return [u + v for u, v in zip(_assemble(x, ends, dA, B), _assemble(x, ends, A, dB))]


# ---------------------------------------------------------------------------
# energy, gradient, Hessian


def _hermitian_moment(x: Representation, alpha: Mapping) -> Mats:
    """H = (1/2) rho*_x(A) + alpha_j id_j per vertex (module docstring)."""
    lay, A = _packed(x)
    return lay.blocks(_hermitian(lay, A, lay.shift(alpha)))


def energy(x: Representation, alpha: Mapping) -> float:
    """f = (1/2)|mu - alpha|^2 = (1/2)|H|^2."""
    lay, A = _packed(x)
    return 0.5 * _sqnorm(_hermitian(lay, A, lay.shift(alpha)))


def grad_energy(x: Representation, alpha: Mapping) -> Mats:
    """The gradient rho_x(H) of the energy."""
    lay, A = _packed(x)
    return lay.edges(_gradient(lay, A, lay.shift(alpha)))


def hessian_apply(x: Representation, alpha: Mapping, X: Mats) -> Mats:
    """The Hessian [H, X] + rho_x(S) of the energy applied to X (module docstring)."""
    S = [(r + _adj(r)) / 2.0 for r in inf_action_adjoint(x, X, flavor="full")]
    return [a + b for a, b in zip(_bracket(x.quiver, _hermitian_moment(x, alpha), X),
                                  inf_action(x, S))]


def hessian_matrix(x: Representation, alpha: Mapping) -> np.ndarray:
    """The Hessian as a real symmetric matrix in [re..., im...] coordinates."""
    return matrix_of(lambda X: hessian_apply(x, alpha, X), edge_shapes(x.quiver, x.dims))


# ---------------------------------------------------------------------------
# block embeddings (leading-coordinate convention)


def embed_rep(x: Representation, big_dims: Mapping[str, int]) -> Representation:
    """Place x in the leading coordinates of a larger dimension vector."""
    big = check_dims(x.quiver, big_dims)
    if any(big[v] < x.dims[v] for v in big):
        raise ValueError("target dimensions must dominate the representation")
    return direct_sum(x, Representation.zero(x.quiver, {v: big[v] - x.dims[v] for v in big}))


def restrict_rep(x: Representation, small_dims: Mapping[str, int]) -> Representation:
    """Keep the leading block."""
    small = check_dims(x.quiver, small_dims)
    if any(small[v] > x.dims[v] for v in small):
        raise ValueError("target dimensions must be dominated by the representation")
    mats = [m[:small[h], :small[t]].copy() for (t, h), m in zip(x.quiver.edges, x.mats)]
    return Representation(x.quiver, small, mats)


def direct_sum(x: Representation, y: Representation) -> Representation:
    """Block-diagonal sum, x in the leading coordinates."""
    if x.quiver.edges != y.quiver.edges:
        raise ValueError("direct sum needs a common quiver")
    q = x.quiver
    dims = {v: x.dims[v] + y.dims[v] for v in q.vertices}
    out = Representation.zero(q, dims)
    for e in range(q.nedges):
        h1, t1 = x.dims[q.head(e)], x.dims[q.tail(e)]
        out.mats[e][:h1, :t1] = x.mats[e]
        out.mats[e][h1:, t1:] = y.mats[e]
    return out


def add_tangent(x: Representation, X: Mats) -> Representation:
    # a size-0 edge matrix would otherwise broadcast against size-1 silently
    for e, (m, d) in enumerate(zip(x.mats, X)):
        if np.shape(d) != m.shape:
            raise ValueError(f"tangent shape {np.shape(d)} != edge {e} shape {m.shape}")
    return Representation(x.quiver, dict(x.dims), [m + d for m, d in zip(x.mats, X)])


def slope_float(alpha: Mapping, vp: Mapping[str, int]) -> float:
    return float(degree_rank_slope(alpha, vp)[2])
