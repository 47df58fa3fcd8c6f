import numpy as np
import pytest

from quiverflow import critical
from quiverflow.critical import (
    ClassifyTols,
    _check_negative_vectors,
    _cluster,
    _eigen_gap,
    classify_critical,
    hessian_spectrum,
    negative_slice_basis,
    stratum_codim,
)
from quiverflow.fixtures import (
    chain2_rep,
    chain2_weights,
    framed_a1_rep,
    framed_a1_weights,
    framed_a1w2_critical,
)
from quiverflow.flow import FlowOptions, flow
from quiverflow.quiver import Quiver, canonical_stability, crawley_boevey_frame, double_quiver
from quiverflow.rep import (
    Representation,
    add_tangent,
    direct_sum,
    edge_shapes,
    energy,
    group_act,
    hessian_apply,
    hessian_matrix,
    inf_action_adjoint,
    mats_norm,
    mats_scale,
    mats_sub,
    matrix_of,
    null_space,
    random_rep,
    ravel_real,
)


def test_classify_minimum_single_block():
    x = framed_a1_rep(0.0, np.sqrt(2))
    prof = classify_critical(x, framed_a1_weights())
    assert prof.eigenvalues == pytest.approx([0.0], abs=1e-12)
    assert prof.blocks == [{"1": 1, "inf": 1}]
    assert prof.critical_type == [{"1": 1, "inf": 1}]


def test_classify_f1_saddle_two_blocks():
    x = framed_a1_rep(0.0, 0.0)
    prof = classify_critical(x, framed_a1_weights())
    assert prof.eigenvalues == pytest.approx([-1.0, 1.0])
    assert prof.blocks == [{"1": 0, "inf": 1}, {"1": 1, "inf": 0}]
    # type lists blocks by decreasing slope
    assert prof.critical_type == [{"1": 1, "inf": 0}, {"1": 0, "inf": 1}]


def test_classify_rejects_noncritical():
    with pytest.raises(ValueError):
        classify_critical(framed_a1_rep(1.0, 1.0), framed_a1_weights())


def test_f1_saddle_spectrum():
    x = framed_a1_rep(0.0, 0.0)
    spectrum, defect, prof = hessian_spectrum(x, framed_a1_weights())
    eigs = sorted((lam, mult) for lam, mult, _ in spectrum)
    assert eigs == [(pytest.approx(-2.0), 2), (pytest.approx(2.0), 2)]
    assert defect < 1e-9
    # the negative directions occupy the edge leaving vertex 1
    for lam, mult, tangents in spectrum:
        if lam < 0:
            for tan in tangents:
                assert mats_norm([tan[0]]) < 1e-10
                assert mats_norm([tan[1]]) > 0.9
    assert prof.neg_spectrum == [(pytest.approx(-2.0), 2)]


def test_a2_saddle_spectrum():
    x = chain2_rep(0.0)
    spectrum, defect, _ = hessian_spectrum(x, chain2_weights())
    assert sorted((lam, m) for lam, m, _ in spectrum) == [(pytest.approx(-2.0), 2)]
    assert defect < 1e-9


def test_w2_critical_profile():
    x = framed_a1w2_critical(np.sqrt(3.0), 0.0)
    alpha = canonical_stability(x.quiver, x.dims)
    prof = classify_critical(x, alpha)
    assert prof.eigenvalues == pytest.approx([-0.5, 1.0])
    assert prof.critical_type == [{"1": 1, "inf": 0}, {"1": 1, "inf": 1}]


def test_negative_slice_at_w2_critical():
    b1, b2 = np.sqrt(1.5), np.sqrt(1.5)
    x = framed_a1w2_critical(b1, b2)
    alpha = canonical_stability(x.quiver, x.dims)
    basis, prof = negative_slice_basis(x, alpha)
    assert len(basis) == 2
    assert prof.neg_slice_dim == 2
    # slice directions occupy the second column of the outgoing row maps,
    # along the complex line spanned by (-conj(b2), conj(b1))
    for vec in basis:
        col = np.array([vec[2][0, 1], vec[3][0, 1]])
        ref = np.array([-np.conj(b2), np.conj(b1)])
        overlap = abs(np.vdot(ref, col)) / (np.linalg.norm(ref) * np.linalg.norm(col))
        assert overlap == pytest.approx(1.0, abs=1e-10)
        assert mats_norm([vec[0], vec[1]]) < 1e-10
    # descent check
    E0 = energy(x, alpha)
    for vec in basis:
        assert energy(add_tangent(x, mats_scale(1e-3, vec)), alpha) < E0


def test_negative_slice_with_isolated_vertex():
    # the unframed vertex z touches no edge, so its slice conditions stay
    # unbatched while the others carry the identity batch
    q = double_quiver(crawley_boevey_frame(Quiver(vertices=("1", "z"), edges=()),
                                           {"1": 2, "z": 0}))
    dims = {"1": 2, "z": 0, "inf": 1}
    mats = [np.zeros((dims[q.head(e)], dims[q.tail(e)]), dtype=complex)
            for e in range(q.nedges)]
    for e in range(q.nedges):
        if q.tail(e) == "1":
            mats[e][0, 0] = np.sqrt(1.5)
    x = Representation(q, dims, mats)
    basis, _ = negative_slice_basis(x, canonical_stability(q, dims))
    assert len(basis) == 2


def test_slice_drift_gate_reads_every_vector(monkeypatch):
    # the split critical point at w = 2, d = 2 (b_j = [sqrt(3/2), 0], a = 0),
    # on the framed quiver with a loop at 1 whose pair carries scalars in the
    # leading coordinate.  Without the loop every slice coefficient sits on a
    # b edge and mu_C(x + delta) = 0 for all of them
    q = double_quiver(crawley_boevey_frame(Quiver(vertices=("1",), edges=(("1", "1"),)),
                                           {"1": 2}))
    dims = {"1": 2, "inf": 1}
    mats = [np.zeros((dims[q.head(e)], dims[q.tail(e)]), dtype=complex)
            for e in range(q.nedges)]
    for e, (t, h) in enumerate(q.edges):
        if (t, h) == ("1", "inf"):
            mats[e][0, 0] = np.sqrt(1.5)
    for a, ab in q.pairing:
        if q.edges[a] == ("1", "1"):
            mats[a][0, 0], mats[ab][0, 0] = 0.7, 0.4j
    x = Representation(q, dims, mats)
    alpha = canonical_stability(q, dims)
    basis, _ = negative_slice_basis(x, alpha)
    assert len(basis) == 4
    # the slice conditions stack the adjoint rows (one d x d block per vertex,
    # real and imaginary parts) over the d mu_C rows
    n_adjoint = 2 * sum(d * d for d in dims.values())

    def with_bad_last_column(M, rank_tol):
        _, s, Vh = np.linalg.svd(M[n_adjoint:])
        assert s[0] > 0.5  # d mu_C(x) moves along Vh[0], a unit coefficient vector
        return np.column_stack([null_space(M, rank_tol), Vh[0]])

    monkeypatch.setattr(critical, "null_space", with_bad_last_column)
    with pytest.raises(ValueError, match="leaves the constraint set"):
        negative_slice_basis(x, alpha)


def test_negative_slice_at_f1_saddle():
    x = framed_a1_rep(0.0, 0.0)
    basis, prof = negative_slice_basis(x, framed_a1_weights())
    assert len(basis) == 2
    for vec in basis:
        assert mats_norm([vec[0]]) < 1e-12


def test_negative_slice_needs_canonical_weights():
    x = framed_a1_rep(0.0, 0.0)
    with pytest.raises(ValueError):
        negative_slice_basis(x, {"1": 2, "inf": -2})


@pytest.mark.parametrize("c", [5e-4, 1e-3, 1.0, 1e3, 1e8])
def test_critical_type_and_negative_spectrum_scale_covariant(c):
    # (x, alpha) -> (c x, c^2 alpha) scales mu - alpha and the Hessian by c^2
    # and the gradient by c^3, so the type and the scaled spectrum stay put;
    # a gauge at vertex 1 leaves a roundoff off-diagonal residual of degree 1
    w2 = framed_a1w2_critical(np.sqrt(1.5), np.sqrt(1.5))
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    for x, alpha in [(framed_a1_rep(0.0, np.sqrt(2)), framed_a1_weights()),
                     (w2, canonical_stability(w2.quiver, w2.dims)),
                     (group_act([u, np.eye(1)], w2), canonical_stability(w2.quiver, w2.dims)),
                     (framed_a1_rep(0.0, 0.0), framed_a1_weights())]:
        _, _, ref = hessian_spectrum(x, alpha)
        y = Representation(x.quiver, x.dims, mats_scale(c, x.mats))
        _, _, prof = hessian_spectrum(y, {v: c * c * float(a) for v, a in alpha.items()})
        assert prof.critical_type == ref.critical_type
        assert [(lam / c ** 2, m) for lam, m in prof.neg_spectrum] == [
            (pytest.approx(lam), m) for lam, m in ref.neg_spectrum]


def test_flow_limits_classify_to_block_slopes():
    for x0, alpha in [
        (framed_a1_rep(0.0, 3.0), framed_a1_weights()),
        (chain2_rep(2.0), chain2_weights()),
    ]:
        r = flow(x0, alpha, FlowOptions(dt_init=0.5))
        prof = classify_critical(r.limit, alpha, ClassifyTols(block_tol=1e-6))
        for lam, block in zip(prof.eigenvalues, prof.blocks):
            deg = sum(float(alpha[v]) * block[v] for v in block)
            rank = sum(block.values())
            assert lam == pytest.approx(deg / rank, abs=1e-6)


@pytest.mark.parametrize("c", [1.0, 1e-3])
def test_limit_decaying_to_zero_classifies(c):
    # every vertex of the chain is its own filtration piece, so the flow decays
    # to the zero representation and stops on its absolute grad_tol with |x|
    # about 4e-9; the off-block residual is then about |x| too
    q = Quiver(("1", "2", "3", "4"), (("1", "2"), ("2", "3"), ("3", "4")))
    alpha = {"1": -3, "2": -1, "3": 1, "4": 3}
    r = flow(random_rep(q, {v: 2 for v in q.vertices}, np.random.default_rng(0)), alpha,
             FlowOptions(dt_init=0.5))
    assert r.status == "converged" and r.limit.norm() < 1e-8
    y = Representation(q, r.limit.dims, mats_scale(c, r.limit.mats))
    prof = classify_critical(y, {v: c * c * a for v, a in alpha.items()},
                             ClassifyTols(block_tol=1e-6))
    assert prof.critical_type == [{u: 2 * (u == v) for u in q.vertices} for v in "4321"]


def test_stratum_codim_values():
    x = framed_a1_rep(0.0, np.sqrt(2))
    assert stratum_codim(x, "1") == 1
    assert stratum_codim(framed_a1_rep(2.0, 0.0), "1") == 0
    g = [np.array([[np.exp(0.7j)]]), np.eye(1, dtype=complex)]
    assert stratum_codim(group_act(g, x), "1") == 1
    # two incoming edges with parallel images span one line in dimension 2
    q = Quiver(vertices=("1", "2", "3"), edges=(("1", "2"), ("3", "2")))
    y = Representation(q, {"1": 1, "2": 2, "3": 1},
                       [np.array([[1.0], [0.0]], dtype=complex),
                        np.array([[2.0], [0.0]], dtype=complex)])
    assert stratum_codim(y, "2") == 1


@pytest.mark.parametrize("bad", [
    {"block_tol": float("nan")}, {"block_tol": -1.0}, {"block_tol": 0.0},
    {"block_tol": float("inf")}, {"block_tol": -float("inf")},
])
def test_classify_tols_reject_bad_values(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        ClassifyTols(**bad)


def _w2_saddle(c=1.0):
    """framed_a1w2_critical(sqrt 1.5, sqrt 1.5) and its canonical weights,
    scaled as (c x, c^2 alpha)."""
    x = framed_a1w2_critical(np.sqrt(1.5), np.sqrt(1.5))
    alpha = canonical_stability(x.quiver, x.dims)
    y = Representation(x.quiver, x.dims, mats_scale(c, x.mats))
    return y, {v: c * c * float(a) for v, a in alpha.items()}


def _in_negative_blocks(x, prof, lam):
    """The unit vector with all-ones entries, in the eigenbases, on the Hom^1
    blocks where lam is predicted; at the w = 2 saddle rho* does not kill it."""
    lams = np.array(prof.eigenvalues)
    X = []
    for (t, h), m in zip(x.quiver.ends, x.mats):
        diff = lams[prof.labels[h]][:, None] - lams[prof.labels[t]][None, :]
        keep = np.abs(diff - lam) < 1e-6 * abs(lam)
        X.append(prof.bases[h] @ keep.astype(complex) @ prof.bases[t].conj().T)
    return mats_scale(1.0 / mats_norm(X), X)


def _batch(tangents):
    return [np.stack(edge) for edge in zip(*tangents)]


@pytest.mark.parametrize("c", [1e-9, 1e-6, 1e-3, 1.0])
def test_kernel_gate_is_relative_to_scale(c):
    # |rho*_x X| has degree 1 in x; an absolute floor let this vector through
    # once |rho*_x X| = 0.71 |x| fell below it, near c = 1e-9
    x, alpha = _w2_saddle(c)
    prof = classify_critical(x, alpha)
    lam = -1.5 * c * c
    X = _in_negative_blocks(x, prof, lam)
    assert mats_norm(inf_action_adjoint(x, X)) > 0.5 * x.norm()
    with pytest.raises(ValueError, match="fails kernel conditions"):
        _check_negative_vectors(x, prof, lam, _batch([X]), 1e-6 * c * c)


@pytest.mark.parametrize("c", [1e-9, 5e-4, 1e-3, 1.0, 1e3])
def test_negative_spectrum_scale_covariant_down_to_tiny_scales(c):
    for x, alpha in [(framed_a1_rep(0.0, np.sqrt(2)), framed_a1_weights()),
                     _w2_saddle(),
                     (framed_a1_rep(0.0, 0.0), framed_a1_weights()),
                     (chain2_rep(0.0), chain2_weights())]:
        _, _, ref = hessian_spectrum(x, alpha)
        y = Representation(x.quiver, x.dims, mats_scale(c, x.mats))
        _, _, prof = hessian_spectrum(y, {v: c * c * float(a) for v, a in alpha.items()})
        assert prof.critical_type == ref.critical_type
        assert [(lam / c ** 2, m) for lam, m in prof.neg_spectrum] == [
            (pytest.approx(lam), m) for lam, m in ref.neg_spectrum]


def test_batched_negative_check_tests_every_vector():
    x, alpha = _w2_saddle()
    spectrum, _, prof = hessian_spectrum(x, alpha)
    [(lam, tangents)] = [(lam, t) for lam, _, t in spectrum if lam < -1e-6]
    assert len(tangents) == 2
    _check_negative_vectors(x, prof, lam, _batch(tangents), 1e-6)
    # a bad vector as the last row: one inside the blocks but outside the
    # kernel, one in the kernel (A vanishes on the edges into vertex 1) but
    # outside the blocks
    off_kernel = _in_negative_blocks(x, prof, lam)
    off_blocks = [np.zeros_like(m) for m in x.mats]
    off_blocks[0][0, 0] = 1.0
    assert mats_norm(inf_action_adjoint(x, off_blocks)) == 0.0
    for bad, msg in ((off_kernel, "fails kernel conditions"), (off_blocks, "leaks out")):
        with pytest.raises(ValueError, match=msg):
            _check_negative_vectors(x, prof, lam, _batch(tangents + [bad]), 1e-6)


def _doubled_triangle_zero():
    q = double_quiver(Quiver(vertices=("1", "2", "3"),
                             edges=(("1", "2"), ("2", "3"), ("1", "3"))))
    return Representation.zero(q, {"1": 2, "2": 2, "3": 2}), {"1": 1, "2": 2, "3": -3}


@pytest.mark.parametrize("case", ["w2_saddle", "triangle_zero"])
def test_hessian_tangents_match_their_eigenvalues(case):
    x, alpha = _w2_saddle() if case == "w2_saddle" else _doubled_triangle_zero()
    spectrum, _, _ = hessian_spectrum(x, alpha)
    assert sum(mult for _, mult, _ in spectrum) == 2 * sum(m.size for m in x.mats)
    for lam, mult, tangents in spectrum:
        assert len(tangents) == mult
        for X in tangents:
            assert mats_norm(X) == pytest.approx(1.0, abs=1e-12)
            resid = mats_norm(mats_sub(hessian_apply(x, alpha, X), mats_scale(lam, X)))
            assert resid <= 1e-9 * max(1.0, abs(lam))


def test_cluster_matches_single_linkage_loop():
    rng = np.random.default_rng(0)
    near_ints = rng.integers(-3, 4, 40) + 1e-7 * rng.standard_normal(40)
    for values in (np.zeros(0), np.array([2.0]), near_ints, np.repeat([0.0, 1.0], 5)):
        # reference: walk the sorted values and open a group at every step > gap
        ref: list[list[int]] = []
        for idx in np.argsort(values):
            if ref and values[idx] - values[ref[-1][-1]] <= 1e-6:
                ref[-1].append(int(idx))
            else:
                ref.append([int(idx)])
        assert [g.tolist() for g in _cluster(values, 1e-6)] == ref


# ---------------------------------------------------------------------------
# the block-by-block spectrum against the dense Hessian


def _gauged_framed_critical(w, d, seed):
    """The split critical point at dims (d, 1) of the doubled framed quiver
    with w framing edges (b_j = [sqrt((d + 1) / w), 0, ...], a = 0), moved
    by a random unitary at 1 and a phase at infinity."""
    q = double_quiver(crawley_boevey_frame(Quiver(("1",), ()), {"1": w}))
    dims = {"1": d, "inf": 1}
    mats = [np.zeros((dims[q.head(e)], dims[q.tail(e)]), dtype=complex)
            for e in range(q.nedges)]
    for e in range(q.nedges):
        if q.tail(e) == "1":
            mats[e][0, 0] = np.sqrt((d + 1) / w)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    x = group_act([u, np.exp(2j * np.pi * rng.uniform()) * np.eye(1)], Representation(q, dims, mats))
    return x, canonical_stability(q, dims)


def _loop_limit(dims, seed):
    """A flow limit on a quiver with a loop and a double edge."""
    q = Quiver(("1", "2", "3"), (("1", "1"), ("1", "2"), ("1", "2"), ("2", "3")))
    alpha = {"1": 0.5, "2": -1.0, "3": 0.7}
    r = flow(random_rep(q, dims, np.random.default_rng(seed)), alpha, FlowOptions(dt_init=0.5))
    assert r.status == "converged"
    return r.limit, alpha


def _loop_two_slopes():
    """x1 + x2 on the loop at 1 with an edge 1 -> 2, weights (1, -1): x1 at
    dims (1, 1) has slope 0, x2 at dims (1, 0) slope 1, and both carry a loop
    scalar, so the Hessian couples the weights e_s - e_t and e_t - e_s;
    moved by a unitary at 1."""
    q = Quiver(("1", "2"), (("1", "1"), ("1", "2")))
    x1 = Representation(q, {"1": 1, "2": 1}, [np.array([[0.7]]), np.array([[np.sqrt(2.0)]])])
    x2 = Representation(q, {"1": 1, "2": 0}, [np.array([[-0.4 + 0.3j]]), np.zeros((0, 1))])
    u, _ = np.linalg.qr(np.array([[1.0, 2.0j], [0.5, -1.0]]))
    return group_act([u, np.eye(1)], direct_sum(x1, x2)), {"1": 1, "2": -1}


_SPECTRUM_CASES = {
    # weights (1, 0, -1) give the pairs {1, 2} and {2, 3} the same eigenvalues,
    # so one cluster merges vectors of two blocks
    **{f"triangle_d{d}_{name}": (lambda d=d, a=a: (Representation.zero(
           _doubled_triangle_zero()[0].quiver, {v: d for v in "123"}), a))
       for d in (1, 2, 3)
       for name, a in (("distinct", {"1": 1, "2": 2, "3": -3}), ("shared", {"1": 1, "2": 0, "3": -1}))},
    **{f"framed_w{w}d{d}": (lambda w=w, d=d: _gauged_framed_critical(w, d, 10 * w + d))
       for w, d in ((2, 2), (2, 3), (3, 2), (4, 4))},
    "framed_a1_saddle": lambda: (framed_a1_rep(0.0, 0.0), framed_a1_weights()),
    "loop_two_slopes": _loop_two_slopes,
    "loop_multi_edge_limit": lambda: _loop_limit({"1": 2, "2": 2, "3": 1}, 2),
    "zero_dim_vertex_limit": lambda: _loop_limit({"1": 2, "2": 1, "3": 0}, 1),
}


def _dense_spectrum(x, alpha):
    """The reference: one eigh of the dense Hessian, clustered with the same
    gap; each cluster as (lambda, mult, orthonormal columns)."""
    H = hessian_matrix(x, alpha)
    w, V = np.linalg.eigh((H + H.T) / 2.0)
    return [(float(np.mean(w[g])), len(g), V[:, g]) for g in _cluster(w, _eigen_gap(x, alpha))]


@pytest.mark.parametrize("case", sorted(_SPECTRUM_CASES))
def test_hessian_spectrum_matches_dense_eigh(case):
    x, alpha = _SPECTRUM_CASES[case]()
    spectrum, defect, prof = hessian_spectrum(x, alpha)
    ref = _dense_spectrum(x, alpha)
    gap = _eigen_gap(x, alpha)
    scale = gap / 1e-6  # max(|x|^2, max |alpha|), the degree-2 scale
    n = 2 * sum(m.size for m in x.mats)
    assert [m for _, m, _ in spectrum] == [m for _, m, _ in ref]
    lams = np.array([lam for lam, _, _ in ref])
    for (lam, _, tangents), (ref_lam, _, V) in zip(spectrum, ref):
        assert abs(lam - ref_lam) <= 1e-12 * scale
        # eigenvectors in a cluster are fixed only up to a change of basis, so
        # compare projectors; dropping cross-block entries of size at most
        # defect moves a cluster at distance sep from the rest by n defect / sep
        sep = np.min(np.abs(lams[lams != ref_lam] - ref_lam), initial=np.inf)
        W = np.array([ravel_real(X) for X in tangents]).T
        assert np.max(np.abs(W @ W.T - V @ V.T)) <= 1e-12 + n * defect / sep
    assert prof.neg_spectrum == [(pytest.approx(lam, abs=1e-12 * scale), m)
                                 for lam, m, _ in ref if lam < -gap]


@pytest.mark.parametrize("case", sorted(_SPECTRUM_CASES))
def test_dense_hessian_is_block_diagonal_in_eigenbasis_coordinates(case):
    x, alpha = _SPECTRUM_CASES[case]()
    _, defect, prof = hessian_spectrum(x, alpha)
    q, B, labels = x.quiver, prof.bases, prof.labels
    shapes = edge_shapes(q, x.dims)
    # U sends [re, im] coordinates of X to those of B_h^* X B_t
    U = matrix_of(lambda X: [B[h].conj().T @ m @ B[t] for (t, h), m in zip(q.ends, X)], shapes)
    H = U @ hessian_matrix(x, alpha) @ U.T
    pair = []
    for t, h in q.ends:
        for _ in ("re", "im"):
            pair += [frozenset((int(s), int(u))) for s in labels[h] for u in labels[t]]
    cross = np.array([[a != b for b in pair] for a in pair], dtype=bool)
    assert np.max(np.abs(H[cross]), initial=0.0) <= defect
    # the dropped entries stay below the gap that clusters eigenvalues
    assert defect < _eigen_gap(x, alpha)
