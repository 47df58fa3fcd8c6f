import numpy as np
import pytest

from quiverflow import critical
from quiverflow.critical import (
    ClassifyTols,
    _check_negative_vectors,
    _cluster,
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
    energy,
    group_act,
    hessian_apply,
    inf_action_adjoint,
    mats_norm,
    mats_scale,
    mats_sub,
    null_space,
    random_rep,
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
