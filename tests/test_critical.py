import numpy as np
import pytest

from quiverflow.critical import (
    ClassifyTols,
    classify_critical,
    hessian_spectrum,
    negative_slice_basis,
    stratum_codim,
)
from quiverflow.fixtures import (
    chain2_rep,
    chain2_weights,
    framed_a1,
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
    mats_norm,
    mats_scale,
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


@pytest.mark.parametrize("c", [5e-4, 1e-3, 1.0, 1e3])
def test_critical_type_and_negative_spectrum_scale_covariant(c):
    # (x, alpha) -> (c x, c^2 alpha) scales mu - alpha and the Hessian by c^2
    # and the gradient by c^3, so the type and the scaled spectrum stay put
    w2 = framed_a1w2_critical(np.sqrt(1.5), np.sqrt(1.5))
    for x, alpha in [(framed_a1_rep(0.0, np.sqrt(2)), framed_a1_weights()),
                     (w2, canonical_stability(w2.quiver, w2.dims)),
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
    {"cluster_tol": float("nan")}, {"cluster_tol": -1.0}, {"block_tol": 0.0},
    {"rank_tol": -1.0}, {"grad_tol": float("inf")}, {"grad_factor": 0.0},
])
def test_classify_tols_reject_bad_values(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        ClassifyTols(**bad)
