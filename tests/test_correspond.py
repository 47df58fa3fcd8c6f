from dataclasses import replace

import numpy as np
import pytest

from quiverflow.correspond import (
    _hom_equations,
    affine_project,
    flowline_to_hecke,
    handsaw_adjoint,
    handsaw_constraint,
    handsaw_hecke_check,
    hecke_check,
    hecke_to_flowline,
    intertwiner_space,
    is_isomorphic,
    lagrangian_check,
    snap_rep,
)
from quiverflow.critical import negative_slice_basis, stratum_codim
from quiverflow.fixtures import (
    chain2,
    chain2_rep,
    framed_a1,
    framed_a1_rep,
    framed_a1w2,
    framed_a1w2_critical,
    framed_a1w2_rep,
    hs2,
    hs2_rep,
    hs3,
    jordan,
    jordan_rep,
)
from quiverflow.quiver import Quiver, canonical_stability
from quiverflow.rep import (
    Representation,
    add_tangent,
    group_act,
    mats_norm,
    mats_scale,
    numerical_rank,
    random_rep,
    rep_distance,
)


@pytest.mark.parametrize("pinned", [None, "inf"])
def test_condition_matrix_reproduces_residual(pinned):
    q = Quiver(vertices=("1", "2", "inf"),
               edges=(("1", "1"), ("inf", "1"), ("1", "2"), ("2", "1"), ("2", "inf")),
               infinity="inf")
    d1, d2 = {"1": 2, "2": 1, "inf": 1}, {"1": 3, "2": 1, "inf": 1}
    rng = np.random.default_rng(4)
    x1, x2 = random_rep(q, d1, rng), random_rep(q, d2, rng)
    M, rhs, blocks = _hom_equations(x1, x2, pinned)
    total = sum(d2[v] * d1[v] for v in q.vertices if v != pinned)
    assert M.shape == (len(rhs), total)
    for _ in range(3):
        vec = rng.standard_normal(total) + 1j * rng.standard_normal(total)
        xi = blocks(vec)
        if pinned is not None:
            assert np.array_equal(xi[pinned], np.eye(d2[pinned], d1[pinned]))
        want = np.concatenate([(xi[q.head(e)] @ x1.mats[e] - x2.mats[e] @ xi[q.tail(e)]).ravel()
                               for e in range(q.nedges)])
        np.testing.assert_allclose(M @ vec + rhs, want, rtol=0, atol=1e-12)


def test_intertwiner_space_dims():
    x = chain2_rep(2.0)
    assert len(intertwiner_space(x, x)) == 1
    J = jordan_rep([[1.0, 1.0], [0.0, 1.0]])
    I2 = jordan_rep(np.eye(2))
    assert len(intertwiner_space(J, J)) == 2
    assert len(intertwiner_space(I2, J)) == 2
    assert len(intertwiner_space(J, I2)) == 2


def test_intertwiner_basis_intertwines():
    J = jordan_rep([[1.0, 1.0], [0.0, 1.0]])
    I2 = jordan_rep(np.eye(2))
    for b in intertwiner_space(I2, J):
        assert np.max(np.abs(b["1"] @ I2.mats[0] - J.mats[0] @ b["1"])) < 1e-12


def test_is_isomorphic_conjugated_diagonal():
    d = np.diag([1.0, -2.0]).astype(complex)
    g = np.array([[1.0, 2.0], [0.5, 3.0]], dtype=complex)
    ok, wit = is_isomorphic(jordan_rep(g @ d @ np.linalg.inv(g)), jordan_rep(d))
    assert ok
    m = wit[0] @ (g @ d @ np.linalg.inv(g)) @ np.linalg.inv(wit[0])
    assert np.max(np.abs(m - d)) < 1e-12
    # Hom between zero representations is 0, and its zero element is invertible
    for x in (Representation.zero(jordan(), {"1": 0}),
              Representation.zero(chain2(), {"1": 0, "2": 0})):
        for strict in (False, True):
            ok, wit = is_isomorphic(x, x, strict=strict)
            assert ok and [w.shape for w in wit] == [(0, 0)] * len(x.quiver.vertices)
        assert lagrangian_check(x, x).related


def test_is_isomorphic_rejects_jordan_block():
    # scalar vs unipotent: every intertwiner kills a line, so no witness
    J = jordan_rep([[1.0, 1.0], [0.0, 1.0]])
    I2 = jordan_rep(np.eye(2))
    assert is_isomorphic(I2, J)[0] is False
    assert is_isomorphic(I2, J, strict=True)[0] is False
    assert is_isomorphic(I2, chain2_rep(1.0))[0] is False


def _hecke_pairs():
    """A member and a non-member pair on the doubled w = 2 framed quiver,
    dims (2, 1) -> (3, 1).  The member's x2 extends x1 by a b-edge column
    and is hidden by a gauge at vertex 1; the non-member is a random pair."""
    q = framed_a1w2()
    rng = np.random.default_rng(5)
    d1, d2 = {"1": 2, "inf": 1}, {"1": 3, "inf": 1}
    x1 = random_rep(q, d1, rng)
    mats = []
    for (t, h), m1 in zip(q.edges, x1.mats):
        m = np.zeros((d2[h], d2[t]), dtype=complex)
        m[:d1[h], :d1[t]] = m1
        if h == "inf":
            m[0, 2] = 0.7 - 0.4j
        mats.append(m)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    member = (x1, group_act([g, np.eye(1)], Representation(q, d2, mats)))
    return member, (random_rep(q, d1, rng), random_rep(q, d2, rng))


@pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3])
def test_rank_verdicts_scale_invariant(c):
    # rescaling every edge matrix by c leaves every rank verdict unchanged;
    # a cut with an absolute floor counts tiny singular values as zero
    q = Quiver(vertices=("1", "2", "3"), edges=(("1", "2"), ("2", "3"), ("1", "3")))
    dims = {"1": 2, "2": 2, "3": 2}
    rng = np.random.default_rng(0)
    x, y = random_rep(q, dims, rng), random_rep(q, dims, rng)
    g = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in q.vertices]
    gx = group_act(g, x)

    def scaled(r):
        return Representation(r.quiver, dict(r.dims), mats_scale(c, r.mats))

    assert len(intertwiner_space(scaled(x), scaled(gx))) == 2
    assert len(intertwiner_space(scaled(x), scaled(y))) == 0
    assert is_isomorphic(scaled(x), scaled(gx))[0] is True
    assert is_isomorphic(scaled(x), scaled(y))[0] is False
    assert stratum_codim(scaled(framed_a1w2_rep([1, 0], [0, 1], [0, 0], [0, 0])), "1") == 0
    assert stratum_codim(scaled(framed_a1w2_rep([1, 0], [2, 0], [0, 0], [0, 0])), "1") == 1
    for m in (np.zeros((3, 2)), np.zeros((3, 0)), np.zeros((0, 3)), c * np.eye(3)[:, :2]):
        want = 2 if m.any() else 0
        assert numerical_rank(np.linalg.svd(m, compute_uv=False), m.shape, 1e-9) == want
    # the Hecke residual gates are degree 1, like the residuals they bound
    (m1, m2), (n1, n2) = _hecke_pairs()
    xi = hecke_check(scaled(m1), scaled(m2), "1")
    assert xi is not None and xi.injective
    assert hecke_check(scaled(n1), scaled(n2), "1") is None
    back = flowline_to_hecke(hecke_to_flowline(scaled(m1), scaled(m2), xi, "1"), "1")
    assert back.injective
    for v, b in xi.blocks.items():
        np.testing.assert_allclose(back.blocks[v], b, rtol=0, atol=1e-12)


def small_f1_rep():
    q = framed_a1()
    return Representation(q, {"1": 0, "inf": 1},
                          [np.zeros((0, 1), dtype=complex),
                           np.zeros((1, 0), dtype=complex)])


def test_hecke_member_pure_b():
    x1 = small_f1_rep()
    x2 = framed_a1_rep(0.0, 1.3)
    xi = hecke_check(x1, x2, "1")
    assert xi is not None
    assert xi.residual == 0.0
    assert xi.space_dim == 0
    assert xi.injective
    assert xi.blocks["1"].shape == (1, 0)
    assert np.allclose(xi.blocks["inf"], np.eye(1))


def test_hecke_nonmember_when_a_nonzero():
    assert hecke_check(small_f1_rep(), framed_a1_rep(1.0, 1.3), "1") is None


def test_hecke_check_guards():
    with pytest.raises(ValueError):
        hecke_check(jordan_rep([[0.0]]), jordan_rep(np.zeros((2, 2))), "1")
    x1 = small_f1_rep()
    with pytest.raises(ValueError):
        hecke_check(x1, framed_a1_rep(0.0, 1.0), "inf")
    with pytest.raises(ValueError):
        hecke_check(framed_a1_rep(0.0, 1.0), framed_a1_rep(0.0, 1.0), "1")


def test_hecke_flowline_roundtrip():
    x1 = small_f1_rep()
    x2 = framed_a1_rep(0.0, 1.3)
    xi = hecke_check(x1, x2, "1")
    pair = hecke_to_flowline(x1, x2, xi, "1")
    assert pair.action_residual == 0.0
    assert pair.slice_residual == 0.0
    # the slice direction reproduces the b entry on the new line
    assert pair.delta[1][0, 0] == pytest.approx(1.3)
    assert mats_norm([pair.delta[0]]) == 0.0
    back = flowline_to_hecke(pair, "1")
    for v in x1.quiver.vertices:
        assert np.array_equal(back.blocks[v], xi.blocks[v])
    # g is fixed only up to a scalar, so only an all-zero g is degenerate
    tiny = flowline_to_hecke(replace(pair, g=[1e-20 * g for g in pair.g]), "1")
    for v in x1.quiver.vertices:
        np.testing.assert_allclose(tiny.blocks[v], xi.blocks[v], rtol=1e-15, atol=0)
    with pytest.raises(ValueError, match="vanishing block"):
        flowline_to_hecke(replace(pair, g=[0 * g for g in pair.g]), "1")


def test_snap_rep_thresholds_entries():
    x = framed_a1_rep(1e-9, 2.0)
    y = snap_rep(x, 1e-6)
    assert y.mats[0][0, 0] == 0.0
    assert y.mats[1][0, 0] == 2.0


def test_affine_project_chain_collapses():
    p, r = affine_project(chain2_rep(2.0), snap_tol="auto")
    assert r.status == "converged"
    assert mats_norm(p.mats) == 0.0


def test_affine_project_keeps_closed_orbit():
    m = np.array([[1.0, 1.0], [0.0, -1.0 + 0.5j]])
    p, r = affine_project(jordan_rep(m), snap_tol="auto")
    assert r.status == "converged"
    ok, _ = is_isomorphic(p, jordan_rep(np.diag([1.0, -1.0 + 0.5j])))
    assert ok


def test_affine_project_semisimplifies_jordan_block():
    p, r = affine_project(jordan_rep([[0.5, 1.0], [0.0, 0.5]]), snap_tol="auto")
    assert r.status == "converged"
    assert rep_distance(p, jordan_rep(0.5 * np.eye(2))) == 0.0
    # already at the collapsed point: projecting again is a no-op
    p2, r2 = affine_project(p, snap_tol="auto")
    assert r2.steps == 0
    assert rep_distance(p2, p) == 0.0


def test_lagrangian_two_slice_seeds_related():
    xc = framed_a1w2_critical(np.sqrt(1.5), np.sqrt(1.5))
    alpha = canonical_stability(xc.quiver, xc.dims)
    basis, _ = negative_slice_basis(xc, alpha)
    s1 = add_tangent(xc, mats_scale(0.4, basis[0]))
    s2 = add_tangent(xc, mats_scale(0.4, basis[1]))
    rep = lagrangian_check(s1, s2)
    assert rep.related
    assert rep.grad1 < 1e-7 and rep.grad2 < 1e-7


def test_lagrangian_distinct_orbits_unrelated():
    rep = lagrangian_check(jordan_rep(np.diag([1.0, 2.0])),
                           jordan_rep(np.diag([1.0, 3.0])))
    assert not rep.related


def test_handsaw_constraint_matches_slot_formula():
    q, dims = hs3((1, 2), (1, 1, 1))
    x = random_rep(q, dims, np.random.default_rng(5))
    C = handsaw_constraint(x)
    assert [c.shape for c in C] == [(2, 1)]
    # edge order: B1_1, B2_1, B2_2, a_1^1, a_2^1, b_2^1, b_3^1
    manual = (x.mats[0] @ x.mats[1] - x.mats[2] @ x.mats[0]
              + x.mats[4] @ x.mats[5])
    assert np.array_equal(C[0], manual)


def test_handsaw_constraint_empty_for_shortest_chain():
    assert handsaw_constraint(hs2_rep(0.7, 1.1, -0.3)) == []


def test_handsaw_adjoint_involution():
    q, dims = hs3((1, 2), (1, 1, 1))
    x = random_rep(q, dims, np.random.default_rng(5))
    y = handsaw_adjoint(x)
    assert rep_distance(handsaw_adjoint(y), x) == 0.0
    # the transported constraint is minus the conjugate transpose slotwise
    C = handsaw_constraint(x)
    Cy = handsaw_constraint(y)
    assert np.max(np.abs(Cy[0] + C[0].conj().T)) == 0.0


def test_handsaw_constraint_independent_of_vertex_names():
    # the chain orientation is read from the edge ends, not from vertex ids
    q, dims = hs3((1, 2), (1, 1, 1))
    x = random_rep(q, dims, np.random.default_rng(5))
    names = {"V1": "p", "V2": "q", "inf": "inf"}
    renamed = Quiver(vertices=tuple(names[v] for v in q.vertices),
                     edges=tuple((names[t], names[h]) for t, h in q.edges),
                     infinity="inf", labels=q.labels)
    xr = Representation(renamed, {names[v]: d for v, d in dims.items()}, x.mats)
    want = handsaw_constraint(handsaw_adjoint(x))
    got = handsaw_constraint(handsaw_adjoint(xr))
    assert len(got) == len(want) == 1
    assert np.array_equal(got[0], want[0])


def test_handsaw_adjoint_rejects_plain_quiver():
    with pytest.raises(ValueError):
        handsaw_adjoint(chain2_rep(1.0))


def test_handsaw_hecke_member_and_rejection():
    q, _ = hs2()
    lam, mu = 0.6, -0.4
    xs = hs2_rep(lam, 0.9, 0.0)
    member = Representation(q, {"V1": 2, "inf": 1},
                            [np.diag([lam, mu]).astype(complex),
                             np.array([[0.9], [0.5]], dtype=complex),
                             np.zeros((1, 2), dtype=complex)])
    xi = handsaw_hecke_check(xs, member, "V1")
    assert xi is not None
    assert xi.residual < 1e-12
    assert xi.surjective
    assert xi.space_dim == 0
    assert np.allclose(xi.blocks["V1"], [[1.0, 0.0]])
    bad = Representation(q, {"V1": 2, "inf": 1},
                         [np.diag([lam, mu]).astype(complex),
                          np.array([[0.9], [0.5]], dtype=complex),
                          np.array([[0.8, 0.2]], dtype=complex)])
    assert handsaw_hecke_check(xs, bad, "V1") is None
