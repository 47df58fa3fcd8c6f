import numpy as np
import pytest
from numpy.testing import assert_allclose

from quiverflow.fixtures import (
    chain2_rep,
    chain2_weights,
    framed_a1,
    framed_a1_rep,
    jordan_rep,
    random_doubled,
    random_plain,
)
from quiverflow.oracles import fd_gradient, fd_hessian
from quiverflow.quiver import Quiver, double_quiver
from quiverflow.rep import (
    Representation,
    _hermitian_moment,
    _view,
    add_tangent,
    d_moment_complex,
    d_moment_real,
    direct_sum,
    edge_shapes,
    embed_rep,
    energy,
    grad_energy,
    group_act,
    hessian_apply,
    hessian_matrix,
    inf_action,
    inf_action_adjoint,
    mats_norm,
    mats_scale,
    moment_complex,
    moment_real,
    mult_i,
    pairing,
    random_mats,
    random_rep,
    ravel_real,
    restrict_rep,
    unravel_real,
    vertex_shapes,
)


def test_rep_validates_shapes():
    q = framed_a1()
    with pytest.raises(ValueError):
        Representation(q, {"1": 1, "inf": 1}, [np.zeros((2, 1)), np.zeros((1, 1))])
    with pytest.raises(ValueError):
        Representation(q, {"1": 1, "inf": 1}, [np.array([[np.inf]]), np.zeros((1, 1))])


def test_single_loop_moment():
    # one nilpotent loop: the commutator [A, A*] is diag(1, -1)
    x = jordan_rep(np.array([[0.0, 1.0], [0.0, 0.0]]))
    mu = moment_real(x)
    assert_allclose(mu[0], np.diag([-0.5j, 0.5j]), atol=1e-14)


def test_moment_head_tail_split():
    x = chain2_rep(2.0)
    mu = moment_real(x)
    assert_allclose(mu[0], [[2.0j]], atol=1e-14)
    assert_allclose(mu[1], [[-2.0j]], atol=1e-14)
    assert energy(x, chain2_weights()) == pytest.approx(1.0)


def test_moment_complex_values():
    x = framed_a1_rep(2.0, 3.0)
    mc = moment_complex(x)
    assert_allclose(mc[0], [[6.0]], atol=1e-14)
    assert_allclose(mc[1], [[-6.0]], atol=1e-14)
    # vanishes whenever one side of the pair is zero
    assert mats_norm(moment_complex(framed_a1_rep(0.0, 3.0))) == 0.0


def test_ravel_round_trip():
    rng = np.random.default_rng(0)
    shapes = [(2, 3), (1, 1), (0, 2)]
    mats = random_mats(shapes, rng)
    back = unravel_real(ravel_real(mats), shapes)
    for m, b in zip(mats, back):
        assert_allclose(m, b)


def test_ravel_round_trip_batch_axes():
    rng = np.random.default_rng(1)
    shapes = [(2, 3), (1, 1), (0, 2)]
    mats = [m.reshape(4, 5, *s) for m, s in
            zip(random_mats([(20 * s[0], s[1]) for s in shapes], rng), shapes)]
    flat = ravel_real(mats)
    assert flat.shape == (4, 5, 14)
    assert_allclose(flat[3, 2], ravel_real([m[3, 2] for m in mats]))
    for m, b in zip(mats, unravel_real(flat, shapes)):
        assert_allclose(m, b)
    # an unbatched matrix broadcasts against the batched ones
    mixed = ravel_real([mats[0], mats[1][0, 0]])
    assert_allclose(mixed[3, 2], ravel_real([mats[0][3, 2], mats[1][0, 0]]))


def _loop_multi_zero_quiver():
    """A loop, a double edge and a zero-dimensional vertex."""
    q = Quiver(vertices=("a", "b", "c", "z"),
               edges=(("a", "a"), ("a", "b"), ("a", "b"), ("b", "c"), ("c", "z"), ("z", "a")))
    return q, {"a": 2, "b": 1, "c": 2, "z": 0}


def test_hessian_matrix_matches_columnwise_apply():
    q, dims = _loop_multi_zero_quiver()
    x = random_rep(q, dims, np.random.default_rng(2))
    alpha = {"a": 2, "b": 0, "c": -1, "z": -1}
    shapes = edge_shapes(q, dims)
    n = 2 * sum(h * t for h, t in shapes)
    cols = [ravel_real(hessian_apply(x, alpha, unravel_real(e, shapes))) for e in np.eye(n)]
    # the batched path does the same arithmetic per column, so it must agree exactly
    np.testing.assert_array_equal(hessian_matrix(x, alpha), np.array(cols).T)


def test_hessian_matrix_without_coordinates():
    q, _ = _loop_multi_zero_quiver()
    x = Representation.zero(q, {"a": 0, "b": 2, "c": 0, "z": 0})
    assert hessian_matrix(x, {"a": 1, "b": 0, "c": 0, "z": -1}).shape == (0, 0)
    bare = Quiver(vertices=("a", "b"), edges=())
    x = Representation.zero(bare, {"a": 1, "b": 2})
    assert hessian_matrix(x, {"a": 1, "b": -1}).shape == (0, 0)


def test_gradient_matches_finite_differences():
    for seed in range(6):
        x, alpha = (random_doubled(seed) if seed % 2 else random_plain(seed))
        g = ravel_real(grad_energy(x, alpha))
        fd = ravel_real(fd_gradient(x, alpha))
        assert np.linalg.norm(g - fd) <= 1e-6 * (1.0 + np.linalg.norm(fd)), seed


def test_hessian_matches_finite_differences():
    for seed in (1, 4):
        x, alpha = random_doubled(seed, dmax=2)
        H = hessian_matrix(x, alpha)
        Hfd = fd_hessian(x, alpha)
        assert np.linalg.norm(H - Hfd) <= 1e-5 * (1.0 + np.linalg.norm(Hfd))
        assert np.linalg.norm(H - H.T) <= 1e-9


def test_action_adjoint_pairing():
    """<rho(u), X> = <u, rho^*(X)> for the compact flavor."""
    rng = np.random.default_rng(3)
    x, _ = random_doubled(3)
    q = x.quiver
    u = [m - m.conj().T for m in random_mats(vertex_shapes(q, x.dims), rng)]
    X = random_mats([m.shape for m in x.mats], rng)
    lhs = pairing(inf_action(x, u), X)
    rhs = pairing(u, inf_action_adjoint(x, X))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_adjoint_commutator_identity():
    """rho^*(i rho(u)) equals the commutator of the moment value with u."""
    for seed in range(5):
        x, _ = random_doubled(seed)
        rng = np.random.default_rng(seed + 100)
        u = [m - m.conj().T for m in random_mats(vertex_shapes(x.quiver, x.dims), rng)]
        lhs = inf_action_adjoint(x, mult_i(inf_action(x, u)))
        mu = moment_real(x)
        rhs = [a @ b - b @ a for a, b in zip(mu, u)]
        err = mats_norm([l - r for l, r in zip(lhs, rhs)])
        assert err <= 1e-10 * (1.0 + mats_norm(rhs))


def test_moment_derivatives_linearize():
    x, _ = random_doubled(11)
    rng = np.random.default_rng(11)
    X = random_mats([m.shape for m in x.mats], rng)
    h = 1e-6
    xp = add_tangent(x, mats_scale(h, X))
    fd_r = [(a - b) / h for a, b in zip(moment_real(xp), moment_real(x))]
    an_r = d_moment_real(x, X)
    assert mats_norm([a - b for a, b in zip(fd_r, an_r)]) <= 1e-5
    fd_c = [(a - b) / h for a, b in zip(moment_complex(xp), moment_complex(x))]
    an_c = d_moment_complex(x, X)
    assert mats_norm([a - b for a, b in zip(fd_c, an_c)]) <= 1e-5


def test_edge_to_vertex_kernels_are_batch_safe():
    # every kernel built on the one edge-to-vertex assembly keeps a leading
    # batch axis and gives, per index, the unbatched result; alpha must shift
    # the diagonal of H at every index of a batch of base points
    x, _ = random_doubled(4)
    alpha = {v: 0.7 for v in x.quiver.vertices}
    rng = np.random.default_rng(4)
    shapes = edge_shapes(x.quiver, x.dims)
    batch = [np.stack(edge) for edge in zip(*(random_mats(shapes, rng) for _ in range(3)))]
    kernels = {
        "inf_action_adjoint compact": lambda X: inf_action_adjoint(x, X),
        "inf_action_adjoint full": lambda X: inf_action_adjoint(x, X, flavor="full"),
        "d_moment_real": lambda X: d_moment_real(x, X),
        "d_moment_complex": lambda X: d_moment_complex(x, X),
        "moment_real": lambda X: moment_real(_view(x, X)),
        "moment_complex": lambda X: moment_complex(_view(x, X)),
        "grad_energy": lambda X: grad_energy(_view(x, X), alpha),
        "hessian_apply": lambda X: hessian_apply(_view(x, X), alpha, X),
    }
    for name, kernel in kernels.items():
        got = kernel(batch)
        for k in range(3):
            want = kernel([m[k] for m in batch])
            for g, w in zip(got, want):
                assert g.shape == (3,) + w.shape, name
                assert_allclose(g[k], w, rtol=1e-13, atol=1e-13, err_msg=name)
    # energy sums over the batch
    total = sum(energy(_view(x, [m[k] for m in batch]), alpha) for k in range(3))
    assert energy(_view(x, batch), alpha) == pytest.approx(total, rel=1e-13)


def test_batched_base_points_with_an_edgeless_vertex():
    # vertex "3" meets no edge: its block of H still carries the batch axis,
    # so energy counts its alpha once per batch index
    q = Quiver(("1", "2", "3"), (("1", "2"),))
    dims = {"1": 1, "2": 1, "3": 2}
    alpha = {"1": 0.5, "2": -1.0, "3": 0.7}
    rng = np.random.default_rng(3)
    for quiver in (q, double_quiver(q)):
        x = random_rep(quiver, dims, rng)
        batch = [np.stack([(k + 1) * m for k in range(3)]) for m in x.mats]
        points = [_view(x, [m[k] for m in batch]) for k in range(3)]
        total = sum(energy(y, alpha) for y in points)
        assert energy(_view(x, batch), alpha) == pytest.approx(total, rel=1e-13)
        kernels = {"_hermitian_moment": lambda y: _hermitian_moment(y, alpha),
                   "moment_real": moment_real}
        if quiver.pairing:
            kernels["moment_complex"] = moment_complex
        for name, kernel in kernels.items():
            got = kernel(_view(x, batch))
            for k, y in enumerate(points):
                for g, w in zip(got, kernel(y)):
                    assert g.shape == (3,) + w.shape, name
                    assert_allclose(g[k], w, rtol=1e-13, atol=1e-13, err_msg=name)


def test_unitary_equivariance():
    x, alpha = random_doubled(5)
    rng = np.random.default_rng(5)
    g = []
    for v in x.quiver.vertices:
        a = rng.standard_normal((x.dims[v], x.dims[v]))
        b = rng.standard_normal((x.dims[v], x.dims[v]))
        qmat, _ = np.linalg.qr(a + 1j * b)
        g.append(qmat)
    y = group_act(g, x)
    assert energy(y, alpha) == pytest.approx(energy(x, alpha))
    assert mats_norm(grad_energy(y, alpha)) == pytest.approx(mats_norm(grad_energy(x, alpha)))
    mux, muy = moment_real(x), moment_real(y)
    for gi, mx, my in zip(g, mux, muy):
        assert_allclose(my, gi @ mx @ gi.conj().T, atol=1e-12)


def test_embed_restrict_direct_sum():
    x = framed_a1_rep(1.0, 2.0)
    big = embed_rep(x, {"1": 2, "inf": 1})
    assert big.dims == {"1": 2, "inf": 1}
    assert_allclose(big.mats[0][:1, :], x.mats[0])
    assert_allclose(restrict_rep(big, x.dims).mats[1], x.mats[1])
    s = direct_sum(x, framed_a1_rep(0.0, 1.0))
    assert s.dims == {"1": 2, "inf": 2}
    assert_allclose(s.mats[1], np.diag([2.0, 1.0]).astype(complex))


def test_add_tangent_rejects_shape_mismatch():
    q = framed_a1()
    small = Representation(q, {"1": 0, "inf": 1},
                           [np.zeros((0, 1), dtype=complex),
                            np.zeros((1, 0), dtype=complex)])
    with pytest.raises(ValueError):
        add_tangent(small, [np.zeros((1, 1)), np.zeros((1, 1))])
