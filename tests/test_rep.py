import numpy as np
import pytest
from numpy.testing import assert_allclose

from quiverflow.fixtures import (
    chain2_rep,
    chain2_weights,
    framed_a1,
    framed_a1_rep,
    framed_a1_weights,
    jordan_rep,
    random_doubled,
    random_plain,
)
from quiverflow.oracles import fd_gradient, fd_hessian
from quiverflow.rep import (
    Representation,
    add_tangent,
    central_element,
    d_moment_complex,
    d_moment_real,
    direct_sum,
    embed_rep,
    energy,
    grad_energy,
    grad_norm,
    group_act,
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


def test_central_element():
    q = framed_a1()
    ce = central_element(q, framed_a1_weights(), {"1": 1, "inf": 1})
    assert_allclose(ce[0], [[1j]])
    assert_allclose(ce[1], [[-1j]])


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
    assert grad_norm(y, alpha) == pytest.approx(grad_norm(x, alpha))
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
