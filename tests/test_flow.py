import sys

import numpy as np
import pytest

from quiverflow.fixtures import (
    chain2_rep,
    chain2_weights,
    framed_a1_rep,
    framed_a1_weights,
    framed_a1w2_critical,
    hs3,
    jordan_rep,
    random_doubled,
    random_plain,
)
import quiverflow.rep as rep
from quiverflow.correspond import handsaw_constraint
from quiverflow.critical import hessian_spectrum, negative_slice_basis
from quiverflow.flow import (
    FlowOptions,
    _rk4,
    flow,
    resolve_constraint,
    trajectory_csv,
)
from quiverflow.quiver import Quiver, crawley_boevey_frame, double_quiver, handsaw_roles
from quiverflow.rep import (
    Representation,
    _view,
    add_tangent,
    direct_sum,
    energy,
    grad_energy,
    group_act,
    mats_norm,
    mats_scale,
    moment_complex,
    random_rep,
    rep_distance,
)


def closed_form_energy(u0, t):
    """Energy along the one-variable flow u' = 2u(2-u) started at u0."""
    u = 2.0 * u0 * np.exp(4.0 * t) / (2.0 + u0 * (np.exp(4.0 * t) - 1.0))
    return (u / 2.0 - 1.0) ** 2


def test_f1_matches_closed_form():
    x0 = framed_a1_rep(0.0, 3.0)
    r = flow(x0, framed_a1_weights(), FlowOptions(dt_init=0.5))
    assert r.status == "converged"
    assert r.final_energy < 1e-12
    assert abs(abs(r.limit.mats[1][0, 0]) - np.sqrt(2)) < 1e-6
    # pure-b data stays on the complex-moment level set exactly
    assert max(r.trajectory[:, 3]) == 0.0
    for t, E, g, c in r.trajectory:
        assert abs(E - closed_form_energy(9.0, t)) < 1e-7


def test_a2_matches_closed_form():
    r = flow(chain2_rep(2.0), chain2_weights())
    assert r.status == "converged"
    assert r.final_energy < 1e-12
    assert abs(abs(r.limit.mats[0][0, 0]) - np.sqrt(2)) < 1e-6
    for t, E, g, c in r.trajectory:
        u = 2.0 / (1.0 - 0.5 * np.exp(-4.0 * t))
        assert abs(E - (u / 2.0 - 1.0) ** 2) < 1e-8


def test_energy_monotone_along_trajectory():
    for seed in range(4):
        x, alpha = random_plain(seed)
        r = flow(x, alpha, FlowOptions(dt_init=0.5, max_time=200.0))
        E = r.trajectory[:, 1]
        assert np.all(np.diff(E) <= 1e-12 * (1.0 + np.abs(E[:-1])))


def test_immediate_return_at_critical_point():
    x0 = framed_a1_rep(0.0, np.sqrt(2))
    r = flow(x0, framed_a1_weights())
    assert r.status == "converged"
    assert r.steps == 0
    assert rep_distance(r.limit, x0) == 0.0


def test_budget_statuses():
    x0 = framed_a1_rep(0.0, 3.0)
    alpha = framed_a1_weights()
    assert flow(x0, alpha, FlowOptions(max_time=1e-3)).status == "max_time"
    assert flow(x0, alpha, FlowOptions(max_steps=2)).status == "max_steps"


def test_flow_ends_exactly_at_max_time():
    # the step that would pass the horizon is cut to end on it
    r = flow(framed_a1_rep(0, 3), framed_a1_weights(), FlowOptions(dt_init=0.1, max_time=0.25))
    assert r.status == "max_time"
    assert r.time == 0.25


@pytest.mark.parametrize("bad", [
    {"dt_init": 0.0}, {"dt_init": -1.0}, {"dt_init": float("inf")},
    {"dt_init": 1e-10}, {"dt_init": float("nan")}, {"max_steps": -5},
    {"grad_tol": 0.0}, {"grad_tol": float("nan")}, {"max_time": 0.0},
    {"max_time": float("inf")},
])
def test_flow_options_reject_bad_values(bad):
    with pytest.raises(ValueError):
        FlowOptions(**bad)


def test_underflow_off_level_set():
    # doubled data away from the complex-moment zero level cannot keep the
    # constraint increment bound, and says so
    x, alpha = random_doubled(seed=2)
    r = flow(x, alpha, FlowOptions(max_time=50.0, dt_init=0.5))
    assert r.status == "step_underflow"
    r2 = flow(x, alpha, FlowOptions(max_time=50.0, dt_init=0.5, constraint="none"))
    assert r2.status == "converged"


def test_nonfinite_input_rejected():
    x = framed_a1_rep(1.0, 1.0)
    x.mats[0][0, 0] = np.nan
    with pytest.raises(ValueError):
        flow(x, framed_a1_weights())


def test_unitary_equivariance_of_limits():
    x, alpha = random_plain(7)
    rng = np.random.default_rng(7)
    g = []
    for v in x.quiver.vertices:
        a = rng.standard_normal((x.dims[v], x.dims[v]))
        b = rng.standard_normal((x.dims[v], x.dims[v]))
        qm, _ = np.linalg.qr(a + 1j * b)
        g.append(qm)
    opts = FlowOptions(dt_init=0.5, max_time=200.0)
    r1 = flow(x, alpha, opts)
    r2 = flow(group_act(g, x), alpha, opts)
    assert r1.status == r2.status == "converged"
    assert rep_distance(r2.limit, group_act(g, r1.limit)) < 1e-6


def test_direct_sum_stays_direct_sum():
    x = direct_sum(framed_a1_rep(0.0, 3.0), framed_a1_rep(0.0, 0.5))
    r = flow(x, framed_a1_weights(), FlowOptions(dt_init=0.5))
    assert r.status == "converged"
    for m in r.limit.mats:
        if m.shape == (2, 2):
            assert abs(m[0, 1]) < 1e-10 and abs(m[1, 0]) < 1e-10
    # each summand reaches its own minimum
    assert abs(abs(r.limit.mats[1][0, 0]) - np.sqrt(2)) < 1e-6
    assert abs(abs(r.limit.mats[1][1, 1]) - np.sqrt(2)) < 1e-6


def test_trajectory_csv_format():
    r = flow(chain2_rep(2.0), chain2_weights(), FlowOptions(dt_init=0.5))
    text = trajectory_csv(r)
    lines = text.strip().split("\n")
    assert lines[0] == "t,energy,grad_norm,constraint_norm"
    assert len(lines) == 1 + len(r.trajectory)
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == 0.0 and row[1] == pytest.approx(1.0)


def test_constraint_norm_kinds():
    x = framed_a1_rep(2.0, 3.0)

    def start_constraint(kind):
        return flow(x, framed_a1_weights(), FlowOptions(max_steps=0, constraint=kind)).final_constraint

    assert start_constraint("none") == 0.0
    assert start_constraint("doubled") == pytest.approx(np.sqrt(72.0))
    with pytest.raises(ValueError):
        flow(x, framed_a1_weights(), FlowOptions(constraint="bogus"))


def test_auto_constraint_on_framed_quiver():
    # the framing edge of vertex "1" is labelled a_1^1, a handsaw label
    q = crawley_boevey_frame(Quiver(("1", "2"), (("1", "2"),)), {"1": 1})
    assert resolve_constraint(q, "auto") == "none"
    x = Representation(q, {"1": 1, "2": 1, "inf": 1},
                       [np.array([[1.0]]), np.array([[2.0]])])
    r = flow(x, {"1": 1, "2": 1, "inf": -2}, FlowOptions(max_steps=50))
    assert r.final_constraint == 0.0
    hs, _ = hs3((1, 1), (1, 1, 1))
    assert resolve_constraint(hs, "auto") == "handsaw"


@pytest.mark.parametrize("start", ["level_set", "random"])
def test_handsaw_flow_reports_its_constraint(start):
    q, dims = hs3((1, 2), (1, 1, 1))
    assert resolve_constraint(q, "auto") == "handsaw"
    x = random_rep(q, dims, np.random.default_rng(0))
    if start == "level_set":
        # with B1 and every b-role edge zero, each handsaw slot vanishes
        x = Representation(q, dims, [np.zeros_like(m) if role[0] in ("B1", "b") else m
                                     for m, role in zip(x.mats, handsaw_roles(q))])
    r = flow(x, {"V1": 1, "V2": 1, "inf": -3})
    assert r.status == "converged"
    assert r.final_constraint == pytest.approx(mats_norm(handsaw_constraint(r.limit)),
                                               rel=1e-12, abs=0.0)
    if start == "level_set":
        assert r.final_constraint == 0.0
    else:
        assert r.final_constraint > 0.1


def test_final_fields_consistent():
    r = flow(chain2_rep(2.0), chain2_weights(), FlowOptions(dt_init=0.5))
    assert r.final_grad_norm == pytest.approx(mats_norm(grad_energy(r.limit, chain2_weights())))
    assert r.final_energy == pytest.approx(energy(r.limit, chain2_weights()))
    assert r.time > 0 and r.steps > 0


@pytest.mark.parametrize("make", [
    lambda: (framed_a1_rep(0.0, 3.0), framed_a1_weights()),
    lambda: random_doubled(seed=2),
], ids=["framed_a1", "off_level_set"])
def test_flow_validates_only_input_and_limit(monkeypatch, make):
    # stage points are bare matrix lists: only the input copy and the limit
    # are validated, whatever the step count
    x0, alpha = make()
    calls = []
    post_init = Representation.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(Representation, "__post_init__", counted)
    r = flow(x0, alpha, FlowOptions(dt_init=0.5, max_time=50.0))
    assert r.steps > 10
    assert len(calls) <= 2


def _loop_multi_edge_zero_dim():
    q = Quiver(("1", "2", "3"), (("1", "1"), ("1", "2"), ("1", "2"), ("2", "3")))
    dims = {"1": 2, "2": 1, "3": 0}
    return random_rep(q, dims, np.random.default_rng(8)), {"1": 0.5, "2": -1.0, "3": 0.7}


def _per_edge(x, alpha):
    """H, the gradient, mu_C and the energy at an unbatched x, summed edge by
    edge from the definitions in the rep module docstring."""
    q = x.quiver
    H = [float(alpha[v]) * np.eye(x.dims[v], dtype=complex) for v in q.vertices]
    for (t, h), m in zip(q.ends, x.mats):
        H[h] = H[h] + 0.5 * m @ m.conj().T
        H[t] = H[t] - 0.5 * m.conj().T @ m
    G = [H[h] @ m - m @ H[t] for (t, h), m in zip(q.ends, x.mats)]
    M = [np.zeros((x.dims[v], x.dims[v]), dtype=complex) for v in q.vertices]
    for a, ab in q.pairing or ():
        t, h = q.ends[a]
        M[h] = M[h] + x.mats[a] @ x.mats[ab]
        M[t] = M[t] - x.mats[ab] @ x.mats[a]
    return H, G, M, 0.5 * sum(np.sum(np.abs(b) ** 2) for b in H)


def _live(x):
    """True on the live corner of each padded edge matrix of x."""
    lay = rep._layout(x.quiver, x.dims)
    live = np.zeros((x.quiver.nedges, lay.d, lay.d), dtype=bool)
    for e, (r, c) in enumerate(lay.shapes):
        live[e, :r, :c] = True
    return live


def _packed_cases():
    rng = np.random.default_rng(18)
    loop, alpha = _loop_multi_edge_zero_dim()
    doubled = double_quiver(loop.quiver)
    framed = double_quiver(crawley_boevey_frame(Quiver(("1",), ()), {"1": 3}))
    edgeless = Quiver(("1", "2"), ())
    two, alpha2 = random_doubled(3)
    offset = [m + 0.5 for m in two.mats]
    return {
        "loop_multi_edge_zero_dim": (loop, alpha),
        "doubled_loop_multi_edge_zero_dim": (random_rep(doubled, loop.dims, rng), alpha),
        "framed": (random_rep(framed, {"1": 2, "inf": 1}, rng), {"1": 1.0, "inf": -2.0}),
        "no_edges": (random_rep(edgeless, {"1": 2, "2": 1}, rng), {"1": 0.3, "2": -0.6}),
        "zero_dims": (random_rep(doubled, {"1": 0, "2": 0, "3": 0}, rng), alpha),
        "batch_of_two": (_view(two, [np.stack(p) for p in zip(two.mats, offset)]), alpha2),
    }


def test_packed_kernels_match_a_per_edge_loop():
    # the packed kernels behind the public H, gradient, mu_C and energy agree
    # with the per-edge sums, and the padding of the packed gradient is 0
    def close(got, want):
        assert np.shape(got) == np.shape(want)
        assert np.linalg.norm(got - want) <= 1e-13 * max(1.0, np.linalg.norm(want))

    for name, (x, alpha) in _packed_cases().items():
        batch = x.mats[0].shape[:-2] if x.mats else ()
        points = [x] if not batch else [_view(x, [m[k] for m in x.mats]) for k in range(batch[0])]
        H = rep._hermitian_moment(x, alpha)
        G = grad_energy(x, alpha)
        M = moment_complex(x) if x.quiver.pairing else None
        total = 0.0
        for k, y in enumerate(points):
            at = (lambda a: a[k]) if batch else (lambda a: a)
            H_k, G_k, M_k, f_k = _per_edge(y, alpha)
            for got, want in zip(H, H_k):
                close(at(got), want)
            for got, want in zip(G, G_k):
                close(at(got), want)
            for got, want in zip(M or (), M_k):
                close(at(got), want)
            total += f_k
        assert abs(energy(x, alpha) - total) <= 1e-13 * max(1.0, total), name
        lay = rep._layout(x.quiver, x.dims)
        packed = rep._gradient(lay, lay.pack(x.mats), lay.shift(alpha))
        assert np.all(packed[..., ~_live(x)] == 0), name


def test_packed_weights_must_match_dims():
    x, alpha = _loop_multi_edge_zero_dim()
    bad = {"1": 0.5, "2": -1.0}
    for call in (lambda: energy(x, bad), lambda: grad_energy(x, bad),
                 lambda: rep._hermitian_moment(x, bad), lambda: flow(x, bad)):
        with pytest.raises(ValueError, match="weight keys must match dimension-vector keys"):
            call()


@pytest.mark.parametrize("make", [
    lambda: (framed_a1_rep(0.0, 3.0), framed_a1_weights()),
    _loop_multi_edge_zero_dim,
], ids=["framed_a1", "loop_multi_edge_zero_dim"])
def test_flow_keeps_padding_zero(monkeypatch, make):
    # the start and every trial point that passes the step-error test go
    # through _energy_and_grad, so every accepted state is checked there
    x0, alpha = make()
    live = _live(x0)
    flow_module = sys.modules[flow.__module__]
    energy_and_grad = flow_module._energy_and_grad
    states = []

    def checked(lay, A, shift):
        states.append(A)
        return energy_and_grad(lay, A, shift)

    monkeypatch.setattr(flow_module, "_energy_and_grad", checked)
    r = flow(x0, alpha, FlowOptions(dt_init=0.5, max_steps=60))
    assert len(states) >= r.steps + 1 and r.steps > 10
    for A in states:
        assert np.all(A[..., ~live] == 0)


@pytest.mark.parametrize("make", [lambda: random_doubled(3), _loop_multi_edge_zero_dim],
                         ids=["random_doubled", "loop_multi_edge_zero_dim"])
def test_rk4_batched_step_sizes_match_scalar_calls(make):
    # flow takes the full step and the first half step as one batch of two
    # step sizes; each must be bitwise the step that a scalar dt gives
    x, alpha = make()
    lay = rep._layout(x.quiver, x.dims)
    shift = lay.shift(alpha)

    def grad(A):
        return rep._gradient(lay, A, shift)

    A = lay.pack(x.mats)
    k1 = grad(A)
    h = 0.3
    both = _rk4(grad, A, k1, np.array([h, h / 2.0])[:, None, None, None])
    for k, dt in enumerate((h, h / 2.0)):
        assert np.array_equal(both[k], _rk4(grad, A, k1, dt))


@pytest.mark.parametrize("make", [
    lambda: (framed_a1_rep(0.0, 3.0), framed_a1_weights()),
    lambda: (chain2_rep(2.0), chain2_weights()),
], ids=["framed_a1", "chain2"])
def test_flow_builds_h_once_per_point(monkeypatch, make):
    # an attempt builds H = i(mu - alpha) 3 times for the batched full and
    # first half steps, 4 times for the second half step and once at the trial
    # point, whose energy and gradient share it; a rejected attempt retries
    # from the same point with new step sizes, so no two builds (a batched
    # build counted as one) see the same edge matrices
    x0, alpha = make()
    seen = []
    attempts = []
    hermitian = rep._hermitian
    flow_module = sys.modules[flow.__module__]

    def recorded(lay, A, shift):
        seen.append(A.tobytes())
        return hermitian(lay, A, shift)

    def counted(*args):
        attempts.append(np.ndim(args[3]) > 0)  # the batched call opens an attempt
        return _rk4(*args)

    monkeypatch.setattr(rep, "_hermitian", recorded)
    monkeypatch.setattr(flow_module, "_rk4", counted)
    r = flow(x0, alpha, FlowOptions(dt_init=0.5))
    assert r.status == "converged"
    n = sum(attempts)
    assert n >= r.steps > 10
    # every attempt builds H at least for its 7 stages, so the hook sees them
    assert 7 * n + 1 <= len(seen) <= 8 * n + 1
    assert len(set(seen)) == len(seen)


def _w2_slice_seed():
    # criterion 09's start: the w = 2 framed critical point plus a slice direction
    xc = framed_a1w2_critical(np.sqrt(1.5), np.sqrt(1.5))
    alpha = {"1": 1, "inf": -2}
    basis, _ = negative_slice_basis(xc, alpha)
    return add_tangent(xc, mats_scale(0.4, basis[0])), alpha


@pytest.mark.parametrize("make, max_steps", [
    (lambda: (framed_a1_rep(0.0, 3.0), framed_a1_weights()), 134),
    (lambda: (chain2_rep(2.0), chain2_weights()), 109),
    (_w2_slice_seed, 163),
], ids=["framed_a1", "chain2", "w2_slice"])
def test_step_count_ceilings(make, max_steps):
    # the error-proportional controller takes 128, 104 and 156 steps with at
    # most 4 rejections; the ceilings are those counts + 5 %
    x0, alpha = make()
    r = flow(x0, alpha, FlowOptions(dt_init=0.5))
    assert r.status == "converged"
    assert r.steps <= max_steps
    assert sum(r.rejected.values()) <= 5


def test_rejections_by_reason():
    x, alpha = random_doubled(seed=2)
    r = flow(x, alpha, FlowOptions(max_time=50.0, dt_init=0.5))
    # the structural-drift stop comes at the third drift rejection in a row
    assert r.status == "step_underflow" and r.rejected["constraint_drift"] == 3
    # a zero-weight flow's first dt of 64 overflows
    r = flow(jordan_rep([[1.0, 1.0], [0.0, 2.0]]), {"1": 0}, FlowOptions(dt_init=64.0))
    assert r.status == "converged" and r.rejected["nonfinite"] > 0


@pytest.mark.parametrize("make", [
    lambda: (framed_a1_rep(0.0, 3.0), framed_a1_weights()),
    lambda: (chain2_rep(2.0), chain2_weights()),
], ids=["framed_a1", "chain2"])
def test_step_stays_in_rk4_stability_interval(monkeypatch, make):
    # near the limit est is tiny, and only the secant stiffness cap keeps
    # h * lambda_max inside RK4's real stability interval [-2.785, 0]; without
    # it h grows to 13.8 / lambda_max on chain2.  The round trips' grad_tol of
    # 1e-11 leaves a tail long enough for the cap to bind.  The secant sees
    # only the modes that the flow excites, so these are flows whose stiffest
    # mode is excited: on criterion 09's w = 2 seed the lambda = 6 mode is
    # not, and h * 6 reaches 6 there
    x0, alpha = make()
    attempts = []
    flow_module = sys.modules[flow.__module__]

    def counted(*args):
        if np.ndim(args[3]) > 0:  # the batched call opens an attempt at h = dt[0]
            attempts.append((mats_norm([args[2]]), float(args[3][0, 0, 0, 0])))
        return _rk4(*args)

    monkeypatch.setattr(flow_module, "_rk4", counted)
    r = flow(x0, alpha, FlowOptions(dt_init=0.5, grad_tol=1e-11))
    assert r.status == "converged" and r.attempts == len(attempts)
    spectrum, _, _ = hessian_spectrum(r.limit, alpha)
    lam_max = max(lam for lam, _, _ in spectrum)
    late = [h for g, h in attempts if g < 1e-6]
    assert late and max(late) * lam_max <= 2.785
