"""Deterministic end-to-end consistency battery.

Every check is seeded, so two runs with the same seed produce the same
report.
"""
from __future__ import annotations

import numpy as np

from . import fixtures
from .rep import (
    Representation,
    anti_hermitian_part,
    grad_energy,
    group_act,
    hessian_matrix,
    inf_action,
    inf_action_adjoint,
    mult_i,
    mats_norm,
    mats_sub,
    random_mats,
    rep_distance,
    vertex_shapes,
    d_moment_real,
    edge_shapes,
    moment_real,
)
from .flow import FlowOptions, flow
from .critical import classify_critical, hessian_spectrum
from .correspond import (
    flowline_to_hecke,
    handsaw_adjoint,
    hecke_check,
    hecke_to_flowline,
)
from .oracles import fd_gradient, fd_hessian, thin_hn_type
from .serde import rep_from_json, rep_to_json


# step cap of the selfcheck flows: 21 energy samples at the flow's sample stride
_FLOW_STEPS = 200


def _check(name, ok, detail):
    return {"name": name, "ok": bool(ok), "detail": detail}


def _rel(err, scale) -> float:
    return float(err / (1.0 + scale))


def _gradient_check(seed):
    x, alpha = fixtures.random_doubled(seed)
    g = grad_energy(x, alpha)
    f = fd_gradient(x, alpha)
    err = _rel(mats_norm(mats_sub(g, f)), mats_norm(g))
    return _check("gradient-matches-finite-differences", err < 1e-6, err)


def _hessian_check(seed):
    x, alpha = fixtures.random_plain(seed, dmax=2)
    h = hessian_matrix(x, alpha)
    f = fd_hessian(x, alpha)
    err = _rel(np.linalg.norm(h - f), np.linalg.norm(h))
    sym = float(np.linalg.norm(h - h.T))
    ok = err < 1e-5 and sym < 1e-8
    return _check("hessian-matches-finite-differences", ok, err)


def _adjoint_identity_check(seed):
    x, alpha = fixtures.random_doubled(seed + 1)
    rng = np.random.default_rng(seed + 17)
    u = anti_hermitian_part(random_mats(vertex_shapes(x.quiver, x.dims), rng))
    lhs = inf_action_adjoint(x, mult_i(inf_action(x, u)), flavor="compact")
    mu = moment_real(x)
    rhs = [m @ w - w @ m for m, w in zip(mu, u)]
    err = _rel(mats_norm(mats_sub(lhs, rhs)), mats_norm(lhs))
    return _check("adjoint-of-action-identity", err < 1e-10, err)


def _moment_derivative_check(seed):
    x, _ = fixtures.random_doubled(seed + 2)
    rng = np.random.default_rng(seed + 23)
    X = random_mats([m.shape for m in x.mats], rng)
    h = 1e-6
    up = Representation(x.quiver, dict(x.dims),
                        [m + h * d for m, d in zip(x.mats, X)])
    dn = Representation(x.quiver, dict(x.dims),
                        [m - h * d for m, d in zip(x.mats, X)])
    fd = [(a - b) / (2 * h) for a, b in zip(moment_real(up), moment_real(dn))]
    an = d_moment_real(x, X)
    err = _rel(mats_norm(mats_sub(an, fd)), mats_norm(an))
    return _check("moment-derivative", err < 1e-6, err)


def _on_level_set(x: Representation) -> Representation:
    """Zero every reversed edge, which puts x on mu_C^{-1}(0); off it the drift
    test shrinks dt until the flow ends in step_underflow."""
    for _, ab in x.quiver.pairing:
        x.mats[ab] = np.zeros_like(x.mats[ab])
    return x


def _flow_monotone_check(seed):
    x, alpha = fixtures.random_doubled(seed + 3)
    res = flow(_on_level_set(x), alpha, FlowOptions(max_time=5.0, max_steps=_FLOW_STEPS))
    energies = [s[1] for s in res.trajectory]
    drops = all(b <= a + 1e-10 * (1 + abs(a)) for a, b in zip(energies, energies[1:]))
    ok = drops and res.status != "step_underflow"
    return _check("flow-energy-monotone", ok, float(energies[-1]))


def _flow_equivariance_check(seed):
    x, alpha = fixtures.random_doubled(seed + 4)
    x = _on_level_set(x)
    rng = np.random.default_rng(seed + 31)
    g = []
    for v in x.quiver.vertices:
        d = x.dims[v]
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        qmat, _ = np.linalg.qr(m)
        g.append(qmat)
    opts = FlowOptions(max_time=2.0, max_steps=_FLOW_STEPS)
    ra = flow(group_act(g, x), alpha, opts)
    rb = flow(x, alpha, opts)
    b = group_act(g, rb.limit)
    err = _rel(rep_distance(ra.limit, b), b.norm())
    ok = err < 1e-6 and "step_underflow" not in (ra.status, rb.status)
    return _check("flow-unitary-equivariance", ok, err)


def _classify_check(seed):
    x = fixtures.framed_a1_rep(0.0, np.sqrt(2.0))
    alpha = fixtures.framed_a1_weights()
    profile = classify_critical(x, alpha)
    ok = (len(profile.critical_type) == 1
          and profile.critical_type[0] == {"1": 1, "inf": 1})
    return _check("minimum-classifies-as-one-block", ok,
                  [float(v) for v in profile.eigenvalues])


def _saddle_check(seed):
    x = fixtures.framed_a1_rep(0.0, 0.0)
    alpha = {"1": 1, "inf": -1}
    spec, _, _ = hessian_spectrum(x, alpha)
    eigs = sorted({round(float(v), 6) for v, _, _ in spec})
    return _check("saddle-spectrum", eigs == [-2.0, 2.0], eigs)


def _hecke_roundtrip_check(seed):
    q = fixtures.framed_a1()
    x1 = Representation(q, {"1": 0, "inf": 1},
                        [np.zeros((0, 1)), np.zeros((1, 0))])
    x2 = fixtures.framed_a1_rep(0.0, np.sqrt(3.0))
    xi = hecke_check(x1, x2, "1", seed=seed)
    if xi is None:
        return _check("hecke-roundtrip", False, "membership failed")
    pair = hecke_to_flowline(x1, x2, xi, "1")
    back = flowline_to_hecke(pair, "1")
    err = max(pair.action_residual, pair.slice_residual, back.residual)
    return _check("hecke-roundtrip", err < 1e-8, float(err))


def _thin_check(seed):
    x = fixtures.chain3_rep(1.0, 0.0)
    alpha = fixtures.chain3_weights()
    hn = thin_hn_type(x, alpha)
    slopes = [float(s) for _, s in hn]
    return _check("thin-filtration", slopes == [0.5, -1.0], slopes)


def _handsaw_check(seed):
    q, dims = fixtures.hs3()
    rng = np.random.default_rng(seed + 41)
    x = Representation(q, dims, random_mats(edge_shapes(q, dims), rng))
    back = handsaw_adjoint(handsaw_adjoint(x))
    err = rep_distance(back, x)
    return _check("handsaw-adjoint-involution", err == 0.0, float(err))


def _serde_check(seed):
    x, _ = fixtures.random_doubled(seed + 5)
    back = rep_from_json(rep_to_json(x))
    err = rep_distance(back, x)
    return _check("serialization-roundtrip", err < 1e-15, float(err))


def run_selfcheck(seed: int = 0) -> dict:
    seed = int(seed)
    checks = [
        _gradient_check(seed),
        _hessian_check(seed),
        _adjoint_identity_check(seed),
        _moment_derivative_check(seed),
        _flow_monotone_check(seed),
        _flow_equivariance_check(seed),
        _classify_check(seed),
        _saddle_check(seed),
        _hecke_roundtrip_check(seed),
        _thin_check(seed),
        _handsaw_check(seed),
        _serde_check(seed),
    ]
    return {
        "seed": seed,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
