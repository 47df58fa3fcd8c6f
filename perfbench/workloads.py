"""Seeded task lists for the four benchmark workloads.

Each builder turns a seed into a list of tasks.  A task calls the public API
and checks its own result against a closed form or an exact construction; it
returns True when the check passes.  The seed only moves inputs along
symmetries that leave the work unchanged (unitary gauges, phases, directions
inside a slice, exact rationals inside a fixed filtration pattern), so every
seed costs the same and run-to-run spread comes from the machine alone.

Functions are looked up on their modules at call time (``correspond.flow``,
not a local alias) so that a traced pass sees the wrapped versions.
"""
from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import quiverflow.correspond as correspond
import quiverflow.critical as critical
import quiverflow.oracles as oracles
from quiverflow import serde
from quiverflow.quiver import (
    Quiver,
    canonical_stability,
    crawley_boevey_frame,
    double_quiver,
    handsaw_roles,
    handsaw_to_quiver,
)
from quiverflow.rep import (
    Representation,
    add_tangent,
    embed_rep,
    group_act,
    mats_scale,
    random_rep,
    rep_distance,
    restrict_rep,
)

# the package re-exports the function ``flow`` under the submodule's name
qflow = importlib.import_module("quiverflow.flow")


@dataclass
class Task:
    name: str
    run: Callable[[], bool]
    probe: tuple | None = None  # (rep, weights) for the rep-kernel probes


# ---------------------------------------------------------------------------
# shared constructions


def unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def well_conditioned(n, rng):
    """Random invertible matrix with condition number at most 4."""
    return unitary(n, rng) @ np.diag(rng.uniform(0.5, 2.0, n)) @ unitary(n, rng)


def phase(rng):
    return np.exp(2j * np.pi * rng.uniform())


def framed_quiver(w):
    """One vertex framed with multiplicity w, doubled: 2w edges."""
    return double_quiver(crawley_boevey_frame(Quiver(vertices=("1",), edges=()), {"1": w}))


def framed_critical(w, d):
    """Split critical point at dims (d, 1) for the canonical weights:
    a = 0 and b_j = [beta, 0, ..., 0] with sum |b_j|^2 = d + 1.  With d = 1 and
    w = 1 the only split point is the saddle a = b = 0."""
    q = framed_quiver(w)
    dims = {"1": d, "inf": 1}
    mats = [np.zeros((dims[q.head(e)], dims[q.tail(e)]), dtype=complex)
            for e in range(q.nedges)]
    if d > 1:
        for e in range(q.nedges):
            if q.tail(e) == "1":
                mats[e][0, 0] = np.sqrt((d + 1) / w)
    return Representation(q, dims, mats)


def gauge(x, blocks):
    """Act by per-vertex blocks given as a dict; missing vertices get 1."""
    g = [blocks.get(v, np.eye(x.dims[v], dtype=complex)) for v in x.quiver.vertices]
    return group_act(g, x)


def slice_seed(xc, alpha, rng, scale=0.4):
    """xc plus a random unit direction in its negative slice."""
    basis, _ = critical.negative_slice_basis(xc, alpha)
    c = rng.standard_normal(len(basis))
    c /= np.linalg.norm(c)
    combo = [sum(c[i] * b[e] for i, b in enumerate(basis)) for e in range(len(basis[0]))]
    return add_tangent(xc, mats_scale(scale, combo))


def hecke_member_pair(w, d, rng):
    """x1 at dims (d, 1) and x2 at dims (d + 1, 1) with an injective
    intertwiner pinned to 1 at infinity, hidden by a gauge on x2."""
    q = framed_quiver(w)
    x1 = random_rep(q, {"1": d, "inf": 1}, rng)
    d2 = {"1": d + 1, "inf": 1}
    mats = []
    for e in range(q.nedges):
        m = np.zeros((d2[q.head(e)], d2[q.tail(e)]), dtype=complex)
        if q.head(e) == "1":  # a-edge: image of the leading block stays inside it
            m[:d, :] = x1.mats[e]
        else:  # b-edge: leading block is x1's, the new column is free
            m[:, :d] = x1.mats[e]
            m[0, d] = rng.standard_normal() + 1j * rng.standard_normal()
        mats.append(m)
    x2 = gauge(Representation(q, d2, mats), {"1": well_conditioned(d + 1, rng)})
    return x1, x2


def handsaw_member_pair(dims_v1, dims_v2, k, rng):
    """Surjective-membership pair on a length-3 handsaw: x2 is built so that
    a surjective block map xi satisfies xi_h x2_e = x1_e xi_t exactly."""
    q, d1 = handsaw_to_quiver(3, dims_v1, (1, 1, 1))
    _, d2 = handsaw_to_quiver(3, dims_v2, (1, 1, 1))
    x1 = random_rep(q, d1, rng)
    xi = {}
    for v in q.vertices:
        if v == q.infinity:
            xi[v] = np.eye(1, dtype=complex)
        elif v == k:
            xi[v] = unitary(d2[v], rng)[: d1[v], :]
        else:
            xi[v] = well_conditioned(d1[v], rng)
    mats = []
    for e in range(q.nedges):
        h, t = q.head(e), q.tail(e)
        pinv = np.linalg.pinv(xi[h])
        free = np.eye(d2[h], dtype=complex) - pinv @ xi[h]
        c = rng.standard_normal((d2[h], d2[t])) + 1j * rng.standard_normal((d2[h], d2[t]))
        mats.append(pinv @ x1.mats[e] @ xi[t] + free @ c)
    return x1, Representation(q, dict(d2), mats)


def chain_quiver(n):
    vs = tuple(str(i) for i in range(1, n + 1))
    return Quiver(vertices=vs, edges=tuple((vs[i], vs[i + 1]) for i in range(n - 1)))


def thin_chain(n, rng):
    """Thin chain 1 -> ... -> n with every edge nonzero and weights built so
    the filtration is known exactly.  The chain splits into three consecutive
    blocks (sizes fixed by n); going from the tail end, each block is
    semistable (every proper suffix has a strictly smaller slope) and block
    slopes strictly decrease.  Returns (rep, weights, expected filtration)."""
    q = chain_quiver(n)
    sizes = [n // 3, n // 3, n - 2 * (n // 3)]  # from the tail end of the chain
    slopes = [int(rng.integers(4, 8))]
    for _ in sizes[1:]:
        slopes.append(slopes[-1] - int(rng.integers(2, 5)))
    alpha = {}
    expected = []
    end = n
    for size, s in zip(sizes, slopes):
        block = q.vertices[end - size:end]
        suffix = [0] + [-int(rng.integers(1, 4)) for _ in range(size - 1)] + [0]
        for j in range(1, size + 1):  # j-th vertex counted from the block's end
            alpha[block[size - j]] = s + suffix[j] - suffix[j - 1]
        expected.append(({v: int(v in block) for v in q.vertices}, Fraction(s)))
        end -= size
    mats = [rng.uniform(0.5, 2.0) * phase(rng) * np.ones((1, 1)) for _ in range(n - 1)]
    return Representation(q, {v: 1 for v in q.vertices}, mats), alpha, expected


def doubled_triangle():
    return double_quiver(Quiver(vertices=("1", "2", "3"),
                                edges=(("1", "2"), ("2", "3"), ("1", "3"))))


def expected_negative_spectrum(q, dims, alpha):
    """At the zero representation the Hessian acts on edge t -> h by
    alpha_h - alpha_t, with real multiplicity 2 d_h d_t."""
    out = {}
    for e in range(q.nedges):
        lam = alpha[q.head(e)] - alpha[q.tail(e)]
        if lam < 0:
            out[lam] = out.get(lam, 0) + 2 * dims[q.head(e)] * dims[q.tail(e)]
    return sorted(out.items())


def zero_weights(x):
    return {v: 0 for v in x.quiver.vertices}


def eigs_match(m, expected, tol=1e-6):
    got = np.sort_complex(np.linalg.eigvals(m))
    return bool(np.max(np.abs(got - np.sort_complex(np.asarray(expected)))) < tol)


def is_normal(m, tol=1e-6):
    commutator = m @ m.conj().T - m.conj().T @ m
    return float(np.linalg.norm(commutator)) < tol * (1.0 + np.linalg.norm(m) ** 2)


def all_zero(x):
    return all(not m.any() for m in x.mats)


# ---------------------------------------------------------------------------
# roundtrip: flow -> membership -> reconstruction -> flow back (criterion 07)

ROUNDTRIP_OPTS = qflow.FlowOptions(dt_init=0.5, grad_tol=1e-11)


def _roundtrip_task(alpha, x1, seed_rep):
    def run():
        r1 = qflow.flow(seed_rep, alpha, ROUNDTRIP_OPTS)
        if r1.status != "converged":
            return False
        xi = correspond.hecke_check(x1, r1.limit, "1")
        if xi is None:
            return False
        pair = correspond.hecke_to_flowline(x1, r1.limit, xi, "1")
        if pair.action_residual >= 1e-8:
            return False
        seed2 = add_tangent(embed_rep(pair.x1, r1.limit.dims), pair.delta)
        r2 = qflow.flow(seed2, alpha, ROUNDTRIP_OPTS)
        if r2.status != "converged":
            return False
        same, _ = correspond.is_isomorphic(r2.limit, r1.limit, tol=1e-6)
        return same
    return run


def build_roundtrip(seed, ctx):
    rng = np.random.default_rng(seed)
    tasks = []
    for w in (1, 2, 3, 4):
        d = 1 if w == 1 else 2
        xc = framed_critical(w, d)
        alpha = canonical_stability(xc.quiver, xc.dims)
        x1 = restrict_rep(xc, {"1": d - 1, "inf": 1})
        seed_rep = slice_seed(xc, alpha, rng)
        tasks.append(Task(f"roundtrip.w{w}", _roundtrip_task(alpha, x1, seed_rep),
                          (seed_rep, alpha)))
    return tasks


# ---------------------------------------------------------------------------
# projection: zero-weight flows and the Lagrangian comparison

EIGS = [1.0, -1.0 + 0.5j, 0.3 + 0.8j, -0.6 - 0.2j]


def _jordan(m):
    m = np.asarray(m, dtype=complex)
    q = Quiver(vertices=("1",), edges=(("1", "1"),))
    return Representation(q, {"1": m.shape[0]}, [m])


def diagonalisable(ev, u):
    """u S diag(ev) S^-1 u* with a fixed unipotent S: closed orbit diag(ev)."""
    n = len(ev)
    s = np.eye(n) + 0.5 * np.triu(np.ones((n, n)), 1)
    return _jordan(u @ s @ np.diag(ev) @ np.linalg.inv(s) @ u.conj().T)


def extension(ev, u):
    """u (diag(ev) + superdiagonal ones) u*: closed orbit diag(ev)."""
    n = len(ev)
    return _jordan(u @ (np.diag(ev) + np.diag(np.ones(n - 1), 1)) @ u.conj().T)


def _project_task(x, check):
    def run():
        p, r = correspond.affine_project(x, snap_tol="auto")
        return r.status == "converged" and check(p)
    return run


def _lagrangian_task(x1, x2, related):
    def run():
        return correspond.lagrangian_check(x1, x2).related is related
    return run


def build_projection(seed, ctx):
    rng = np.random.default_rng(seed)
    tasks = []

    def add(name, x, check):
        tasks.append(Task(name, _project_task(x, check), (x, zero_weights(x))))

    for make in (diagonalisable, extension):
        for n in (2, 3, 4):
            add(f"project.{make.__name__}{n}", make(EIGS[:n], unitary(n, rng)),
                lambda p, ev=EIGS[:n]: is_normal(p.mats[0]) and eigs_match(p.mats[0], ev))
    # lambda + nilpotent collapses to lambda; the decay is polynomial.  |lambda|
    # is fixed because the step control scales with the norm; both parts of
    # lambda stay well above the snap threshold
    lam = 0.8 * np.exp(1j * (np.pi / 2 * rng.integers(4) + rng.uniform(0.4, np.pi / 2 - 0.4)))
    ph = np.diag([phase(rng) for _ in range(2)])
    nil = lam * np.eye(2) + ph @ np.array([[0, 1], [0, 0]]) @ ph.conj().T
    add("project.nilpotent2", _jordan(nil),
        lambda p: rep_distance(p, _jordan(lam * np.eye(2))) < 1e-8)
    q = chain_quiver(2)
    add("project.chain2", Representation(q, {"1": 1, "2": 1}, [2.0 * phase(rng) * np.ones((1, 1))]),
        all_zero)
    xc = framed_critical(1, 1)
    add("project.slice_seed", slice_seed(xc, canonical_stability(xc.quiver, xc.dims), rng),
        all_zero)

    x_ext = extension(EIGS[:3], unitary(3, rng))
    shared = diagonalisable(EIGS[:3], unitary(3, rng))
    distinct = extension([1.0, -1.0 + 0.5j, 0.3 - 0.8j], unitary(3, rng))
    for name, other, related in (("shared", shared, True), ("distinct", distinct, False)):
        tasks.append(Task(f"lagrangian.{name}", _lagrangian_task(x_ext, other, related),
                          (x_ext, zero_weights(x_ext))))
    return tasks


# ---------------------------------------------------------------------------
# analysis: no flow; every answer known in closed form or by construction


def _spectrum_task(x, alpha, expected):
    def run():
        _, _, profile = critical.hessian_spectrum(x, alpha)
        got = profile.neg_spectrum
        return (len(got) == len(expected)
                and all(m == em and abs(lam - el) < 1e-8
                        for (lam, m), (el, em) in zip(got, expected)))
    return run


def _slice_task(x, alpha, dim):
    def run():
        basis, _ = critical.negative_slice_basis(x, alpha)
        return len(basis) == dim
    return run


def _hecke_task(x1, x2):
    def run():
        xi = correspond.hecke_check(x1, x2, "1")
        return xi is not None and bool(xi.injective)
    return run


def _handsaw_task(x1, x2, k):
    def run():
        xi = correspond.handsaw_hecke_check(x1, x2, k)
        return xi is not None and bool(xi.surjective)
    return run


def _iso_task(x, y):
    def run():
        return correspond.is_isomorphic(x, y)[0]
    return run


def _thin_task(x, alpha, expected):
    def run():
        return oracles.thin_hn_type(x, alpha) == expected
    return run


def build_analysis(seed, ctx):
    rng = np.random.default_rng(seed)
    tasks = []
    tri = doubled_triangle()
    for d in range(1, 7):  # 12 d^2 real coordinates: 12 .. 432
        dims = {v: d for v in tri.vertices}
        # distinct weights, so every seed has n/2 negative directions to check
        a1 = a2 = 0
        while len({a1, a2, -a1 - a2}) < 3:
            a1, a2 = (int(a) for a in rng.integers(-3, 4, 2))
        alpha = {"1": a1, "2": a2, "3": -a1 - a2}
        x = Representation.zero(tri, dims)
        tasks.append(Task(f"hessian_spectrum.n{12 * d * d}",
                          _spectrum_task(x, alpha, expected_negative_spectrum(tri, dims, alpha)),
                          (x, alpha)))
    for w in (2, 3, 4):
        for d in range(2, 7):
            xc = framed_critical(w, d)
            alpha = canonical_stability(xc.quiver, xc.dims)
            x = gauge(xc, {"1": unitary(d, rng), "inf": phase(rng) * np.eye(1)})
            tasks.append(Task(f"negative_slice.w{w}d{d}",
                              _slice_task(x, alpha, 2 * (w - 1) * (d - 1)), (x, alpha)))
    for w in (2, 3, 4):
        for d in (2, 3):
            x1, x2 = hecke_member_pair(w, d, rng)
            tasks.append(Task(f"hecke.w{w}d{d}", _hecke_task(x1, x2),
                              (x2, canonical_stability(x2.quiver, x2.dims))))
    for v1, v2, k in (((1, 1), (1, 2), "V2"), ((1, 1), (2, 1), "V1"), ((2, 1), (2, 2), "V2")):
        x1, x2 = handsaw_member_pair(v1, v2, k, rng)
        tasks.append(Task(f"handsaw_hecke.{k}", _handsaw_task(x1, x2, k),
                          (x2, zero_weights(x2))))
    for dims in ((1, 2, 2), (2, 2, 2), (2, 2, 3), (3, 3, 3)):
        dd = dict(zip(tri.vertices, dims))
        x = random_rep(tri, dd, rng)
        y = gauge(x, {v: well_conditioned(dd[v], rng) for v in tri.vertices})
        tasks.append(Task("is_isomorphic." + "".join(map(str, dims)), _iso_task(x, y),
                          (x, zero_weights(x))))
    for n in range(12, 17):
        x, alpha, expected = thin_chain(n, rng)
        tasks.append(Task(f"thin_hn_type.n{n}", _thin_task(x, alpha, expected), (x, alpha)))
    return tasks


# ---------------------------------------------------------------------------
# cli: one `quiverflow` subprocess per task, inputs written at set-up


def cli_env(src):
    env = dict(os.environ)
    env.pop("QUIVERFLOW_SEED", None)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(ctx, args):
    """Run `quiverflow ARGS` and wait for it; returns (exit code, stdout,
    start, end) with perf_counter times."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "quiverflow.cli", *args],
                          cwd=ctx.workdir, env=ctx.env, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout, t0, time.perf_counter()


def _cli_task(ctx, cmd, args, check):
    def run():
        code, out, t0, t1 = run_cli(ctx, args)
        ctx.record("cli." + cmd, t0, t1)
        if code != 0:
            return False
        if cmd == "help":
            return check(out)
        return check(json.loads(out)["result"])
    return run


def build_cli(seed, ctx):
    rng = np.random.default_rng(seed)
    docs = {}

    def write(name, obj):
        with open(os.path.join(ctx.workdir, name), "w") as fh:
            json.dump(obj, fh)

    def write_rep(name, x):
        docs[name] = x
        write(name, serde.rep_to_json(x))

    write("quiver.json", serde.quiver_to_json(framed_quiver(3)))

    f1 = framed_critical(1, 1)
    f1 = Representation(f1.quiver, f1.dims, [np.zeros((1, 1)), 3.0 * phase(rng) * np.ones((1, 1))])
    write_rep("f1.json", f1)

    w, d = 3, 3
    xc = framed_critical(w, d)
    crit = gauge(xc, {"1": unitary(d, rng), "inf": phase(rng) * np.eye(1)})
    write_rep("crit.json", crit)
    crit_type = [{"1": d - 1, "inf": 0}, {"1": 1, "inf": 1}]

    chain, chain_alpha, chain_hn = thin_chain(10, rng)
    write_rep("chain.json", chain)
    write("chain_weights.json", {"weights": chain_alpha})
    chain_expect = [{"dims": dims, "slope": f"{s.numerator}/{s.denominator}"}
                    for dims, s in chain_hn]

    small, big = hecke_member_pair(2, 2, rng)
    write_rep("small.json", small)
    write_rep("big.json", big)

    write_rep("jordan.json", diagonalisable(EIGS[:3], unitary(3, rng)))

    hq, hdims = handsaw_to_quiver(3, (1, 2), (1, 1, 1))
    hs = random_rep(hq, hdims, rng)
    write_rep("handsaw.json", hs)
    adj = [(-1 if role is not None and role[0] == "b" else 1) * m.conj().T
           for m, role in zip(hs.mats, handsaw_roles(hq))]

    def flow_ok(r):
        b = complex(*r["limit"]["mats"]["1"][0][0])
        return r["status"] == "converged" and abs(abs(b) - np.sqrt(2.0)) < 1e-6

    def project_ok(r):
        m = np.array([[complex(*z) for z in row] for row in r["limit"]["mats"]["0"]])
        return r["status"] == "converged" and is_normal(m) and eigs_match(m, EIGS[:3])

    def adjoint_ok(r):
        got = [np.array([[complex(*z) for z in row] for row in r["mats"][str(e)]],
                        dtype=complex).reshape(m.shape) for e, m in enumerate(adj)]
        return all(np.array_equal(g, m) for g, m in zip(got, adj))

    specs = [
        ("help", ["--help"], lambda out: out.startswith("usage: quiverflow")),
        ("validate", ["validate", "quiver.json"], lambda r: r["ok"] is True),
        ("flow", ["flow", "f1.json", "canonical", "--dt-init", "0.5"], flow_ok),
        ("classify", ["classify", "crit.json", "canonical"],
         lambda r: r["critical_type"] == crit_type),
        ("hn", ["hn", "chain.json", "chain_weights.json"],
         lambda r: r["filtration"] == chain_expect),
        ("negslice", ["negslice", "crit.json", "canonical"],
         lambda r: r["dim"] == 2 * (w - 1) * (d - 1)),
        ("hecke", ["hecke", "small.json", "big.json", "1"],
         lambda r: r["member"] is True and r["intertwiner"]["injective"] is True),
        ("project", ["project", "jordan.json", "--snap", "auto"], project_ok),
        ("handsaw_adjoint", ["handsaw", "adjoint", "handsaw.json"], adjoint_ok),
        ("selfcheck", ["selfcheck", "--seed", "7"],
         lambda r: r["ok"] is True and all(c["ok"] for c in r["checks"])),
    ]
    ctx.serde_docs = list(docs.values())
    return [Task("cli." + cmd, _cli_task(ctx, cmd, args, check)) for cmd, args, check in specs]


BUILDERS = {
    "roundtrip": build_roundtrip,
    "projection": build_projection,
    "analysis": build_analysis,
    "cli": build_cli,
}
