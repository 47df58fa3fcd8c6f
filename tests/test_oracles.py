import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from quiverflow.critical import ClassifyTols, classify_critical
from quiverflow.fixtures import (
    chain2,
    chain2_rep,
    chain2_weights,
    chain3_rep,
    chain3_weights,
    framed_a1,
    framed_a1_rep,
    framed_a1_weights,
    jordan_rep,
)
from quiverflow.flow import FlowOptions, flow
from quiverflow.oracles import _edge_pairs, thin_hn_type
from quiverflow.quiver import Quiver, reverse_quiver
from quiverflow.rep import Representation, group_act, random_rep


def test_thin_hn_chain3_partial_support():
    t = thin_hn_type(chain3_rep(1.0, 0.0), chain3_weights())
    assert t == [({"1": 1, "2": 1, "3": 0}, Fraction(1, 2)),
                 ({"1": 0, "2": 0, "3": 1}, Fraction(-1))]


def test_thin_hn_frozen_small_cases():
    assert thin_hn_type(chain2_rep(0.0), chain2_weights()) == [
        ({"1": 1, "2": 0}, Fraction(1)), ({"1": 0, "2": 1}, Fraction(-1))]
    assert thin_hn_type(chain2_rep(2.0), chain2_weights()) == [
        ({"1": 1, "2": 1}, Fraction(0))]
    assert thin_hn_type(framed_a1_rep(0.0, 0.0), framed_a1_weights()) == [
        ({"1": 1, "inf": 0}, Fraction(1)), ({"1": 0, "inf": 1}, Fraction(-1))]


@pytest.mark.parametrize("c", [1e-13, 1.0, 1e6])
def test_thin_hn_scale_invariant(c):
    # an edge acts relative to the largest edge entry, so rescaling keeps the
    # one semistable piece; an absolute cut splits it into single vertices
    x = chain3_rep(c, c)
    assert thin_hn_type(x, chain3_weights()) == [({"1": 1, "2": 1, "3": 1}, Fraction(0))]


def test_thin_hn_rejects_bad_input():
    with pytest.raises(ValueError):
        thin_hn_type(jordan_rep(np.eye(2)), {"1": 0})
    for threshold in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            thin_hn_type(chain2_rep(1.0), chain2_weights(), threshold=threshold)


def test_thin_hn_equal_slopes_merge_without_warning():
    # two isolated vertices at slope zero: the union dominates by size, so the
    # maximal subobject is unique and no tie warning fires
    q = Quiver(vertices=("1", "2"), edges=())
    x = Representation(q, {"1": 1, "2": 1}, [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t = thin_hn_type(x, {"1": 0, "2": 0})
    assert t == [({"1": 1, "2": 1}, Fraction(0))]
    assert caught == []


def test_thin_hn_invariant_under_diagonal_action():
    rng = np.random.default_rng(3)
    for x, alpha in [(chain3_rep(1.3, 0.0), chain3_weights()),
                     (chain3_rep(0.0, 0.8), chain3_weights()),
                     (framed_a1_rep(0.0, 1.1), framed_a1_weights())]:
        g = [np.array([[c]]) for c in
             rng.standard_normal(3) + 1j * rng.standard_normal(3) + 2.0]
        assert thin_hn_type(group_act(g, x), alpha) == thin_hn_type(x, alpha)


def dual_rep(x):
    return Representation(reverse_quiver(x.quiver), dict(x.dims),
                          [m.conj().T for m in x.mats])


def test_adjoint_duality():
    cases = [(chain3_rep(1.0, 0.0), chain3_weights()),
             (chain3_rep(0.0, 1.0), chain3_weights()),
             (chain3_rep(1.1, 0.7), chain3_weights()),
             (framed_a1_rep(0.0, 1.2), framed_a1_weights()),
             (framed_a1_rep(0.5, 0.0), framed_a1_weights())]
    for x, alpha in cases:
        neg = {v: -Fraction(a) for v, a in alpha.items()}
        y = dual_rep(x)
        expect = [(d, -s) for d, s in reversed(thin_hn_type(x, alpha))]
        assert thin_hn_type(y, neg) == expect


def partition(dims_list):
    return sorted(tuple(sorted(d.items())) for d in dims_list)


def test_flow_limits_match_thin_filtration():
    """Flow a few random thin points and compare the limit's block type with
    the exact combinatorial filtration."""
    rng = np.random.default_rng(123)
    plans = [(chain2(), {"1": 9, "2": -2}), (framed_a1(), {"1": 9, "inf": -2})]
    for q, alpha in plans:
        for _ in range(5):
            dims = {v: int(rng.integers(0, 2)) for v in q.vertices}
            if all(d == 0 for d in dims.values()):
                dims[q.vertices[0]] = 1
            x = random_rep(q, dims, rng)
            r = flow(x, alpha, FlowOptions(dt_init=0.5))
            assert r.status == "converged"
            prof = classify_critical(r.limit, alpha, ClassifyTols(block_tol=1e-6))
            expect = [d for d, _ in thin_hn_type(x, alpha)]
            assert partition(prof.critical_type) == partition(expect)


# ---------------------------------------------------------------------------
# the filtration by its definition, as a cross-check of the cut oracle


def _closed(subset: frozenset, pairs, alive: frozenset) -> bool:
    for t, h in pairs:
        if t in subset and h in alive and h not in subset:
            return False
    return True


def _slope(alpha, subset) -> Fraction:
    total = Fraction(0)
    for v in subset:
        total += Fraction(alpha[v])
    return total / len(subset)


def enumerated_hn_type(x, alpha, threshold=1e-12):
    """The thin filtration by subset enumeration, exponential in the vertices:
    at each stage every closed vertex set of the quotient is listed and the
    one of maximal slope, then maximal size, is split off.  Also returns the
    number of stages at which a smaller closed set ties the maximal slope."""
    pairs = _edge_pairs(x, threshold)
    alive = {v for v in x.quiver.vertices if x.dims[v] == 1}
    out, ties = [], 0
    while alive:
        keys = {combo: (_slope(alpha, combo), r)
                for r in range(1, len(alive) + 1)
                for combo in combinations(sorted(alive), r)
                if _closed(frozenset(combo), pairs, frozenset(alive))}
        combo = max(keys, key=keys.get)
        slope = keys[combo][0]
        ties += sum(s == slope for s, _ in keys.values()) > 1
        out.append(({v: int(v in combo) for v in x.quiver.vertices}, slope))
        alive -= set(combo)
    return out, ties


def random_thin(seed):
    """A thin representation on 1 + seed % 10 vertices.  Edge ends are drawn
    at random, so loops, multi-edges and cycles occur; about one vertex in
    seven has dimension 0; an edge entry is 0, 1e-14 (below the acting
    threshold next to a generic entry) or generic; and the weights are
    integers in [-3, 3], so closed sets of equal slope are common."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 10
    vs = tuple(str(i) for i in range(n))
    ends = rng.integers(0, n, (int(rng.integers(0, 2 * n + 1)), 2))
    q = Quiver(vs, tuple((vs[t], vs[h]) for t, h in ends))
    dims = {v: int(rng.random() < 0.85) for v in vs}
    scales = rng.choice([0.0, 1e-14, 1.0], size=len(ends), p=[0.15, 0.15, 0.7])
    mats = [c * complex(*rng.uniform(0.5, 2.0, 2)) * np.ones((dims[h], dims[t]))
            for c, (t, h) in zip(scales, q.edges)]
    alpha = {v: int(rng.integers(-3, 4)) for v in vs}
    return Representation(q, dims, mats), alpha


def test_thin_hn_matches_enumeration():
    seen = dict.fromkeys(["loop", "multi-edge", "2-cycle", "dimension 0",
                          "below threshold", "tie", "several stages"], 0)
    for seed in range(400):
        x, alpha = random_thin(seed)
        expect, ties = enumerated_hn_type(x, alpha)
        assert thin_hn_type(x, alpha) == expect, seed
        edges = x.quiver.edges
        entries = [abs(m[0, 0]) for m in x.mats if m.size]
        seen["loop"] += any(t == h for t, h in edges)
        seen["multi-edge"] += len(set(edges)) < len(edges)
        seen["2-cycle"] += any(t != h and (h, t) in edges for t, h in edges)
        seen["dimension 0"] += 0 in x.dims.values()
        seen["below threshold"] += any(0 < a <= 1e-12 * max(entries) for a in entries)
        seen["tie"] += ties > 0
        seen["several stages"] += len(expect) > 1
    assert min(seen.values()) >= 20, seen


def thin_quiver(kind, n, rng):
    vs = tuple(str(i) for i in range(n))
    if kind == "chain":
        edges = [(vs[i], vs[i + 1]) for i in range(n - 1)]
    elif kind == "dag":  # each pair joined with probability 2/n, along a random order
        order = [vs[i] for i in rng.permutation(n)]
        edges = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 2.0 / n]
    else:  # a directed cycle through half the vertices, plus random chords
        m = n // 2
        edges = [(vs[i], vs[(i + 1) % m]) for i in range(m)]
        edges += [(vs[t], vs[h]) for t, h in rng.integers(0, n, (m, 2))]
    return Quiver(vs, tuple(edges))


def test_flow_limits_match_thin_filtration_at_scale():
    """Flows on 12-30 vertices end at the block type of the cut oracle.
    Generic weights keep every filtration piece stable, so the flow
    decays exponentially onto its limit."""
    for seed in range(9):
        rng = np.random.default_rng(seed)
        kind, n = ("chain", "dag", "cycle")[seed % 3], (12, 21, 30)[seed // 3]
        q = thin_quiver(kind, n, rng)
        alpha = {v: float(rng.uniform(-9.0, 9.0)) for v in q.vertices}
        x = random_rep(q, {v: 1 for v in q.vertices}, rng)
        r = flow(x, alpha, FlowOptions(dt_init=0.5))
        assert r.status == "converged", (seed, kind, n)
        prof = classify_critical(r.limit, alpha, ClassifyTols(block_tol=1e-6))
        expect = [d for d, _ in thin_hn_type(x, alpha)]
        assert len(expect) > 1, (seed, kind, n)
        assert partition(prof.critical_type) == partition(expect), (seed, kind, n)
