import warnings
from fractions import Fraction

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
from quiverflow.oracles import thin_hn_type
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
