from fractions import Fraction

import pytest

from quiverflow.quiver import (
    Quiver,
    canonical_stability,
    check_dims,
    crawley_boevey_frame,
    degree_rank_slope,
    double_quiver,
    handsaw_roles,
    handsaw_to_quiver,
    reverse_quiver,
    validate_quiver,
)


def test_validate_good_quiver():
    q = Quiver(vertices=("1", "2"), edges=(("1", "2"),))
    rep = validate_quiver(q)
    assert rep.ok
    assert rep.loop_free
    assert rep.problems == ()


def test_validate_reports_problems():
    q = Quiver(vertices=("1", "1"), edges=(("1", "3"),))
    rep = validate_quiver(q)
    assert not rep.ok
    assert any("duplicate" in p for p in rep.problems)
    assert any("dangling" in p for p in rep.problems)


def test_validate_bad_pairing():
    q = Quiver(vertices=("1", "2"), edges=(("1", "2"), ("1", "2")),
               pairing=((0, 1),))
    rep = validate_quiver(q)
    assert not rep.ok
    assert any("reverse" in p for p in rep.problems)


def test_loops_detected():
    q = Quiver(vertices=("1",), edges=(("1", "1"),))
    assert not q.loop_free
    assert validate_quiver(q).ok


def test_check_dims():
    q = Quiver(vertices=("1", "2"), edges=())
    assert check_dims(q, {"1": 2, "2": 0}) == {"1": 2, "2": 0}
    with pytest.raises(ValueError):
        check_dims(q, {"1": 2})
    with pytest.raises(ValueError):
        check_dims(q, {"1": -1, "2": 0})
    # a fraction or a bool is not truncated to a dimension
    for bad in (1.7, True, "2"):
        with pytest.raises(ValueError, match="vertex '1'"):
            check_dims(q, {"1": bad, "2": 0})
    assert check_dims(q, {"1": 2.0, "2": 1}) == {"1": 2, "2": 1}


def test_double_quiver_pairing():
    q = Quiver(vertices=("1", "2"), edges=(("1", "2"),))
    dq = double_quiver(q)
    assert dq.edges == (("1", "2"), ("2", "1"))
    assert dq.pairing == ((0, 1),)


def test_reverse_round_trip():
    q = Quiver(vertices=("1", "2", "3"), edges=(("1", "2"), ("2", "3")),
               labels=("x", "y"))
    r = reverse_quiver(q)
    assert r.edges == (("2", "1"), ("3", "2"))
    assert r.labels == ("x", "y")
    assert reverse_quiver(r).edges == q.edges


def test_crawley_boevey_frame():
    base = Quiver(vertices=("1", "2"), edges=(("1", "2"),))
    framed = crawley_boevey_frame(base, {"1": 2, "2": 0})
    # distinguished vertex appended last, one edge per framing unit
    assert framed.vertices == ("1", "2", "inf")
    assert framed.infinity == "inf"
    assert framed.edges == (("1", "2"), ("inf", "1"), ("inf", "1"))
    assert framed.labels[1:] == ("a_1^1", "a_1^2")


def test_crawley_boevey_frame_validates_weights():
    # a weight is validated like a dimension, never truncated to an edge count
    base = Quiver(vertices=("1", "2"), edges=(("1", "2"),))
    for bad in (1.7, True, -1, float("nan"), "2"):
        with pytest.raises(ValueError, match="framing weight at vertex '1'"):
            crawley_boevey_frame(base, {"1": bad})
    assert crawley_boevey_frame(base, {"1": 2.0}).edges == (("1", "2"), ("inf", "1"), ("inf", "1"))


def test_handsaw_structure():
    q, dims = handsaw_to_quiver(3, (1, 2), (1, 1, 1))
    assert q.vertices == ("V1", "V2", "inf")
    assert dims == {"V1": 1, "V2": 2, "inf": 1}
    assert q.edges == (
        ("V1", "V2"),
        ("V1", "V1"), ("V2", "V2"),
        ("inf", "V1"), ("inf", "V2"),
        ("V1", "inf"), ("V2", "inf"),
    )
    assert q.labels == ("B1_1", "B2_1", "B2_2", "a_1^1", "a_2^1", "b_2^1", "b_3^1")
    roles = handsaw_roles(q)
    assert roles[0] == ("B1", 1, 0)
    assert roles[3] == ("a", 1, 1)
    assert roles[6] == ("b", 3, 1)


def test_handsaw_rejects_bad_shapes():
    with pytest.raises(ValueError):
        handsaw_to_quiver(1, (), (1,))
    with pytest.raises(ValueError):
        handsaw_to_quiver(3, (1,), (1, 1, 1))
    with pytest.raises(ValueError):
        handsaw_to_quiver(2, (-1,), (1, 1))


def test_degree_rank_slope_exact():
    alpha = {"1": 1, "inf": -1}
    deg, rank, mu = degree_rank_slope(alpha, {"1": 0, "inf": 1})
    assert (deg, rank, mu) == (Fraction(-1), 1, Fraction(-1))
    deg, rank, mu = degree_rank_slope(alpha, {"1": 1, "inf": 1})
    assert (deg, rank, mu) == (0, 2, 0)
    with pytest.raises(ValueError):
        degree_rank_slope(alpha, {"1": 0, "inf": 0})
    with pytest.raises(ValueError):
        degree_rank_slope(alpha, {"1": 1})


def test_canonical_stability():
    base = Quiver(vertices=("1",), edges=())
    q = crawley_boevey_frame(base, {"1": 1})
    assert canonical_stability(q, {"1": 1, "inf": 1}) == {"1": 1, "inf": -1}
    assert canonical_stability(q, {"1": 2, "inf": 1}) == {"1": 1, "inf": -2}
    with pytest.raises(ValueError):
        canonical_stability(q, {"1": 1, "inf": 2})
    plain = Quiver(vertices=("1",), edges=())
    with pytest.raises(ValueError):
        canonical_stability(plain, {"1": 1})



def test_edge_ends_cached_outside_equality():
    q = Quiver(vertices=("a", "b"), edges=(("a", "b"), ("b", "b"), ("b", "a")))
    assert q.ends == ((0, 1), (1, 1), (1, 0))
    assert q.ends is q.ends
    fresh = Quiver(vertices=("a", "b"), edges=(("a", "b"), ("b", "b"), ("b", "a")))
    assert q == fresh and hash(q) == hash(fresh)
