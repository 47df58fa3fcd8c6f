import json
from fractions import Fraction

import numpy as np
import pytest

from quiverflow.correspond import hecke_check
from quiverflow.critical import classify_critical
from quiverflow.fixtures import framed_a1, framed_a1_rep, framed_a1_weights, hs3
from quiverflow.rep import Representation, random_rep, rep_distance
from quiverflow.serde import (
    dims_from_json,
    intertwiner_to_json,
    parse_weight,
    profile_to_json,
    quiver_from_json,
    quiver_to_json,
    read_json,
    rep_from_json,
    rep_to_json,
    weights_from_json,
    write_text_atomic,
)


def test_quiver_roundtrip():
    q = framed_a1()
    back = quiver_from_json(quiver_to_json(q))
    assert back.vertices == q.vertices
    assert back.edges == q.edges
    assert back.infinity == q.infinity
    assert back.labels == q.labels
    assert back.pairing == q.pairing


def test_quiver_roundtrip_handsaw():
    q, _ = hs3((1, 2), (1, 1, 1))
    back = quiver_from_json(quiver_to_json(q))
    assert back.edges == q.edges
    assert back.labels == q.labels


def test_quiver_json_accepts_edge_pairs():
    q = quiver_from_json({"vertices": ["1", "2"], "edges": [["1", "2"]]})
    assert q.edges == (("1", "2"),)
    assert q.labels is None
    with pytest.raises(ValueError):
        quiver_from_json({"vertices": ["1"], "edges": [5]})
    with pytest.raises(ValueError):
        quiver_from_json({"vertices": ["1"]})


def test_dims_roundtrip_and_validation():
    dims = {"1": 2, "inf": 1}
    assert dims_from_json({"dims": dims}) == dims
    assert dims_from_json({"1": 3}) == {"1": 3}
    with pytest.raises(ValueError):
        dims_from_json({"1": -1})


def test_parse_weight_forms():
    assert parse_weight(3) == 3
    assert parse_weight(-0.5) == -0.5
    assert parse_weight("2/3") == Fraction(2, 3)
    assert parse_weight("4") == 4
    assert isinstance(parse_weight("4"), int)
    with pytest.raises(ValueError):
        parse_weight("1/0")
    with pytest.raises(ValueError):
        parse_weight(True)
    with pytest.raises(ValueError):
        parse_weight(None)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            parse_weight(bad)


def test_weights_roundtrip_preserves_fractions():
    doc = json.loads(json.dumps({"weights": {"1": 1, "2": "-3/2", "3": 0.25}}))
    back = weights_from_json(doc)
    assert back["1"] == 1
    assert back["2"] == Fraction(-3, 2)
    assert back["3"] == 0.25


def test_rep_roundtrip():
    x = framed_a1_rep(1.5 - 0.5j, 2.0 + 1.0j)
    back = rep_from_json(rep_to_json(x))
    assert rep_distance(back, x) == 0.0
    assert back.dims == x.dims


def test_rep_roundtrip_with_empty_blocks():
    q, dims = hs3((1, 2), (1, 1, 1))
    dims = dict(dims)
    dims["V1"] = 0
    x = random_rep(q, dims, np.random.default_rng(1))
    back = rep_from_json(rep_to_json(x))
    assert rep_distance(back, x) == 0.0


def test_rep_entry_forms_and_missing_edges():
    doc = {
        "quiver": quiver_to_json(framed_a1()),
        "dims": {"1": 1, "inf": 1},
        "mats": {"0": [[{"re": 1.0, "im": -2.0}]]},
    }
    x = rep_from_json(doc)
    assert x.mats[0][0, 0] == 1.0 - 2.0j
    # absent edge key deserializes as the zero matrix
    assert np.all(x.mats[1] == 0.0)
    doc["mats"]["1"] = [[3.5]]
    assert rep_from_json(doc).mats[1][0, 0] == 3.5
    doc["mats"]["1"] = [[[0.0, 4.0]]]
    assert rep_from_json(doc).mats[1][0, 0] == 4.0j
    doc["mats"]["1"] = [[1.0, 2.0]]
    with pytest.raises(ValueError):
        rep_from_json(doc)


def test_profile_and_intertwiner_json():
    x = framed_a1_rep(0.0, np.sqrt(2))
    prof = classify_critical(x, framed_a1_weights())
    doc = profile_to_json(prof)
    assert doc["critical_type"] == [{"1": 1, "inf": 1}]
    assert doc["grad_norm"] < 1e-8
    json.dumps(doc)

    q = framed_a1()
    x1 = Representation(q, {"1": 0, "inf": 1},
                        [np.zeros((0, 1), dtype=complex),
                         np.zeros((1, 0), dtype=complex)])
    xi = hecke_check(x1, framed_a1_rep(0.0, 1.3), "1")
    doc = intertwiner_to_json(xi)
    assert doc["residual"] == 0.0
    assert doc["injective"] is True
    json.dumps(doc)


def test_atomic_writes(tmp_path):
    target = tmp_path / "out.json"
    write_text_atomic(str(target), '{"b": 1, "a": 2}\n')
    assert read_json(str(target)) == {"a": 2, "b": 1}
    write_text_atomic(str(target), '{"a": 3}\n')
    assert target.read_text() == '{"a": 3}\n'
    # a failed write leaves the old file in place and no temporary behind
    with pytest.raises(TypeError):
        write_text_atomic(str(target), None)
    assert read_json(str(target)) == {"a": 3}
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_read_json_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        read_json(str(bad))
