"""JSON forms of the core objects and tolerant parsing of the inputs.

Weights accept ints, floats, "p/q" strings and decimal strings; matrix
entries accept plain numbers, [re, im] pairs, or {"re":..., "im":...}.
File writes go through a temporary file and an atomic replace.
"""
from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction

import numpy as np

from .quiver import Quiver, _dim, check_dims, check_quiver
from .rep import Representation, edge_shapes


def quiver_to_json(q: Quiver) -> dict:
    out = {
        "vertices": list(q.vertices),
        "edges": [
            {"tail": q.tail(e), "head": q.head(e), "label": q.label(e)}
            for e in range(q.nedges)
        ],
        "infinity": q.infinity,
    }
    if q.pairing is not None:
        out["pairing"] = [list(p) for p in q.pairing]
    return out


def quiver_from_json(obj: dict) -> Quiver:
    if not isinstance(obj, dict):
        raise ValueError("quiver document must be an object")
    try:
        vertices = tuple(str(v) for v in obj["vertices"])
        raw_edges = obj["edges"]
    except KeyError as exc:
        raise ValueError(f"quiver document is missing {exc}") from None
    edges = []
    labels: list[str | None] = []
    for i, item in enumerate(raw_edges):
        if isinstance(item, dict):
            lab = item.get("label")
            edges.append((str(item["tail"]), str(item["head"])))
            labels.append(None if lab is None else str(lab))
        elif isinstance(item, (list, tuple)) and len(item) >= 2:
            edges.append((str(item[0]), str(item[1])))
            labels.append(str(item[2]) if len(item) > 2 else None)
        else:
            raise ValueError(f"edge {i} must be an object or a pair")
    infinity = obj.get("infinity")
    if infinity is not None:
        infinity = str(infinity)
    pairing = obj.get("pairing")
    if pairing is not None:
        pairing = tuple((int(a), int(b)) for a, b in pairing)
    q = Quiver(vertices=vertices, edges=tuple(edges), infinity=infinity,
               labels=None if all(l is None for l in labels) else tuple(labels),
               pairing=pairing)
    check_quiver(q)
    return q


def dims_from_json(obj: dict) -> dict:
    data = obj.get("dims", obj) if isinstance(obj, dict) else obj
    if not isinstance(data, dict):
        raise ValueError("dimension document must be an object")
    return {str(v): _dim(str(v), d) for v, d in data.items()}


def parse_weight(value):
    """int | float | Fraction from a JSON scalar; strings may be 'p/q'."""
    if isinstance(value, bool):
        raise ValueError("weights cannot be booleans")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        # JSON Infinity and NaN parse as floats; no slope is defined for them
        if not np.isfinite(value):
            raise ValueError(f"non-finite weight {value!r}")
        return value
    if isinstance(value, str):
        s = value.strip()
        try:
            if "/" in s:
                return Fraction(s)
            f = Fraction(s)
            return int(f) if f.denominator == 1 else f
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse weight {value!r}") from exc
    raise ValueError(f"cannot parse weight {value!r}")


def weights_from_json(obj: dict) -> dict:
    data = obj.get("weights", obj) if isinstance(obj, dict) else obj
    if not isinstance(data, dict):
        raise ValueError("weight document must be an object")
    return {str(v): parse_weight(w) for v, w in data.items()}


def _parse_entry(item) -> complex:
    if isinstance(item, (int, float)):
        return complex(item, 0.0)
    if isinstance(item, dict):
        return complex(float(item.get("re", 0.0)), float(item.get("im", 0.0)))
    if isinstance(item, (list, tuple)) and len(item) == 2:
        return complex(float(item[0]), float(item[1]))
    raise ValueError(f"cannot parse matrix entry {item!r}")


def _matrix_to_json(m) -> list:
    """Rows of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m).tolist()]


def rep_to_json(x: Representation) -> dict:
    return {
        "quiver": quiver_to_json(x.quiver),
        "dims": {v: int(d) for v, d in x.dims.items()},
        "mats": {str(e): _matrix_to_json(m) for e, m in enumerate(x.mats)},
    }


def rep_from_json(obj: dict) -> Representation:
    if not isinstance(obj, dict):
        raise ValueError("representation document must be an object")
    q = quiver_from_json(obj["quiver"])
    dims = check_dims(q, dims_from_json({"dims": obj["dims"]}))
    raw = obj.get("mats", {})
    if not isinstance(raw, dict):
        raise ValueError("mats must be an object keyed by edge index")
    mats = []
    for e, shape in enumerate(edge_shapes(q, dims)):
        entry = raw.get(str(e))
        if entry is None:
            mats.append(np.zeros(shape, dtype=complex))
            continue
        m = np.array([[_parse_entry(z) for z in row] for row in entry], dtype=complex)
        # Representation checks every other shape
        mats.append(m.reshape(shape) if m.size == 0 else m)
    return Representation(q, dims, mats)


def mats_to_json(mats) -> list:
    return [_matrix_to_json(m) for m in mats]


def profile_to_json(profile) -> dict:
    return {
        "eigenvalues": [float(v) for v in profile.eigenvalues],
        "critical_type": [
            {v: int(d) for v, d in dims.items()} for dims in profile.critical_type
        ],
        "offdiag_residual": float(profile.offdiag_residual),
        "grad_norm": float(profile.grad_norm),
        "neg_slice_dim": (None if profile.neg_slice_dim is None
                          else int(profile.neg_slice_dim)),
    }


def intertwiner_to_json(xi) -> dict:
    return {
        "blocks": {v: _matrix_to_json(m) for v, m in xi.blocks.items()},
        "residual": float(xi.residual),
        "space_dim": int(xi.space_dim),
        "injective": xi.injective,
        "surjective": xi.surjective,
    }


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)
