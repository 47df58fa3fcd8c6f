"""Quiver combinatorics: vertices, edges, dimension vectors, stability weights.

Vertex ids are strings.  Edges are (tail, head) pairs addressed by integer
position, so matrix data and labels stay aligned through serialization.
Dimension vectors and stability parameters are plain dicts keyed by vertex id.
Weights may be ints, floats or `fractions.Fraction`; slope arithmetic is exact
whenever no float is involved.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Real
from typing import Iterable, Mapping

Weight = "int | float | Fraction"

_HANDSAW_LABEL = re.compile(r"^(B1|B2)_(\d+)$|^(a|b)_(\d+)\^(\d+)$")


@dataclass(frozen=True)
class Quiver:
    """Directed multigraph with an optional distinguished dimension-1 vertex.

    ``pairing`` records doubled-pair metadata as (edge, reversed edge) index
    pairs.  ``labels`` is positional edge metadata (handsaw roles use it).
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    infinity: str | None = None
    labels: tuple[str | None, ...] | None = None
    pairing: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(str(v) for v in self.vertices))
        object.__setattr__(self, "edges", tuple((str(t), str(h)) for t, h in self.edges))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        if self.pairing is not None:
            object.__setattr__(
                self, "pairing", tuple((int(a), int(b)) for a, b in self.pairing)
            )

    def tail(self, e: int) -> str:
        return self.edges[e][0]

    def head(self, e: int) -> str:
        return self.edges[e][1]

    @cached_property
    def ends(self) -> tuple[tuple[int, int], ...]:
        """(tail, head) vertex positions of each edge, computed once."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        return tuple((pos[t], pos[h]) for t, h in self.edges)

    @property
    def nedges(self) -> int:
        return len(self.edges)

    @property
    def loop_free(self) -> bool:
        return all(t != h for t, h in self.edges)

    @property
    def ordinary_vertices(self) -> tuple[str, ...]:
        """Vertices other than the distinguished one (the set I')."""
        return tuple(v for v in self.vertices if v != self.infinity)

    def edges_into(self, v: str) -> list[int]:
        return [e for e, (_, h) in enumerate(self.edges) if h == v]

    def label(self, e: int) -> str | None:
        return None if self.labels is None else self.labels[e]


@dataclass(frozen=True)
class QuiverReport:
    ok: bool
    loop_free: bool
    problems: tuple[str, ...]


def validate_quiver(q: Quiver) -> QuiverReport:
    """Check structural invariants and report whether the quiver is loop-free."""
    problems = []
    seen = set()
    for v in q.vertices:
        if v in seen:
            problems.append(f"duplicate vertex id {v!r}")
        seen.add(v)
    for e, (t, h) in enumerate(q.edges):
        if t not in seen:
            problems.append(f"edge {e} has dangling tail {t!r}")
        if h not in seen:
            problems.append(f"edge {e} has dangling head {h!r}")
    if q.infinity is not None and q.infinity not in seen:
        problems.append(f"unknown infinity id {q.infinity!r}")
    if q.labels is not None and len(q.labels) != q.nedges:
        problems.append("label list length does not match edge count")
    if q.pairing is not None:
        for a, b in q.pairing:
            if not (0 <= a < q.nedges and 0 <= b < q.nedges):
                problems.append(f"pairing entry ({a},{b}) out of range")
            elif q.edges[b] != (q.edges[a][1], q.edges[a][0]):
                problems.append(f"pairing entry ({a},{b}) does not reverse edge {a}")
    return QuiverReport(ok=not problems, loop_free=q.loop_free, problems=tuple(problems))


def check_quiver(q: Quiver) -> Quiver:
    rep = validate_quiver(q)
    if not rep.ok:
        raise ValueError("invalid quiver: " + "; ".join(rep.problems))
    return q


# ---------------------------------------------------------------------------
# dimension vectors


def _dim(v: str, d, what: str = "dimension") -> int:
    """d as an int; bools, non-numbers and negative, fractional or non-finite d raise."""
    if isinstance(d, bool) or not isinstance(d, Real) or d < 0 or d % 1 != 0:
        raise ValueError(f"{what} at vertex {v!r} must be a nonnegative integer, got {d!r}")
    return int(d)


def check_dims(q: Quiver, dims: Mapping[str, int]) -> dict[str, int]:
    """The one validator of dimension vectors: an int per vertex of q."""
    if set(dims) != set(q.vertices):
        raise ValueError("dimension vector keys must match the quiver vertices: missing "
                         f"{[v for v in q.vertices if v not in dims]}, unknown "
                         f"{[v for v in dims if v not in q.vertices]}")
    return {v: _dim(v, d) for v, d in dims.items()}


# ---------------------------------------------------------------------------
# stability parameters


def _exact(values: Iterable) -> bool:
    return not any(isinstance(w, float) for w in values)


def degree_rank_slope(alpha: Mapping, vp: Mapping[str, int]):
    """Degree, rank and slope of a dimension vector.

    Exact `Fraction` slope when all weights are int/Fraction, float otherwise.
    Raises on the zero dimension vector (slope undefined).
    """
    if set(alpha) != set(vp):
        raise ValueError("weight keys must match dimension-vector keys")
    rank = sum(int(d) for d in vp.values())
    if rank == 0:
        raise ValueError("slope of the zero dimension vector is undefined")
    if _exact(alpha.values()):
        deg = sum(Fraction(alpha[v]) * vp[v] for v in vp)
        return deg, rank, deg / rank
    deg = float(sum(float(alpha[v]) * vp[v] for v in vp))
    return deg, rank, deg / rank


def canonical_stability(q: Quiver, v: Mapping[str, int]) -> dict[str, int]:
    """Weight 1 on every ordinary vertex, minus the total ordinary dimension at
    the distinguished vertex.  Requires dims 1 there."""
    if q.infinity is None:
        raise ValueError("canonical stability needs a distinguished vertex")
    v = check_dims(q, v)
    if v[q.infinity] != 1:
        raise ValueError("canonical stability requires dimension 1 at infinity")
    total = sum(v[u] for u in q.ordinary_vertices)
    alpha = {u: 1 for u in q.ordinary_vertices}
    alpha[q.infinity] = -total
    return alpha


# ---------------------------------------------------------------------------
# constructions


def double_quiver(q: Quiver) -> Quiver:
    """Append a reversed edge for every edge, recording the pairing."""
    edges = list(q.edges) + [(h, t) for t, h in q.edges]
    n = q.nedges
    labels = None
    if q.labels is not None:
        labels = list(q.labels) + [None] * n
    pairing = tuple((e, n + e) for e in range(n))
    return Quiver(
        vertices=q.vertices,
        edges=tuple(edges),
        infinity=q.infinity,
        labels=None if labels is None else tuple(labels),
        pairing=pairing,
    )


def reverse_quiver(q: Quiver) -> Quiver:
    """Reverse every edge, keeping order, labels and pairing metadata."""
    return Quiver(
        vertices=q.vertices,
        edges=tuple((h, t) for t, h in q.edges),
        infinity=q.infinity,
        labels=q.labels,
        pairing=q.pairing,
    )


def crawley_boevey_frame(q: Quiver, w: Mapping[str, int]) -> Quiver:
    """Adjoin the framing vertex "inf" with w[i] edges into each vertex i."""
    if q.infinity is not None:
        raise ValueError("quiver already has a distinguished vertex")
    if "inf" in q.vertices:
        raise ValueError("framing vertex id 'inf' already in use")
    if set(w) - set(q.vertices):
        raise ValueError("framing weights mention unknown vertices")
    w = {v: _dim(v, c, "framing weight") for v, c in w.items()}
    edges = list(q.edges)
    labels = list(q.labels) if q.labels is not None else [None] * q.nedges
    for v in q.vertices:
        for j in range(w.get(v, 0)):
            edges.append(("inf", v))
            labels.append(f"a_{v}^{j + 1}")
    return Quiver(
        vertices=q.vertices + ("inf",),
        edges=tuple(edges),
        infinity="inf",
        labels=tuple(labels),
    )


# ---------------------------------------------------------------------------
# handsaw quivers


def handsaw_to_quiver(n: int, dims_v: tuple, dims_w: tuple):
    """Build the framed chain quiver for a length-n handsaw.

    Vertices V_1..V_{n-1} plus the distinguished vertex "inf"; B1 edges along
    the chain, B2 loops, dims_w[k-1] edges inf->V_k and dims_w[k] edges V_k->inf.
    Returns the quiver and its dimension vector.
    """
    n, infinity = int(n), "inf"
    if n < 2:
        raise ValueError("handsaw needs n >= 2")
    dims_v = tuple(_dim(f"V{k}", d) for k, d in enumerate(dims_v, 1))
    dims_w = tuple(_dim(f"W{k}", d) for k, d in enumerate(dims_w, 1))
    if len(dims_v) != n - 1:
        raise ValueError("dims_v must have n-1 entries")
    if len(dims_w) != n:
        raise ValueError("dims_w must have n entries")
    vs = [f"V{k}" for k in range(1, n)]
    edges: list[tuple[str, str]] = []
    labels: list[str] = []
    for k in range(1, n - 1):
        edges.append((f"V{k}", f"V{k + 1}"))
        labels.append(f"B1_{k}")
    for k in range(1, n):
        edges.append((f"V{k}", f"V{k}"))
        labels.append(f"B2_{k}")
    for k in range(1, n):
        for j in range(dims_w[k - 1]):
            edges.append((infinity, f"V{k}"))
            labels.append(f"a_{k}^{j + 1}")
    for k in range(1, n):
        for j in range(dims_w[k]):
            edges.append((f"V{k}", infinity))
            labels.append(f"b_{k + 1}^{j + 1}")
    q = Quiver(
        vertices=tuple(vs) + (infinity,),
        edges=tuple(edges),
        infinity=infinity,
        labels=tuple(labels),
    )
    dims = {f"V{k}": dims_v[k - 1] for k in range(1, n)}
    dims[infinity] = 1
    return q, dims


def handsaw_roles(q: Quiver) -> list[tuple[str, int, int] | None]:
    """Parse edge labels into (role, k, j) triples; role in {B1, B2, a, b}.

    B-edges report j = 0.  Unlabeled or foreign labels map to None.
    """
    out: list[tuple[str, int, int] | None] = []
    for e in range(q.nedges):
        lab = q.label(e)
        m = _HANDSAW_LABEL.match(lab) if lab else None
        if not m:
            out.append(None)
        elif m.group(1):
            out.append((m.group(1), int(m.group(2)), 0))
        else:
            out.append((m.group(3), int(m.group(4)), int(m.group(5))))
    return out
