"""Small named configurations shared by the tests and the self check."""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .quiver import (
    Quiver,
    crawley_boevey_frame,
    double_quiver,
    handsaw_to_quiver,
)
from .rep import Representation, random_rep


def framed_a1() -> Quiver:
    """One framed vertex, doubled: an arrow each way between 1 and inf."""
    base = Quiver(vertices=("1",), edges=())
    return double_quiver(crawley_boevey_frame(base, {"1": 1}))


def framed_a1_rep(a: complex, b: complex) -> Representation:
    q = framed_a1()
    return Representation(q, {"1": 1, "inf": 1},
                          [np.array([[a]]), np.array([[b]])])


def framed_a1_weights() -> dict:
    return {"1": 1, "inf": -1}


def chain2() -> Quiver:
    return Quiver(vertices=("1", "2"), edges=(("1", "2"),))


def chain2_rep(a: complex) -> Representation:
    return Representation(chain2(), {"1": 1, "2": 1}, [np.array([[a]])])


def chain2_weights() -> dict:
    return {"1": 1, "2": -1}


def chain3() -> Quiver:
    return Quiver(vertices=("1", "2", "3"), edges=(("1", "2"), ("2", "3")))


def chain3_rep(a: complex, b: complex) -> Representation:
    return Representation(chain3(), {"1": 1, "2": 1, "3": 1},
                          [np.array([[a]]), np.array([[b]])])


def chain3_weights() -> dict:
    return {"1": 1, "2": 0, "3": -1}


def jordan() -> Quiver:
    return Quiver(vertices=("1",), edges=(("1", "1"),))


def jordan_rep(m) -> Representation:
    m = np.asarray(m, dtype=complex)
    return Representation(jordan(), {"1": m.shape[0]}, [m])


def framed_a1w2() -> Quiver:
    """One vertex framed with multiplicity two, doubled: four arrows."""
    base = Quiver(vertices=("1",), edges=())
    return double_quiver(crawley_boevey_frame(base, {"1": 2}))


def framed_a1w2_rep(a1, a2, b1, b2) -> Representation:
    """Column maps a1, a2 into the rank-2 vertex and row maps b1, b2 out."""
    q = framed_a1w2()
    a1 = np.asarray(a1, dtype=complex).reshape(2, 1)
    a2 = np.asarray(a2, dtype=complex).reshape(2, 1)
    b1 = np.asarray(b1, dtype=complex).reshape(1, 2)
    b2 = np.asarray(b2, dtype=complex).reshape(1, 2)
    return Representation(q, {"1": 2, "inf": 1}, [a1, a2, b1, b2])


def framed_a1w2_critical(beta1: complex, beta2: complex) -> Representation:
    """A rank-one configuration supported on the leading coordinate, with the
    arrows into the framing vertex carrying (beta1, beta2)."""
    return framed_a1w2_rep([0, 0], [0, 0], [beta1, 0], [beta2, 0])


def hs2():
    """Shortest handsaw: one chain vertex, framing multiplicities (1, 1)."""
    return handsaw_to_quiver(2, (1,), (1, 1))


def hs2_rep(B2: complex, a: complex, b: complex) -> Representation:
    q, dims = hs2()
    return Representation(q, dims,
                          [np.array([[B2]]), np.array([[a]]), np.array([[b]])])


def hs3(dims_v=(1, 1), dims_w=(1, 1, 1)):
    return handsaw_to_quiver(3, dims_v, dims_w)


def _random_triangle(doubled: bool, seed: int, dmax: int):
    q = Quiver(vertices=("1", "2", "3"), edges=(("1", "2"), ("2", "3"), ("1", "3")))
    q = double_quiver(q) if doubled else q
    rng = np.random.default_rng(seed)
    dims = {v: int(rng.integers(1, dmax + 1)) for v in q.vertices}
    a1 = int(rng.integers(-3, 4))
    a2 = int(rng.integers(-3, 4))
    a3 = Fraction(-(a1 * dims["1"] + a2 * dims["2"]), dims["3"])
    return random_rep(q, dims, rng), {"1": a1, "2": a2, "3": a3}


def random_doubled(seed: int = 0, dmax: int = 3):
    """Doubled three-vertex quiver with random dims and an exactly admissible
    rational weight; returns (rep, weights)."""
    return _random_triangle(True, seed, dmax)


def random_plain(seed: int = 0, dmax: int = 3):
    """Undoubled three-vertex quiver variant of random_doubled."""
    return _random_triangle(False, seed, dmax)
