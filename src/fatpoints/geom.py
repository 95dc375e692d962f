"""Exact projective-plane primitives over the rationals.

Points and lines are homogeneous integer triples kept in a canonical form:
coordinates divided by their gcd, with the first nonzero coordinate
positive.  Every projective point or line over Q has exactly one such
representative, so equality and hashing are structural.  All operations
are pure integer arithmetic; values are immutable and safe to share
between threads.  A :class:`ProjPoint` or :class:`ProjLine` *is* its
canonical triple, a ``tuple`` subclass: it unpacks, hashes, compares and
sorts as that triple.  So a point equals a line, or a plain tuple, with
the same triple; no container of the package mixes them.  The incidence
of a point list with the lines through its pairs
(:func:`lines_through_pairs`) holds each of its lines as a :class:`ProjLine`.

Rank computations downstream are unaffected by working over Q instead of
an algebraically closed field: matrix ranks are invariant under field
extension, so rational coordinates are faithful in characteristic zero.
"""

from __future__ import annotations

from math import gcd
from operator import index
from random import Random
from typing import NamedTuple


def canonical_triple(triple) -> tuple[int, int, int]:
    """Return the canonical representative of a homogeneous triple.

    Divides by ``gcd(a, b, c)``, negated when the first nonzero entry is
    negative, so that entry comes out positive.  Idempotent and invariant
    under scaling by nonzero integers; :class:`ProjPoint` and
    :class:`ProjLine` construction goes through it.  A float or a string
    entry is a TypeError (``operator.index``), never truncated.
    """
    a, b, c = map(index, triple)
    g = gcd(a, b, c)
    if not g:
        raise ValueError("homogeneous triple must not be (0, 0, 0)")
    if a < 0 or not a and (b < 0 or not b and c < 0):
        g = -g
    return (a // g, b // g, c // g)


def cross(u: tuple[int, int, int], v: tuple[int, int, int]) -> tuple[int, int, int]:
    """The cross product: the line through two points, or the meet of two
    lines, as a triple not yet made canonical."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


class _Triple(tuple):
    """A canonical homogeneous triple (:func:`canonical_triple`)."""

    __slots__ = ()

    def __new__(cls, triple):
        return tuple.__new__(cls, canonical_triple(triple))

    def __repr__(self) -> str:
        a, b, c = self
        return f"{type(self).__name__}(({a}:{b}:{c}))"


class ProjPoint(_Triple):
    """A point of the projective plane with canonical integer coordinates."""

    __slots__ = ()


class ProjLine(_Triple):
    """A line a*x0 + b*x1 + c*x2 = 0 with canonical integer coefficients."""

    __slots__ = ()


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """The unique line through two distinct points (cross product)."""
    if p == q:
        raise ValueError(f"no unique line through {p} twice")
    return ProjLine(cross(p, q))


class PairLines(NamedTuple):
    """The lines through two of a point list, with their incidences.

    ``lines[k]`` is line k, a :class:`ProjLine`, in increasing order;
    ``members[k]`` lists the indices of the points on it, increasing;
    ``through[i]`` lists the indices of the lines through point i,
    increasing.  Shared read-only: callers hand the lines out as they are.
    """

    lines: list[ProjLine]
    members: list[list[int]]
    through: list[list[int]]


def lines_through_pairs(points) -> PairLines:
    """The incidence of the distinct ``points`` with every line through two
    of them (:class:`PairLines`).

    Every point on such a line spans it with another point on it, so the
    pairs alone find every incidence.  The kernel works on the coordinate
    triples: the cross product of each pair, made canonical as in
    :func:`canonical_triple`, keys a dict of member lists.  Pairs (i, j)
    come in lexicographic order, so a line is first met at its two lowest
    members and then through its lowest member with each later one; a pair
    whose first point is not the line's lowest adds nothing.  Each distinct
    key, canonical already, becomes a :class:`ProjLine` once, after the
    pairs, with no second :func:`canonical_triple` pass.  Raises
    ValueError when two of the points are equal.
    """
    on: dict[tuple[int, int, int], list[int]] = {}
    for i, (a1, b1, c1) in enumerate(points):
        for j in range(i + 1, len(points)):
            a2, b2, c2 = points[j]
            a = b1 * c2 - c1 * b2
            b = c1 * a2 - a1 * c2
            c = a1 * b2 - b1 * a2
            g = gcd(a, b, c)
            if not g:
                raise ValueError(f"no unique line through {points[i]} twice")
            if a < 0 or not a and (b < 0 or not b and c < 0):
                g = -g
            key = (a // g, b // g, c // g)
            idx = on.get(key)
            if idx is None:
                on[key] = [i, j]
            elif idx[0] == i:
                idx.append(j)
    keys = sorted(on)
    members = [on[key] for key in keys]
    through: list[list[int]] = [[] for _ in points]
    for k, idx in enumerate(members):
        for i in idx:
            through[i].append(k)
    lines = [tuple.__new__(ProjLine, key) for key in keys]
    return PairLines(lines, members, through)


def meet(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """The unique intersection point of two distinct lines."""
    if l1 == l2:
        raise ValueError(f"no unique meet of {l1} with itself")
    return ProjPoint(cross(l1, l2))


def incident(p: ProjPoint, l: ProjLine) -> bool:
    """Exact incidence test: the dot product vanishes."""
    pa, pb, pc = p
    la, lb, lc = l
    return pa * la + pb * lb + pc * lc == 0


def random_line(rng: Random, bound: int) -> ProjLine:
    """A random line with coefficients sampled uniformly from [-bound, bound]."""
    while True:
        triple = tuple(rng.randint(-bound, bound) for _ in range(3))
        if triple != (0, 0, 0):
            return ProjLine(triple)


def line_basis(l: ProjLine) -> tuple[ProjPoint, ProjPoint]:
    """Two distinct points spanning the given line."""
    a, b, c = l
    if a != 0:
        return ProjPoint((-b, a, 0)), ProjPoint((-c, 0, a))
    if b != 0:
        return ProjPoint((1, 0, 0)), ProjPoint((0, -c, b))
    return ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0))


def random_combination(b1: ProjPoint, b2: ProjPoint, rng: Random, bound: int) -> ProjPoint:
    """A random point on the line through b1 and b2 (a :func:`line_basis`):
    u*b1 + v*b2 for u, v drawn uniformly from [-bound, bound], redrawn
    while both are zero."""
    while True:
        u = rng.randint(-bound, bound)
        v = rng.randint(-bound, bound)
        if u == 0 and v == 0:
            continue
        triple = tuple(u * x + v * y for x, y in zip(b1, b2))
        return ProjPoint(triple)
