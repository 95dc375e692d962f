"""Fat point schemes in the projective plane.

A scheme is a finite set of distinct points with positive multiplicities,
held as the tuple of its (point, multiplicity) pairs sorted by point.  Its
degree is the number of linear conditions it imposes in large degree,
``sum of C(m_i + 1, 2)``.  Removing a line decrements the multiplicity of
every point on it (the ideal-quotient residual for fat points), which is
the whole computational content of reduction vectors.  Each scheme
carries one greedy reduction vector, whose Cooper-Harbourne-Teitler
bounds f_v <= H <= F_v settle or pin the exact values of
:mod:`fatpoints.hilbert`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .geom import PairLines, ProjLine, ProjPoint, incident
from .geom import lines_through_pairs
from .geom import json_array, json_field, json_int
from .geom import line_from_json, point_from_json, triple_to_json


class FatPointScheme(tuple):
    """The tuple of (point, multiplicity) pairs sorted by point, built from
    pairs in any order.  No ``__slots__``: :attr:`pair_lines` and
    :attr:`greedy_reduction` are cached in its instance dict."""

    def __new__(cls, entries):
        return tuple.__new__(cls, sorted(entries))

    @classmethod
    def from_points(cls, points, mults) -> "FatPointScheme":
        points = list(points)
        mults = list(mults)
        if len(points) != len(mults):
            raise ValueError("points and multiplicities differ in length")
        seen = {}
        for p, m in zip(points, mults):
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ValueError(f"multiplicity {m!r} for {p}")
            if p in seen:
                raise ValueError(f"point {p} listed twice")
            seen[p] = m
        return cls(seen.items())

    def support(self) -> tuple[ProjPoint, ...]:
        return tuple(p for p, _ in self)

    def degree(self) -> int:
        return sum(comb(m + 1, 2) for _, m in self)

    def residual(self, l: ProjLine) -> "FatPointScheme":
        """Decrement every multiplicity on l by one, dropping zeros."""
        out = []
        for p, m in self:
            if incident(p, l):
                if m > 1:
                    out.append((p, m - 1))
            else:
                out.append((p, m))
        return FatPointScheme(out)

    @cached_property
    def pair_lines(self) -> PairLines:
        """The incidence of the support with every line through two of its
        points, indexed as :meth:`support` (:func:`lines_through_pairs`).

        Computed on first use; :func:`kconfig.fatten` hands over the
        incidence of its configuration instead.  Read-only: it may be shared.
        """
        return lines_through_pairs(self.support())

    @cached_property
    def greedy_reduction(self) -> "ReductionVector | None":
        """The complete reduction vector of greedy peeling; None when empty.

        Each step removes, among the lines through two support points, the
        heaviest in the residual scheme (among equals, the first in
        coefficient order, the order of :attr:`pair_lines`).  Every point
        on it that still has a multiplicity loses one, and so does the
        weight of every line through that point.  The peel reads the
        lines, member and per-point line lists of :attr:`pair_lines` as
        they are, and hands out the chosen :class:`ProjLine` objects.  A
        single point of multiplicity m takes one line through it m times,
        so v = (m, m - 1, ..., 1) and f_v = F_v = H everywhere.
        """
        if not self:
            return None
        if len(self) == 1:
            (a, b, _), m = self[0]
            line = ProjLine((b, -a, 0) if a or b else (1, 0, 0))
            return ReductionVector(tuple(range(m, 0, -1)), (line,) * m, True)
        lines, members, through = self.pair_lines
        mult = [m for _, m in self]
        weight = [sum(map(mult.__getitem__, idx)) for idx in members]
        values, chosen = [], []
        while any(mult):
            k = weight.index(max(weight))
            values.append(weight[k])
            chosen.append(lines[k])
            for i in members[k]:
                if mult[i]:
                    mult[i] -= 1
                    for j in through[i]:
                        weight[j] -= 1
        return ReductionVector(tuple(values), tuple(chosen), True)


@dataclass(frozen=True)
class ReductionVector:
    """Degrees removed by a sequence of lines, with completeness flag."""

    values: tuple[int, ...]
    lines: tuple[ProjLine, ...]
    complete: bool

    def sandwich(self, t: int) -> tuple[int, int]:
        """(f_v(t), F_v(t)), the Cooper-Harbourne-Teitler bounds on H_Z(t).

        f_v(t) = sum_i max(0, min(t - i + 1, v_{i+1})) bounds H_Z(t) below
        for any line sequence (the residual-sequence proof is in
        :mod:`fatpoints.hilbert`).  F_v(t) = min_i [C(t+2,2) - C(t-i+2,2) +
        sum_{j>i} v_j] bounds it above when the reduction is complete.

        One pass over the first t + 1 entries: C(t+2,2) - C(t-i+2,2) is the
        running sum ``acc`` of max(t + 1 - k, 0) over k < i, and ``rest`` is
        the running tail sum.  From i = t + 2 on, ``acc`` stays C(t+2,2) and
        each term is at least it, with equality at the last i, so F_v(t) is
        ``min(best, acc)``.  Both are 0 for t < 0, as the entries (line
        degrees) are nonnegative.
        """
        f = acc = 0
        rest = best = sum(self.values)
        for room, v in zip(range(t + 1, 0, -1), self.values):
            f += v if v < room else room
            acc += room
            rest -= v
            if acc + rest < best:
                best = acc + rest
        return f, min(best, acc)


def reduction_vector(z: FatPointScheme, lines) -> ReductionVector:
    """Record deg(L_i meet Z_{i-1}) along the residual chain (see
    :func:`vector_of_chain`)."""
    lines = tuple(lines)
    return vector_of_chain(residual_chain(z, lines), lines)


def vector_of_chain(chain: list[FatPointScheme], lines) -> ReductionVector:
    """The reduction vector of ``lines`` read off their residual chain.

    Each entry is a degree drop, deg Z_{i-1} - deg Z_i: a point of
    multiplicity m on L_i goes down to m - 1 and so removes C(m+1,2) -
    C(m,2) = m conditions, and the drop is the sum of the multiplicities
    on L_i.  The reduction is complete when the final residual scheme is
    empty; both the chain and the flag stop with the supplied sequence, so
    partial reductions can be studied as-is.
    """
    degrees = [w.degree() for w in chain]
    values = tuple(a - b for a, b in zip(degrees, degrees[1:]))
    return ReductionVector(values, tuple(lines), not chain[-1])


def residual_chain(z: FatPointScheme, lines) -> list[FatPointScheme]:
    """The full chain Z_0, Z_1, ..., one scheme per removed line."""
    chain = [z]
    for l in lines:
        chain.append(chain[-1].residual(l))
    return chain


# --- JSON wire format -----------------------------------------------------

def scheme_from_json(data: dict) -> FatPointScheme:
    points = [point_from_json(t) for t in json_field(data, "points")]
    mults = [json_int(m) for m in json_field(data, "mults")]
    return FatPointScheme.from_points(points, mults)


def lines_from_json(data) -> list[ProjLine]:
    return [line_from_json(t) for t in json_array(data, "lines")]


def lines_to_json(lines) -> list[list[str]]:
    return [triple_to_json(l) for l in lines]
