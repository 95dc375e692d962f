"""k-configurations of points in the projective plane.

A configuration of type (d_1 < ... < d_s) is a union of subsets X_i of
sizes d_i, each on its own line L_i, where every later line avoids all
earlier subsets.  This module provides validation against those defining
conditions, seeded generators for arbitrary types and for prescribed
counts of maximal lines, the count of lines meeting X in k points, and
the passage to fat point schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import index
from random import Random

from .geom import (
    PairLines,
    ProjLine,
    ProjPoint,
    canonical_triple,
    cross,
    incident,
    line_from_json,
    line_basis,
    lines_through_pairs,
    meet,
    point_from_json,
    random_combination,
    random_line,
    triple_to_json,
)
from .geom import json_array, json_field, json_int
from .scheme import FatPointScheme


class InfeasibleLineCount(ValueError):
    """Requested count is in range but no such configuration exists."""


class GenerationFailed(RuntimeError):
    """Rejection sampling exhausted its retry budget."""


class KType(tuple):
    """The type (d_1, ..., d_s), the strictly increasing tuple of positive
    integer subset sizes, which it equals, hashes and prints as."""

    __slots__ = ()

    def __new__(cls, d):
        d = tuple(map(index, d))
        if not d:
            raise ValueError("a type needs at least one entry")
        if d[0] < 1 or any(a >= b for a, b in zip(d, d[1:])):
            raise ValueError(f"type entries must satisfy 1 <= d_1 < ... < d_s: {d}")
        return tuple.__new__(cls, d)

    @property
    def s(self) -> int:
        return len(self)

    @property
    def ds(self) -> int:
        return self[-1]

    def is_single_point(self) -> bool:
        return self == (1,)


@dataclass(frozen=True)
class KConfiguration:
    ktype: KType
    subsets: tuple[tuple[ProjPoint, ...], ...]
    lines: tuple[ProjLine, ...]

    def __post_init__(self):
        object.__setattr__(self, "subsets", tuple(tuple(sorted(s)) for s in self.subsets))
        object.__setattr__(self, "lines", tuple(self.lines))

    def points(self) -> tuple[ProjPoint, ...]:
        return self._sorted_points

    @cached_property
    def _sorted_points(self) -> tuple[ProjPoint, ...]:
        return tuple(sorted({p for sub in self.subsets for p in sub}))

    @cached_property
    def pair_lines(self) -> PairLines:
        """The incidence of the points with every line through two of them,
        indexed as :meth:`points` (:func:`lines_through_pairs`).

        Computed once per configuration and shared, read-only, by
        :func:`count_lines` and by the greedy peels of the schemes
        :func:`fatten` builds on it.
        """
        return lines_through_pairs(self.points())


def validate(x: KConfiguration) -> list[str]:
    """All violations of the defining conditions; empty means valid."""
    problems = []
    d = x.ktype
    s = x.ktype.s
    if len(x.subsets) != s or len(x.lines) != s:
        problems.append(
            f"expected {s} subsets and lines, got {len(x.subsets)} and {len(x.lines)}"
        )
        return problems
    if len(set(x.lines)) != s:
        problems.append("defining lines are not pairwise distinct")
    for i, (sub, line) in enumerate(zip(x.subsets, x.lines), start=1):
        if len(set(sub)) != len(sub):
            problems.append(f"subset {i} repeats a point")
        if len(sub) != d[i - 1]:
            problems.append(f"subset {i} has {len(sub)} points, type wants {d[i-1]}")
        for p in sub:
            if not incident(p, line):
                problems.append(f"point {p} of subset {i} is off its line {line}")
    for i in range(1, s):
        for j in range(i):
            for p in x.subsets[j]:
                if incident(p, x.lines[i]):
                    problems.append(
                        f"line {i + 1} passes through point {p} of subset {j + 1}"
                    )
    all_points = [p for sub in x.subsets for p in sub]
    if len(set(all_points)) != len(all_points):
        problems.append("subsets are not pairwise disjoint")
    return problems


def fatten(x: KConfiguration, m: int) -> FatPointScheme:
    """The homogeneous fat point scheme of multiplicity m on the points:
    the pairs (p, m) for p in :meth:`KConfiguration.points`, in that order.

    The points are sorted and distinct, so no duplicate check runs.  The
    scheme takes over the configuration's :attr:`~KConfiguration.pair_lines`:
    both index the same sorted point tuple.  A ``bool`` is refused: it is
    not a multiplicity, and JSON would carry it as ``true``.
    """
    if isinstance(m, bool) or m < 1:
        raise ValueError("multiplicity must be a positive integer")
    points = x.points()
    z = FatPointScheme((p, m) for p in points)
    assert z.support() == points
    z.pair_lines = x.pair_lines
    return z


def count_lines(x: KConfiguration, k: int) -> list[ProjLine]:
    """The lines meeting X in exactly k >= 2 points, sorted by coefficients.

    Reads :attr:`KConfiguration.pair_lines`: every line through two of the
    points with the points on it, built once per configuration by
    :func:`lines_through_pairs`, already in coefficient order.  The
    :class:`ProjLine` objects returned are those of that incidence.  Raises
    ValueError for fewer than two points, and for k < 2: infinitely many
    lines meet X in exactly one point, or in none.
    """
    lines, members, _ = x.pair_lines
    if not lines:  # fewer than two points
        raise ValueError("need at least two points to enumerate lines")
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}: infinitely many lines "
                         "meet the points in fewer than two")
    return [line for line, on in zip(lines, members) if len(on) == k]


# --- generators ------------------------------------------------------------

_MAX_TRIES = 4000


def _strongly_generic_point(
    rng: Random, line: ProjLine, other_lines, existing: list[ProjPoint], bound: int
) -> ProjPoint:
    """A point on ``line`` avoiding the other lines, all existing points,
    and every line through two existing points but ``line`` itself (so it
    never becomes a third point of an accidental line).

    A candidate p lies on the line through two existing points q and q'
    exactly when its joins p∨q and p∨q' are the same line.  So p is
    rejected when two of its canonical joins to the existing points are
    equal and that line is not ``line``: at most one cross product per
    existing point, no pair enumerated, and the first repeat refuses p.
    Refusal depends on p alone, so a repeated draw is skipped untested.
    """
    b1, b2 = line_basis(line)
    drawn = set()
    for _ in range(_MAX_TRIES):
        p = random_combination(b1, b2, rng, bound)
        if p in drawn:
            continue
        drawn.add(p)
        if p in existing or any(incident(p, l) for l in other_lines):
            continue
        seen = set()
        for q in existing:
            j = canonical_triple(cross(p, q))
            if j in seen and j != line:
                break
            seen.add(j)
        else:
            return p
    raise GenerationFailed("could not place a generic point; raise the bound")


def _place_points(
    rng: Random, ktype: KType, lines: list[ProjLine], forced: list, bound: int
) -> KConfiguration:
    """The configuration with subset i on ``lines[i]``: first the points
    ``forced[i]``, then strongly generic points up to d_i.

    A generic point is refused when two of its joins to the points placed
    before it are one line other than its own
    (:func:`_strongly_generic_point`), so a configuration with no generic
    point computes no join.  Forced points are taken as given: one that repeats
    a placed point fails :func:`validate`.
    """
    subsets = []
    existing: list[ProjPoint] = []
    for i, (line, di, meets) in enumerate(zip(lines, ktype, forced)):
        others = [l for j, l in enumerate(lines) if j != i]
        existing += meets
        for _ in range(di - len(meets)):
            existing.append(_strongly_generic_point(rng, line, others, existing, bound))
        subsets.append(existing[-di:])
    return KConfiguration(ktype, subsets, lines)


def _first_accepted(build, accept, failure: str) -> KConfiguration:
    """The first of 60 candidates from ``build`` that is valid and passes
    ``accept``; a candidate whose ``build`` raises :class:`GenerationFailed`
    is skipped.  Raises ``GenerationFailed(failure)`` when none is found."""
    for _ in range(60):
        try:
            x = build()
        except GenerationFailed:
            continue
        if not validate(x) and accept(x):
            return x
    raise GenerationFailed(failure)


def _points_per_line(bound: int) -> int:
    """The most points :func:`random_combination` reaches on one line.

    It draws u*b1 + v*b2 with |u|, |v| <= bound and (u, v) != 0, and two
    pairs give one point exactly when they are proportional.  So the count
    is that of the primitive pairs (gcd(u, v) = 1) up to sign: 4, 8, 16,
    24 and 40 for bounds 1 to 5.  Not memoized: callers pass min(bound, need),
    the same test, since the count never falls and exceeds any bound >= 1.
    """
    return sum(
        gcd(u, v) == 1 for u in range(-bound, bound + 1) for v in range(-bound, bound + 1)
    ) // 2


def generate_generic(ktype: KType, seed: int, bound: int) -> KConfiguration:
    """A seeded random configuration of the given type.

    Points are placed by rejection sampling: each avoids the other
    defining lines and never becomes the third point of a line through two
    earlier points, so every line through three or more of the points is
    a defining line.
    """
    if ktype.ds > _points_per_line(min(bound, ktype.ds)):
        raise GenerationFailed(
            f"coordinate bound {bound} is too small for {ktype.ds} points on a line"
        )
    rng = Random(f"generic:{ktype}:{seed}")

    def build() -> KConfiguration:
        lines: list[ProjLine] = []
        while len(lines) < ktype.s:
            l = random_line(rng, bound)
            if l not in lines:
                lines.append(l)
        return _place_points(rng, ktype, lines, [[]] * ktype.s, bound)

    return _first_accepted(
        build, lambda x: True, f"no valid configuration of type {ktype} found"
    )


def _general_position_lines(rng: Random, count: int, bound: int) -> list[ProjLine]:
    """Distinct lines, no three concurrent, all pairwise meets distinct;
    GenerationFailed after ``_MAX_TRIES`` random lines."""
    lines: list[ProjLine] = []
    for _ in range(_MAX_TRIES):
        l = random_line(rng, bound)
        if l not in lines:
            lines.append(l)
        if len(lines) == count:
            meets = [meet(a, b) for a, b in combinations(lines, 2)]
            if len(set(meets)) == len(meets):
                return lines
            lines = []
    raise GenerationFailed(f"no {count} lines in general position found")


def generate_with_line_count(s: int, r: int, seed: int, bound: int) -> KConfiguration:
    """A type (1, ..., s) configuration with exactly r maximal lines.

    From s lines in general position, s + 1 for the star (r = s + 1), the
    last s are L_1, ..., L_s, and X_i holds the meets of L_i with the
    earlier of the last r lines drawn, topped up with strongly generic
    points; the star's X_i is its i meets alone.  Up to 60 candidates are
    drawn until one is valid and :func:`count_lines` finds r lines with s
    points.  For s = 2 every configuration consists of three non-collinear
    points whose pair lines all carry two points, so only r = 3 exists.
    """
    if s < 2:
        raise ValueError("need s >= 2")
    if not 1 <= r <= s + 1:
        raise ValueError(f"r must be within 1 .. {s + 1}, got {r}")
    if s == 2 and r < 3:
        raise InfeasibleLineCount(
            "three non-collinear points always span three 2-point lines"
        )
    # a line is a primitive coefficient triple up to sign: at most this many fit the bound
    count = s + (r == s + 1)
    if count > ((2 * bound + 1) ** 3 - 1) // 2:
        raise GenerationFailed(f"coordinate bound {bound} has too few lines")
    # The last line holds r - 1 meets and s - r + 1 generic points.
    if s - r + 1 > _points_per_line(min(bound, s - r + 1)):
        raise GenerationFailed(
            f"coordinate bound {bound} is too small for {s - r + 1} generic "
            "points on a line"
        )
    ktype = KType(range(1, s + 1))
    rng = Random(f"line-count:{s}:{r}:{seed}")

    def build() -> KConfiguration:
        lines = _general_position_lines(rng, count, bound)
        forced = [[meet(l, m) for m in lines[count - r : i]] for i, l in enumerate(lines)]
        return _place_points(rng, ktype, lines[-s:], forced[-s:], bound)

    return _first_accepted(
        build,
        lambda x: len(count_lines(x, s)) == r,
        f"no type {ktype} configuration with r={r} found",
    )


# --- JSON wire format -------------------------------------------------------

def kconfig_to_json(x: KConfiguration) -> dict:
    return {
        "type": list(x.ktype),
        "subsets": [[triple_to_json(p) for p in sub] for sub in x.subsets],
        "lines": [triple_to_json(l) for l in x.lines],
    }


def kconfig_from_json(data: dict) -> KConfiguration:
    ktype = KType(json_int(v) for v in json_field(data, "type"))
    subsets = tuple(
        tuple(point_from_json(p) for p in json_array(sub, "a subset"))
        for sub in json_field(data, "subsets")
    )
    lines = tuple(line_from_json(l) for l in json_field(data, "lines"))
    return KConfiguration(ktype, subsets, lines)
