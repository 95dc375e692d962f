"""k-configurations of points in the projective plane.

A configuration of type (d_1 < ... < d_s) is a union of subsets X_i of
sizes d_i, each on its own line L_i, where every later line avoids all
earlier subsets.  This module provides validation against those defining
conditions, seeded generators for arbitrary types and for prescribed
counts of maximal lines, the brute-force line-counting oracle, the
candidate-line shortlist, the relabelling that moves maximal lines into
trailing positions, the three-way classification for types (1, ..., s),
and the passage to fat point schemes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from random import Random

from .geom import (
    ProjLine,
    ProjPoint,
    incident,
    line_from_json,
    line_basis,
    line_through,
    lines_through_pairs,
    meet,
    point_from_json,
    random_combination,
    random_line,
    triple_to_json,
)
from .geom import json_array, json_field, json_int
from .scheme import FatPointScheme


class InvalidLineCount(ValueError):
    """Requested count of maximal lines is outside 1 .. s+1."""


class InfeasibleLineCount(ValueError):
    """Requested count is in range but no such configuration exists."""


class TypeMismatch(ValueError):
    """Operation requires a different configuration type."""


class GenerationFailed(RuntimeError):
    """Rejection sampling exhausted its retry budget."""


@dataclass(frozen=True)
class KType:
    """A strictly increasing tuple of positive subset sizes."""

    d: tuple[int, ...]

    def __post_init__(self):
        d = tuple(int(v) for v in self.d)
        if not d:
            raise ValueError("a type needs at least one entry")
        if d[0] < 1 or any(a >= b for a, b in zip(d, d[1:])):
            raise ValueError(f"type entries must satisfy 1 <= d_1 < ... < d_s: {d}")
        object.__setattr__(self, "d", d)

    @property
    def s(self) -> int:
        return len(self.d)

    @property
    def ds(self) -> int:
        return self.d[-1]

    def tail_length(self) -> int:
        """Number of consecutive integers ending the type vector."""
        t = 1
        while t < len(self.d) and self.d[-t - 1] == self.d[-t] - 1:
            t += 1
        return t

    def is_single_point(self) -> bool:
        return self.d == (1,)

    def total_points(self) -> int:
        return sum(self.d)


@dataclass(frozen=True)
class KConfiguration:
    ktype: KType
    subsets: tuple[tuple[ProjPoint, ...], ...]
    lines: tuple[ProjLine, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "subsets", tuple(tuple(sorted(s)) for s in self.subsets)
        )
        object.__setattr__(self, "lines", tuple(self.lines))

    def points(self) -> tuple[ProjPoint, ...]:
        return tuple(sorted({p for sub in self.subsets for p in sub}))

    @cached_property
    def pair_lines(self) -> dict[ProjLine, set[int]]:
        """Each line through two of the points, mapped to the indices in
        :meth:`points` of the points on it (:func:`lines_through_pairs`).

        Computed once per configuration and shared, read-only, with the
        schemes :func:`fatten` builds on it.
        """
        return lines_through_pairs(self.points())

    @property
    def s(self) -> int:
        return self.ktype.s


def validate(x: KConfiguration) -> list[str]:
    """All violations of the defining conditions; empty means valid."""
    problems = []
    d = x.ktype.d
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


def require_valid(x: KConfiguration) -> KConfiguration:
    problems = validate(x)
    if problems:
        raise ValueError("invalid configuration: " + "; ".join(problems))
    return x


def fatten(x: KConfiguration, m: int) -> FatPointScheme:
    """The homogeneous fat point scheme of multiplicity m on the points.

    The scheme takes over the configuration's :attr:`~KConfiguration.pair_lines`:
    both index the same sorted point tuple.
    """
    if m < 1:
        raise ValueError("multiplicity must be positive")
    points = x.points()
    z = FatPointScheme.homogeneous(points, m)
    assert z.support() == points
    object.__setattr__(z, "pair_lines", x.pair_lines)
    return z


def count_lines(x: KConfiguration, k: int) -> tuple[int, list[ProjLine]]:
    """Brute-force count of lines meeting X in exactly k points.

    Reads the lines spanned by all point pairs, deduplicated via the
    canonical form, with the points on each (:attr:`KConfiguration.pair_lines`,
    enumerated by :func:`lines_through_pairs`); ground truth for everything
    else in the package.
    """
    if not x.pair_lines:  # fewer than two points
        raise ValueError("need at least two points to enumerate lines")
    found = sorted(
        (l for l, on in x.pair_lines.items() if len(on) == k), key=lambda l: l.coeffs
    )
    return len(found), found


def candidate_lines(x: KConfiguration) -> list[ProjLine]:
    """A guaranteed superset of the lines meeting X in d_s points.

    For d_s > s only the defining lines qualify; for d_s = s the line
    through the first subset's point and either point of the second
    subset may join them.
    """
    if x.ktype.is_single_point():
        raise TypeMismatch("candidate lines are undefined for a single point")
    out = list(x.lines)
    if x.ktype.ds == x.ktype.s:
        p = x.subsets[0][0]
        for q in x.subsets[1]:
            extra = line_through(p, q)
            if extra not in out:
                out.append(extra)
    return out


def line_count_consequence_holds(x: KConfiguration) -> bool:
    """If a defining line meets X in d_s points, the tail of the type is
    forced to be consecutive from that index on."""
    d = x.ktype.d
    s = x.ktype.s
    points = x.points()
    for i in range(s):
        hits = sum(1 for p in points if incident(p, x.lines[i]))
        if hits == x.ktype.ds:
            if any(d[j] != x.ktype.ds - s + (j + 1) for j in range(i, s)):
                return False
    return True


# --- generators ------------------------------------------------------------

_MAX_TRIES = 4000


def _strongly_generic_point(
    rng: Random,
    line: ProjLine,
    other_lines,
    existing: list[ProjPoint],
    spanned: set[ProjLine],
    bound: int,
) -> ProjPoint:
    """A point on ``line`` avoiding the other lines, all existing points,
    and every line spanned by two existing points (so it never becomes a
    third point of an accidental line).  Pairs already collinear with
    ``line`` span the line itself and are exempt.

    ``spanned`` holds the lines through two existing points; the caller
    keeps it up to date with :func:`_place`, so no pair is enumerated
    here.  The basis of ``line`` is taken once, before the rejection loop.
    """
    forbidden = set(other_lines)
    forbidden.update(spanned)
    forbidden.discard(line)
    b1, b2 = line_basis(line)
    for _ in range(_MAX_TRIES):
        p = random_combination(b1, b2, rng, bound)
        if p in existing:
            continue
        if any(incident(p, l) for l in forbidden):
            continue
        return p
    raise GenerationFailed("could not place a generic point; raise the bound")


def _place(p: ProjPoint, existing: list[ProjPoint], spanned: set[ProjLine]) -> None:
    """Append ``p`` to ``existing`` and the lines through it and each
    earlier point to ``spanned``."""
    spanned.update(line_through(q, p) for q in existing)
    existing.append(p)


def generate_generic(ktype: KType, seed: int, bound: int = 50) -> KConfiguration:
    """A seeded random configuration of the given type.

    Points are placed by rejection sampling: each avoids the other
    defining lines and never becomes the third point of any previously
    spanned line, so no accidental maximal lines appear.
    """
    # random_combination draws u*b1 + v*b2 with |u|, |v| <= bound, (u, v) != 0,
    # and (u, v), (-u, -v) give one point: a line holds at most this many.
    if ktype.ds > ((2 * bound + 1) ** 2 - 1) // 2:
        raise GenerationFailed(
            f"coordinate bound {bound} is too small for {ktype.ds} points on a line"
        )
    rng = Random(f"generic:{ktype.d}:{seed}")
    for _ in range(60):
        lines = []
        while len(lines) < ktype.s:
            l = random_line(rng, bound)
            if l not in lines:
                lines.append(l)
        try:
            subsets = []
            existing: list[ProjPoint] = []
            spanned: set[ProjLine] = set()
            for i, di in enumerate(ktype.d):
                others = [l for j, l in enumerate(lines) if j != i]
                sub = []
                for _ in range(di):
                    p = _strongly_generic_point(
                        rng, lines[i], others, existing, spanned, bound
                    )
                    sub.append(p)
                    _place(p, existing, spanned)
                subsets.append(tuple(sub))
        except GenerationFailed:
            continue
        x = KConfiguration(ktype, tuple(subsets), tuple(lines))
        if not validate(x):
            return x
    raise GenerationFailed(f"no valid configuration of type {ktype.d} found")


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


def generate_with_line_count(s: int, r: int, seed: int, bound: int = 50) -> KConfiguration:
    """A type (1, ..., s) configuration with exactly r maximal lines.

    r = s + 1 realizes the star of s + 1 general lines; r <= s places the
    r maximal lines last and stitches their pairwise meets into the later
    subsets, topping each up with generic points.  The count is confirmed
    post hoc with the brute-force oracle and the construction is resampled
    on failure.  For s = 2 every configuration consists of three
    non-collinear points whose pair lines all carry two points, so only
    r = 3 exists.
    """
    if s < 2:
        raise ValueError("need s >= 2")
    if not 1 <= r <= s + 1:
        raise InvalidLineCount(f"r must be within 1 .. {s + 1}, got {r}")
    if s == 2 and r < 3:
        raise InfeasibleLineCount(
            "three non-collinear points always span three 2-point lines"
        )
    # s lines, s + 1 for the star; a line is a nonzero coefficient triple up
    # to sign, so the bound allows at most this many.
    if s + (r == s + 1) > ((2 * bound + 1) ** 3 - 1) // 2:
        raise GenerationFailed(f"coordinate bound {bound} has too few lines")
    ktype = KType(tuple(range(1, s + 1)))
    rng = Random(f"line-count:{s}:{r}:{seed}")
    for _ in range(60):
        try:
            x = _star_instance(rng, s, bound) if r == s + 1 else _counted_instance(
                rng, s, r, bound
            )
        except GenerationFailed:
            continue
        if validate(x):
            continue
        count, _ = count_lines(x, s)
        if count == r:
            return x
    raise GenerationFailed(f"no type {ktype.d} configuration with r={r} found")


def _star_instance(rng: Random, s: int, bound: int) -> KConfiguration:
    lines = _general_position_lines(rng, s + 1, bound)
    defining = [lines[i + 1] for i in range(s)]
    subsets = []
    for i in range(s):
        sub = tuple(meet(lines[i + 1], lines[j]) for j in range(i + 1))
        subsets.append(sub)
    return KConfiguration(KType(tuple(range(1, s + 1))), tuple(subsets), tuple(defining))


def _counted_instance(rng: Random, s: int, r: int, bound: int) -> KConfiguration:
    lines = _general_position_lines(rng, s, bound)
    special = lines[s - r :]  # the trailing r lines become the maximal ones
    subsets: list[tuple[ProjPoint, ...]] = []
    existing: list[ProjPoint] = []
    spanned: set[ProjLine] = set()
    for i in range(s):
        line = lines[i]
        others = [l for j, l in enumerate(lines) if j != i]
        forced: list[ProjPoint] = []
        if i >= s - r:
            forced = [meet(line, lines[j]) for j in range(s - r, i)]
        free_needed = (i + 1) - len(forced)
        sub = list(forced)
        for p in forced:
            if p in existing:
                raise GenerationFailed("coincident meets")
            _place(p, existing, spanned)
        for _ in range(free_needed):
            p = _strongly_generic_point(rng, line, others, existing, spanned, bound)
            sub.append(p)
            _place(p, existing, spanned)
        subsets.append(tuple(sub))
    return KConfiguration(KType(tuple(range(1, s + 1))), tuple(subsets), tuple(lines))


# --- relabelling -----------------------------------------------------------

def relabel_canonical(x: KConfiguration) -> KConfiguration:
    """Reorganize subsets and lines so the maximal defining lines trail.

    Repeatedly applies the transplant: when lines s, s-1, ... down to
    s - j meet X in d_s points but line s - i (i > j) is the next one
    that does, the points T of the intermediate subsets lying on line
    s - i move into its subset, the intermediate subsets shift down one
    slot each, and line s - i takes the slot above them.  The point set,
    the type, and validity are preserved.  Returns the input unchanged
    when the maximal defining lines already occupy the trailing positions.
    """
    if x.ktype.s < 2:
        return x
    require_valid(x)
    current = x
    for _ in range(x.ktype.s + 1):
        step = _relabel_step(current)
        if step is None:
            return current
        current = require_valid(step)
    raise AssertionError("relabelling failed to terminate")


def _relabel_step(x: KConfiguration):
    s = x.ktype.s
    ds = x.ktype.ds
    points = x.points()
    hits = [sum(1 for p in points if incident(p, l)) for l in x.lines]
    j = 0
    while j < s and hits[s - 1 - j] == ds:
        j += 1
    # j = number of trailing maximal lines; lemma guarantees j >= 1
    i = j
    while i < s and hits[s - 1 - i] != ds:
        i += 1
    if i >= s:
        return None  # already canonical
    j -= 1  # largest index with L_{s-k} maximal for k = 0..j
    lo = s - i - 1  # 0-based position of the line being promoted
    between = range(s - i, s - j - 1)  # 0-based positions shifting down
    line_lo = x.lines[lo]
    transplant = {
        p
        for pos in between
        for p in x.subsets[pos]
        if incident(p, line_lo)
    }
    if len(transplant) != i - j - 1:
        raise AssertionError("transplant size contradicts the relabelling lemma")
    subsets = list(x.subsets)
    lines = list(x.lines)
    new_subsets = subsets[:lo]
    new_lines = lines[:lo]
    for pos in between:
        new_subsets.append(tuple(p for p in subsets[pos] if p not in transplant))
        new_lines.append(lines[pos])
    new_subsets.append(tuple(sorted(set(subsets[lo]) | transplant)))
    new_lines.append(line_lo)
    new_subsets.extend(subsets[s - j - 1 :])
    new_lines.extend(lines[s - j - 1 :])
    return KConfiguration(x.ktype, tuple(new_subsets), tuple(new_lines))


# --- trichotomy ------------------------------------------------------------

class Case(enum.Enum):
    MANY = "many"    # s + 1 maximal lines: the star
    EXACT = "exact"  # exactly s maximal lines, one private point each
    FEW = "few"      # 1 <= r < s maximal lines


@dataclass(frozen=True)
class Trichotomy:
    case: Case
    r: int
    full_lines: tuple[ProjLine, ...]
    privates: dict[ProjLine, ProjPoint]


def classify_case(x: KConfiguration) -> Trichotomy:
    """Classify a type (1, ..., s) configuration by its maximal line count.

    For the star case the points are checked to be exactly the pairwise
    meets of the s + 1 lines; for the middle case each maximal line is
    checked to carry a point on no other maximal line.
    """
    if x.ktype.ds != x.ktype.s or x.ktype.s < 2:
        raise TypeMismatch("classification applies to types (1, 2, ..., s), s >= 2")
    s = x.ktype.s
    points = set(x.points())
    r, full = count_lines(x, s)
    if r == s + 1:
        meets = {meet(a, b) for a, b in combinations(full, 2)}
        if meets != points:
            raise AssertionError("star case without the star structure")
        return Trichotomy(Case.MANY, r, tuple(full), {})
    if r == s:
        privates = {}
        for l in full:
            mine = [
                p
                for p in points
                if incident(p, l)
                and not any(incident(p, o) for o in full if o != l)
            ]
            if not mine:
                raise AssertionError("a maximal line has no private point")
            privates[l] = sorted(mine)[0]
        return Trichotomy(Case.EXACT, r, tuple(full), privates)
    if not 1 <= r < s:
        raise AssertionError(f"impossible maximal line count {r}")
    return Trichotomy(Case.FEW, r, tuple(full), {})


# --- JSON wire format -------------------------------------------------------

def kconfig_to_json(x: KConfiguration) -> dict:
    return {
        "type": list(x.ktype.d),
        "subsets": [[triple_to_json(p) for p in sub] for sub in x.subsets],
        "lines": [triple_to_json(l) for l in x.lines],
    }


def kconfig_from_json(data: dict) -> KConfiguration:
    ktype = KType(tuple(json_int(v) for v in json_field(data, "type")))
    subsets = tuple(
        tuple(point_from_json(p) for p in json_array(sub, "a subset"))
        for sub in json_field(data, "subsets")
    )
    lines = tuple(line_from_json(l) for l in json_field(data, "lines"))
    return KConfiguration(ktype, subsets, lines)
