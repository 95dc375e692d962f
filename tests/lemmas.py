"""Oracles for the paper's lemmas on k-configurations.

The statements checked here have no library caller: no command runs them,
and :func:`fatpoints.verify.verify_main` reads the identity it checks off
exact Hilbert values, not off these lemmas.  They live with the tests as
independent checks of the configurations the package generates: the tail
length of a type, the candidate-line shortlist, the consequence of a
maximal defining line for the type, and the relabelling that moves the
maximal defining lines into trailing positions.  Two readings of a fat
point scheme that only the tests take, its multiplicity at a point and
its degree on a line, live here too, with :func:`random_point`, which
draws the points of the randomized tests, and :func:`star_configuration`,
the star (r = s + 1) by a construction of its own.

The trichotomy oracle, :func:`classify_case`, sorts a type (1, ..., s)
configuration by r, its number of s-point lines: the star (r = s + 1),
whose points it checks to be the pairwise meets of the s + 1 lines;
exactly s, where it checks that each line carries a private point, on no
other full line, and takes the least; and fewer.  The star and augmented
peels of :func:`fatpoints.cht.peeling_sequence` read the same lines and
points straight off :func:`fatpoints.kconfig.count_lines`, and the tests
compare them with it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from random import Random

from fatpoints.geom import ProjLine, ProjPoint, incident, line_through, meet
from fatpoints.kconfig import KConfiguration, KType, count_lines, validate
from fatpoints.kconfig import _first_accepted, _general_position_lines
from fatpoints.scheme import FatPointScheme


class TypeMismatch(ValueError):
    """Operation requires a different configuration type."""


def multiplicity(z: FatPointScheme, p: ProjPoint) -> int:
    """The multiplicity of z at p, 0 off its support."""
    return dict(z).get(p, 0)


def line_degree(z: FatPointScheme, l: ProjLine) -> int:
    """Sum of multiplicities of the points of z incident to l."""
    return sum(m for p, m in z if incident(p, l))


def random_point(rng: Random, bound: int = 50) -> ProjPoint:
    """A random point with coordinates sampled uniformly from [-bound, bound]."""
    while True:
        triple = tuple(rng.randint(-bound, bound) for _ in range(3))
        if triple != (0, 0, 0):
            return ProjPoint(triple)


def star_configuration(s: int, seed: int, bound: int) -> KConfiguration:
    """The star of type (1, ..., s) with its own construction: X_i is the
    meets of L_i with L_0, ..., L_{i-1} for s + 1 lines L_j in general
    position, and L_1, ..., L_s are the defining lines.  It draws the
    random numbers that ``generate_with_line_count(s, s + 1, seed, bound)``
    draws, so the two must return the same configuration."""
    ktype = KType(tuple(range(1, s + 1)))
    rng = Random(f"line-count:{s}:{s + 1}:{seed}")

    def build() -> KConfiguration:
        lines = _general_position_lines(rng, s + 1, bound)
        subsets = [[meet(lines[i], m) for m in lines[:i]] for i in range(1, s + 1)]
        return KConfiguration(ktype, subsets, lines[1:])

    return _first_accepted(
        build, lambda x: len(count_lines(x, s)) == s + 1, f"no star of type {ktype} found"
    )


def tail_length(ktype: KType) -> int:
    """Number of consecutive integers ending the type vector."""
    d = ktype
    t = 1
    while t < len(d) and d[-t - 1] == d[-t] - 1:
        t += 1
    return t


def require_valid(x: KConfiguration) -> KConfiguration:
    problems = validate(x)
    if problems:
        raise ValueError("invalid configuration: " + "; ".join(problems))
    return x


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
    d = x.ktype
    s = x.ktype.s
    points = x.points()
    for i in range(s):
        hits = sum(1 for p in points if incident(p, x.lines[i]))
        if hits == x.ktype.ds:
            if any(d[j] != x.ktype.ds - s + (j + 1) for j in range(i, s)):
                return False
    return True


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
    full = count_lines(x, s)
    r = len(full)
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
