"""Reduction-vector bounds on fat point Hilbert functions.

Given a complete reduction vector v = (v_1, ..., v_r) of a scheme Z, the
Hilbert function is sandwiched for every degree t:

    f_v(t) = sum_i max(0, min(t - i + 1, v_{i+1}))        (lower)
    F_v(t) = min_i [ C(t+2,2) - C(t-i+2,2) + sum_{j>i} v_j ]   (upper)

with C(n, 2) = 0 for n < 2.  The summands of f are clamped at zero: a
negative t - i + 1 cannot contribute a negative number of conditions.
``ReductionVector.sandwich`` evaluates both in one pass over the first
t + 1 entries, with running sums in place of binomials: C(t+2,2) -
C(t-i+2,2) is the sum of max(t + 1 - k, 0) over k < i.  ``F_upper``
checks completeness and reads its upper half; ``bound_check`` checks once
and takes both from one call.

``peeling_sequence`` builds the standard line sequences whose reduction
vectors make these bounds tight at the degrees of interest: repeated
descending passes over the defining lines, the analogous passes over the
s + 1 full lines of a star, and the augmented variant that finishes with
the line through two private points plus one line per leftover private
point.  For a type (1, ..., s) the full lines are the s-point lines that
:func:`fatpoints.kconfig.count_lines` returns, and the private point of
one is its least point on no other full line; the line at a leftover
private point is the first of a fixed pencil through it that meets no
other point, so no seed enters.  The sequences serve the ``bounds`` and
``reduce`` commands only; exact Hilbert values use the bounds of
``FatPointScheme.greedy_reduction``, which settle a value where f_v = F_v
and pin its rank where they differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import ProjLine, incident, line_basis, line_through
from .scheme import FatPointScheme, ReductionVector, reduction_vector
from . import hilbert
from . import kconfig as _kconfig


class IncompleteReduction(ValueError):
    """Raised when a bound is requested from an incomplete reduction."""


class SandwichViolation(AssertionError):
    """f <= H <= F failed; signals an implementation bug, not bad input."""


class StrategyInapplicable(ValueError):
    """Raised when a peeling strategy does not fit the configuration."""


REPEAT_DESCENDING = "repeat_descending"
STAR = "star"
AUGMENTED = "augmented"


def F_upper(v: ReductionVector, t: int) -> int:
    if not v.complete:
        raise IncompleteReduction("upper bound requires a complete reduction")
    return v.sandwich(t)[1]


@dataclass(frozen=True)
class BoundReport:
    t: int
    f_lower: int
    F_upper: int
    exact: int
    tight: bool


def bound_check(z: FatPointScheme, lines, t: int) -> BoundReport:
    """Compute v, f, F and the exact value, asserting f <= H <= F."""
    v = reduction_vector(z, lines)
    if not v.complete:
        raise IncompleteReduction(
            "the supplied line sequence does not reduce the scheme to empty"
        )
    f, F = v.sandwich(t)
    exact = hilbert.hilbert_value(z, t)
    if not f <= exact <= F:
        raise SandwichViolation(
            f"f={f}, H={exact}, F={F} at t={t}: bound machinery is broken"
        )
    return BoundReport(t, f, F, exact, f == F)


def peeling_sequence(x, m: int, strategy: str) -> list[ProjLine]:
    """A line sequence whose reduction of mX is complete.

    REPEAT_DESCENDING: the defining lines L_s .. L_1, m times over.
    STAR: the s + 1 full lines of a star configuration, ceil(m/2) passes.
    AUGMENTED: L_s .. L_1 repeated m - 1 times, then the line through two
    private points and, for each private point left off it in sorted
    order, the first line of the pencil of :func:`line_basis` of its dual
    line that meets no other point; needs the case with exactly s full
    lines equal to the defining lines, and m >= 2.
    """
    if m < 1:
        raise ValueError("multiplicity must be positive")
    descending = list(reversed(x.lines))
    if strategy == REPEAT_DESCENDING:
        return descending * m
    if strategy == STAR:
        full = _full_lines(x, "star", star=True)
        return sorted(full, reverse=True) * -(-m // 2)
    if strategy == AUGMENTED:
        return _augmented_sequence(x, m)
    raise ValueError(f"unknown strategy {strategy!r}")


def _full_lines(x, strategy: str, star: bool) -> list[ProjLine]:
    """The s-point lines of a type (1, ..., s) configuration with s >= 2:
    s + 1 of them (the star) when ``star`` is true, exactly s otherwise."""
    s = x.ktype.s
    if x.ktype.ds != s or s < 2:
        raise StrategyInapplicable(f"{strategy} peeling needs type (1, ..., s)")
    full = _kconfig.count_lines(x, s)
    if len(full) != s + star:
        wanted = "s + 1" if star else "exactly s"
        raise StrategyInapplicable(f"{strategy} peeling needs {wanted} full lines")
    return full


def _augmented_sequence(x, m: int) -> list[ProjLine]:
    if m < 2:
        raise StrategyInapplicable("the augmented peeling needs m >= 2")
    full = _full_lines(x, "augmented", star=False)
    if set(full) != set(x.lines):
        raise StrategyInapplicable(
            "augmented peeling needs the full lines to be the defining lines"
        )
    points = x.points()
    privates = [
        min(p for p in points
            if incident(p, l) and not any(incident(p, o) for o in full if o != l))
        for l in x.lines
    ]
    h = line_through(privates[0], privates[1])
    off = sorted(p for p in privates if not incident(p, h))
    extras = []
    for q in off:
        # the lines u + k*v through q: each other point is on one of them
        u, v = (b.coords for b in line_basis(ProjLine(q.coords)))
        for k in range(len(points)):
            cand = ProjLine(tuple(a + k * b for a, b in zip(u, v)))
            if not any(incident(p, cand) for p in points if p != q):
                extras.append(cand)
                break
    return list(reversed(x.lines)) * (m - 1) + [h] + extras
