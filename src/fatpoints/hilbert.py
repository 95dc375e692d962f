"""Exact Hilbert functions of fat point schemes.

The value at degree t is the rank of the matrix of derivative-vanishing
conditions: one row per point and per partial-derivative operator of
order exactly m - 1, one column per degree-t monomial.  In characteristic
zero with t >= m - 1, vanishing of all order-(m-1) partials at a point is
equivalent to membership in the m-th power of the point's ideal (Euler's
identity recovers the lower orders), so the kernel is exactly the
degree-t piece of the defining ideal and the rank is dim R_t minus that.
For t < m - 1 the operator order is clamped to t, which keeps the kernel
correct (order-t partials of a degree-t form are its coefficients up to
nonzero factorials).

Rank computation is delegated to :mod:`fatpoints.linalg`; every value
returned here is exact.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations
from math import comb

from . import linalg
from .geom import line_through
from .scheme import FatPointScheme


class OutOfRange(IndexError):
    """Raised when a table is consulted beyond its computed range."""


class EmptyScheme(ValueError):
    """Raised when an operation requires a nonempty scheme."""


def monomial_exponents(t: int) -> list[tuple[int, int, int]]:
    """Exponent triples of the degree-t monomials, in a fixed order."""
    return [(t - b - c, b, c) for b in range(t + 1) for c in range(t - b + 1)]


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def conditions_matrix(z: FatPointScheme, t: int) -> list[list[int]]:
    """Integer matrix whose rank is the Hilbert function value at t.

    Rows: for each point of multiplicity m, one row per operator
    d^a d^b d^c with a + b + c = min(m - 1, t); columns: degree-t
    monomials; entries: the derivative of the monomial evaluated at the
    point's integer coordinates.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    mons = monomial_exponents(t)
    rows: list[list[int]] = []
    for point, mult in z.entries:
        x, y, w = point.coords
        order = min(mult - 1, t)
        # Shifted exponents all have degree t - order: tabulate once.
        powers = {}
        for (e0, e1, e2) in monomial_exponents(t - order):
            powers[(e0, e1, e2)] = x**e0 * y**e1 * w**e2
        for a in range(order + 1):
            for b in range(order - a + 1):
                c = order - a - b
                row = []
                for (e0, e1, e2) in mons:
                    if e0 < a or e1 < b or e2 < c:
                        row.append(0)
                        continue
                    coef = _falling(e0, a) * _falling(e1, b) * _falling(e2, c)
                    row.append(coef * powers[(e0 - a, e1 - b, e2 - c)])
                rows.append(row)
    return rows


def hilbert_value(z: FatPointScheme, t: int, upper: int | None = None) -> int:
    """H_Z(t) = dim R_t - dim (I_Z)_t, as an exact matrix rank.

    ``upper`` is an optional proven upper bound on H_Z(t); it lets the
    rank be pinned by one elimination mod p (see :func:`linalg.rank`).
    """
    if t < 0:
        return 0
    if z.is_empty():
        return 0
    return linalg.rank(conditions_matrix(z, t), upper=upper)


@dataclass(frozen=True)
class HilbertTable:
    """Hilbert values H(0..T), first differences, stabilization degree."""

    values: tuple[int, ...]
    deltas: tuple[int, ...]
    stabilized_at: int | None

    def to_json(self) -> dict:
        return {
            "values": list(self.values),
            "deltas": list(self.deltas),
            "stabilized_at": self.stabilized_at,
        }

    def arrow_display(self) -> str:
        """One-line rendering like ``1 3 6 10 15 18 18 ->``."""
        body = " ".join(str(v) for v in self.values)
        if self.stabilized_at is not None:
            return body + " →"
        return body


def hilbert_table(
    z: FatPointScheme,
    t_max: int,
    upper: Callable[[int], int | None] | None = None,
) -> HilbertTable:
    """H(0..t_max); ``upper``, if given, maps t to a proven upper bound
    on H(t) (or None) and is passed on to :func:`hilbert_value`."""
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    deg = z.degree()
    values = []
    stabilized = None
    for t in range(t_max + 1):
        if values and values[-1] == deg:
            values.append(deg)  # monotone and capped: no rank needed
        else:
            values.append(hilbert_value(z, t, upper(t) if upper else None))
        if stabilized is None and values[-1] == deg:
            stabilized = t
    deltas = tuple(v - u for v, u in zip(values, [0] + values[:-1]))
    return HilbertTable(tuple(values), deltas, stabilized)


def delta(table: HilbertTable, t: int) -> int:
    """First difference with H(-1) = 0."""
    if t < 0 or t >= len(table.values):
        raise OutOfRange(f"degree {t} outside the computed table")
    return table.deltas[t]


def regularity_floor(z: FatPointScheme) -> int:
    """A proven lower bound on the regularity index: max(max_mult, w) - 1.

    w is the largest total multiplicity on a line through two support
    points.  If H_Z(t) = deg Z then every subscheme of Z imposes
    independent conditions in degree t too.  A point of multiplicity m
    needs t >= m - 1, and Z meets a line of weight w in a degree-w
    subscheme of the line, whose Hilbert function min(t + 1, w) first
    reaches w at t = w - 1.
    """
    best = max(m for _, m in z.entries)
    seen = set()
    for (p, _), (q, _) in combinations(z.entries, 2):
        line = line_through(p, q)
        if line not in seen:
            seen.add(line)
            best = max(best, z.line_degree(line))
    return best - 1


def regularity_index(z: FatPointScheme) -> int:
    """Least t with H_Z(t) = deg(Z).

    The search starts at the floor L of :func:`regularity_floor`, which
    proves H(L - 1) < deg, so no degree below L is ever ranked.  H(t) =
    deg exactly when the conditions matrix has full row rank, which a
    nonzero maximal minor mod p certifies outright; the search probes
    t = L, L + 1, ... until one probe certifies.  A negative probe is
    heuristic: past 2 * (sum of multiplicities), beyond any stabilization
    bound, the search continues with exact values, and the boundary is
    then re-verified with exact ranks and corrected downward, never below
    L, on the (never observed) chance a probe understated.
    """
    if z.is_empty():
        raise EmptyScheme("the empty scheme has no regularity index")
    deg = z.degree()
    total = sum(m for _, m in z.entries)
    floor = t = regularity_floor(z)
    while not linalg.has_full_row_rank(conditions_matrix(z, t)):
        if t >= 2 * total:
            while hilbert_value(z, t) < deg:
                t += 1
            break
        t += 1
    while t > floor and hilbert_value(z, t - 1) == deg:
        t -= 1
    return t
