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

Every value returned here is exact.  The scheme's greedy reduction
vector v sandwiches it first, f_v(t) <= H_Z(t) <= F_v(t), by Cooper,
Harbourne and Teitler ("Combinatorial bounds on Hilbert functions of fat
points in projective space", JPAA 215, 2011).  For the lower bound, the
residual sequence of the first line L of v, 0 -> (I_{Z:L})_{t-1} ->
(I_Z)_t -> (forms on L vanishing on Z meet L)_t, gives H_Z(t) >=
H_{Z:L}(t-1) + min(t + 1, v_1), and induction along the residual chain
gives f_v.  When f_v(t) = F_v(t) that is the value, and no matrix is
built.  Otherwise the rank is delegated to :mod:`fatpoints.linalg`,
pinned against F_v(t).  A :class:`ConditionsMatrix` has one builder for
two kinds of arithmetic: from the coordinates and a falling-factorial
table it writes either int64 residues mod p, which the rank layer reads
first, or the exact integer rows, which it reads only after a missed pin.

numpy is imported inside the functions that build arrays, so it loads
with the first value the sandwich leaves open; a command whose every
value the sandwich settles never loads it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from math import comb, perm
from typing import TYPE_CHECKING

from . import linalg
from .scheme import FatPointScheme

if TYPE_CHECKING:
    import numpy as np


def monomial_exponents(t: int) -> list[tuple[int, int, int]]:
    """Exponent triples of the degree-t monomials, in a fixed order."""
    return [(t - b - c, b, c) for b in range(t + 1) for c in range(t - b + 1)]


def _mod(a, p: int | None):
    """a mod p, or a itself when p is None (exact arithmetic)."""
    return a if p is None else a % p


def _stencil(t: int, order: int, p: int | None):
    """What one operator order contributes, shared by every point of that order.

    Returns ``(shifted, shift, coefficients)``.  The operators are d^a d^b
    d^c with a + b + c = order, the columns the degree-t monomials; cell
    (i, j) is ``coefficients[i, j]`` times the point's value on the shifted
    monomial ``shift[i, j]``, an index into ``shifted``, the monomials of
    degree t - order.  The coefficient is a product of three falling
    factorials, exact (object) when p is None and reduced mod p (int64)
    otherwise, and is 0 where an exponent falls short, so ``shift`` may
    hold any valid index there.
    """
    import numpy as np

    d = t - order
    ops = np.array(
        [(a, b, order - a - b) for a in range(order + 1) for b in range(order - a + 1)],
        dtype=np.int64,
    )
    cols = np.array(monomial_exponents(t), dtype=np.int64)
    shifted = np.array(monomial_exponents(d), dtype=np.int64)
    b = cols[None, :, 1] - ops[:, None, 1]
    c = cols[None, :, 2] - ops[:, None, 2]
    index = b * (d + 1) - b * (b - 1) // 2 + c  # position in monomial_exponents(d)
    shift = index.clip(0, len(shifted) - 1)
    # F[e, a] = e (e - 1) ... (e - a + 1), which is 0 when a > e
    F = np.array([[_mod(perm(e, a), p) for a in range(order + 1)] for e in range(t + 1)],
                 dtype=object if p is None else np.int64)
    E, A = cols[None, :, :], ops[:, None, :]
    coefficients = _mod(F[E[..., 0], A[..., 0]] * F[E[..., 1], A[..., 1]], p)
    return shifted, shift, _mod(coefficients * F[E[..., 2], A[..., 2]], p)


class ConditionsMatrix(Sequence):
    """The conditions matrix of a scheme in degree t, built on demand.

    Rows: for each point of multiplicity m, one row per operator
    d^a d^b d^c with a + b + c = min(m - 1, t), a = 0, 1, ... and, within
    a, b = 0, 1, ...; columns: the degree-t monomials of
    :func:`monomial_exponents`; entries: the derivative of the monomial
    evaluated at the point's integer coordinates.

    One builder, :meth:`_cells`, writes the matrix in two kinds of
    arithmetic: exact Python integers, or int64 residues mod p computed
    straight from the coordinates mod p.  ``len`` comes from the scheme
    alone; the exact rows are built on first row access and kept, and
    ``mod(p)`` builds the residues without them.  :mod:`fatpoints.linalg`
    takes its residues from ``mod``.
    """

    def __init__(self, z: FatPointScheme, t: int):
        if t < 0:
            raise ValueError("degree must be nonnegative")
        self.scheme = z
        self.degree = t

    def __len__(self) -> int:
        t = self.degree
        return sum(comb(min(m - 1, t) + 2, 2) for _, m in self.scheme)

    def __getitem__(self, i):
        return self._rows[i]

    def __iter__(self):
        return iter(self._rows)

    @cached_property
    def _rows(self) -> list[list[int]]:
        return self._cells(None).tolist()

    def _cells(self, p: int | None) -> np.ndarray:
        """The matrix as a numpy array: exact Python ints (object) when p is
        None, else int64 residues mod p, reduced after every product of two
        residues so that it stays below 2**62."""
        import numpy as np

        t = self.degree
        dtype = object if p is None else np.int64
        stencils = {}
        blocks = [np.zeros((0, comb(t + 2, 2)), dtype=dtype)]
        for point, mult in self.scheme:
            order = min(mult - 1, t)
            if order not in stencils:
                stencils[order] = _stencil(t, order, p)
            S, shift, coefficients = stencils[order]
            X, Y, W = (np.array([pow(v, j, p) for j in range(t - order + 1)], dtype=dtype)
                       for v in point)
            values = _mod(_mod(X[S[:, 0]] * Y[S[:, 1]], p) * W[S[:, 2]], p)
            blocks.append(_mod(coefficients * values[shift], p))
        return np.concatenate(blocks)

    def mod(self, p: int) -> np.ndarray:
        """The matrix reduced mod p as int64, for a prime p < 2**31."""
        return self._cells(p)


def conditions_matrix(z: FatPointScheme, t: int) -> ConditionsMatrix:
    """The matrix whose rank is the Hilbert function value at t.

    See :class:`ConditionsMatrix`: a read-only sequence of integer rows,
    built on demand, with ``mod(p)`` for its residues.
    """
    return ConditionsMatrix(z, t)


def hilbert_value(z: FatPointScheme, t: int) -> int:
    """H_Z(t) = dim R_t - dim (I_Z)_t, exact.

    The scheme's greedy reduction vector v sandwiches the value, f_v(t)
    <= H_Z(t) <= F_v(t) (CHT), both from one pass of
    :meth:`~fatpoints.scheme.ReductionVector.sandwich`.  f_v follows from
    the residual sequence of each line L of v, which gives H_Z(t) >=
    H_{Z:L}(t-1) + min(t + 1, deg(Z meet L)).  When the two bounds meet,
    that is the value and no matrix is built; they meet at every t for a
    single point.  Otherwise it is the rank of :func:`conditions_matrix`,
    pinned (see :func:`linalg.rank`) against F_v(t).
    """
    if t < 0 or not z:
        return 0
    lower, upper = z.greedy_reduction.sandwich(t)
    if lower == upper:
        return upper
    return linalg.rank(conditions_matrix(z, t), upper=upper)


@dataclass(frozen=True)
class HilbertTable:
    """Hilbert values H(0..T), first differences, stabilization degree."""

    values: tuple[int, ...]
    deltas: tuple[int, ...]
    stabilized_at: int | None


def hilbert_table(z: FatPointScheme, t_max: int) -> HilbertTable:
    """H(0..t_max) by :func:`hilbert_value` up to the first value deg Z."""
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    deg = z.degree()
    values = []
    stabilized = None
    for t in range(t_max + 1):
        if values and values[-1] == deg:
            values.append(deg)  # monotone and capped: no rank needed
        else:
            values.append(hilbert_value(z, t))
        if stabilized is None and values[-1] == deg:
            stabilized = t
    deltas = tuple(v - u for v, u in zip(values, [0] + values[:-1]))
    return HilbertTable(tuple(values), deltas, stabilized)


def regularity_floor(z: FatPointScheme) -> int:
    """A proven lower bound on the regularity index: w - 1.

    w is the first entry of the greedy reduction vector: the largest total
    multiplicity on a line through two support points (for a single point,
    its multiplicity), so w is at least every multiplicity.  If H_Z(t) =
    deg Z then every subscheme of Z imposes independent conditions in
    degree t too.  Z meets that line in a degree-w subscheme of the line,
    whose Hilbert function min(t + 1, w) first reaches w at t = w - 1.
    """
    if not z:
        raise ValueError("the empty scheme has no regularity index")
    return z.greedy_reduction.values[0] - 1


def regularity_index(z: FatPointScheme) -> int:
    """Least t with H_Z(t) = deg(Z).

    H is nondecreasing and :func:`regularity_floor` is a proven lower
    bound, so the walk t = floor, floor + 1, ... stops at the first exact
    :func:`hilbert_value` that reaches deg: that t is the regularity index.
    The empty scheme has none: the floor raises ValueError.
    """
    t = regularity_floor(z)
    deg = z.degree()
    while hilbert_value(z, t) < deg:
        t += 1
    return t
