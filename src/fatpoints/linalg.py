"""Exact rank of integer matrices.

Two cooperating engines, both exact:

* ``bareiss_rank`` -- fraction-free (Bareiss-style) elimination on
  arbitrary-precision integers.  Entries stay integral throughout; the
  divisions are exact by Sylvester's determinant identity.  This is the
  reference engine and the fallback for every other path.

* ``rank`` -- one certified multi-modular path at every size.  Residues
  come first: a matrix with a ``mod(p)`` method (a conditions matrix from
  :mod:`fatpoints.hilbert`) builds its own int64 residues, any other
  sequence of integer rows is reduced cell by cell, and the exact rows
  are read only by the span certificate and Bareiss.  An elimination
  mod p yields a rank lower bound (a nonzero minor mod p is nonzero over
  Z) and candidate pivot rows/columns.  When that lower bound reaches a
  proven upper bound the rank is pinned exactly, with no certificate and
  no Bareiss run.  The default bound is ``min(rows, cols)``; a caller that
  holds a sharper one passes ``rank(rows, upper=...)``, as ``hilbert_value``
  does with the scheme's greedy Cooper-Harbourne-Teitler bound.  Otherwise
  the upper bound is proved by expressing every non-pivot row as a
  rational combination of the pivot rows (coefficients recovered by CRT
  over several primes plus rational reconstruction) and verifying that
  identity in exact integer arithmetic.  If certification is not reached
  the matrix goes to Bareiss.

Every returned value is therefore exact regardless of which path
produced it, and so is ``has_full_row_rank``, which compares ``rank``
with the row count.

Primes have two roles.  The eliminations that pin a rank run modulo
the two ``_ELIM_PRIMES``, below 2**20, in float64: a blocked
right-looking elimination with delayed modular reduction and one BLAS
matrix product per panel of columns, after
FFLAS-FFPACK (Dumas, Giorgi and Pernet, "Dense linear algebra over
word-size prime fields: the FFLAS and FFPACK packages", ACM TOMS 35(3),
2008).  Every float it holds is an integer below 2**53 in absolute value,
so every product and sum is exact whatever order BLAS adds in: residues
are below p, and a cell is reduced again before it carries more than
``(2**53 - p) // (p - 1)**2`` products of two residues (8192 for a
20-bit p, more than any matrix here needs).  The 31-bit ``PRIMES`` are
the CRT moduli of the span certificate, whose int64 solves hold single
products of residues, below 2**62.

The modular arithmetic here is an internal certification device only;
geometric coefficients elsewhere in the package remain rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

try:
    from gmpy2 import mpz
except ImportError:  # gmpy2 is an optional extra: ``pip install .[gmpy2]``
    mpz = int  # Python int gives the same exact results, only slower

# Verified 31-bit primes; products of prefixes serve as the span
# certificate's CRT moduli.
PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
    2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
    2147483423, 2147483399, 2147483353, 2147483323, 2147483269,
    2147483249, 2147483237, 2147483179, 2147483171, 2147483137,
    2147483123, 2147483077, 2147483069, 2147483059, 2147483053,
    2147483033, 2147483029, 2147482951, 2147482949, 2147482943,
    2147482937, 2147482921, 2147482877, 2147482873, 2147482867,
    2147482859, 2147482819, 2147482817, 2147482811, 2147482801,
    2147482763, 2147482739, 2147482697, 2147482693, 2147482681,
    2147482663, 2147482661, 2147482621, 2147482591, 2147482583,
    2147482577, 2147482507, 2147482501, 2147482481, 2147482417,
    2147482409, 2147482367, 2147482361, 2147482349, 2147482343,
    2147482327, 2147482291, 2147482273, 2147482237, 2147482231,
    2147482223, 2147482121, 2147482093, 2147482091, 2147482081,
    2147482063, 2147482021, 2147481997, 2147481967, 2147481949,
    2147481937, 2147481907, 2147481901, 2147481899, 2147481893,
    2147481883, 2147481863, 2147481827, 2147481811, 2147481797,
    2147481793, 2147481673, 2147481629, 2147481571, 2147481563,
    2147481529, 2147481509, 2147481499, 2147481491, 2147481487,
    2147481373, 2147481367, 2147481359, 2147481353, 2147481337,
    2147481317, 2147481311, 2147481283, 2147481269, 2147481263,
    2147481247, 2147481209, 2147481199, 2147481179, 2147481173,
    2147481151, 2147481143, 2147481139, 2147481071, 2147481053,
    2147481031, 2147481019, 2147480989, 2147480971, 2147480969,
    2147480957, 2147480941, 2147480927, 2147480921, 2147480899,
    2147480897, 2147480893, 2147480849, 2147480843, 2147480837,
    2147480791, 2147480747, 2147480743, 2147480723, 2147480707,
    2147480683, 2147480677, 2147480651, 2147480641, 2147480623,
    2147480611, 2147480591, 2147480551, 2147480527, 2147480519,
    2147480507, 2147480471, 2147480459, 2147480437, 2147480429,
    2147480369, 2147480327, 2147480311, 2147480299, 2147480297,
    2147480227, 2147480219, 2147480207, 2147480197, 2147480161,
    2147480039, 2147480011, 2147480009, 2147479991, 2147479937,
    2147479907, 2147479897, 2147479891, 2147479879, 2147479823,
    2147479819, 2147479787, 2147479781, 2147479757, 2147479753,
    2147479751, 2147479681, 2147479657, 2147479643, 2147479637,
    2147479619, 2147479601, 2147479589, 2147479573, 2147479549,
    2147479547, 2147479531, 2147479517, 2147479513, 2147479507,
    2147479489, 2147479447, 2147479421, 2147479403, 2147479381,
    2147479361, 2147479349, 2147479339, 2147479307, 2147479273,
    2147479259, 2147479231, 2147479189, 2147479171, 2147479133,
    2147479129, 2147479121, 2147479097, 2147479091, 2147479079,
    2147479063, 2147479057, 2147479031, 2147479013, 2147478997,
    2147478967, 2147478961, 2147478959, 2147478937, 2147478919,
    2147478911, 2147478899, 2147478889, 2147478863,
)
# Give up on span certificates beyond this many non-pivot rows.
_MAX_DEFECT = 64
# Primes below 2**20 for the float64 eliminations that pin ranks; disjoint
# from ``PRIMES``.
_ELIM_PRIMES = (1048573, 1048571)
# Columns per panel of ``_modp_eliminate``: one BLAS product per panel.
_PANEL = 32


def bareiss_rank(rows) -> int:
    """Exact rank by fraction-free elimination with column skipping.

    Pivots are chosen with minimal bit length to slow entry growth.  The
    update ``(pivot * a - lead * b) // prev`` is an exact division; it
    must be applied to every remaining row, including rows whose leading
    entry is zero (those still pick up the ``pivot / prev`` scaling).
    """
    M = [[mpz(v) for v in row] for row in rows]
    n = len(M)
    if n == 0 or not M[0]:
        return 0
    ncols = len(M[0])
    rank = 0
    prev = mpz(1)
    pr = 0
    for pc in range(ncols):
        piv = None
        best = None
        for r in range(pr, n):
            v = M[r][pc]
            if v:
                nb = v.bit_length()
                if best is None or nb < best:
                    best = nb
                    piv = r
                    if nb <= 8:
                        break
        if piv is None:
            continue
        if piv != pr:
            M[pr], M[piv] = M[piv], M[pr]
        pivval = M[pr][pc]
        row_p = M[pr]
        for r in range(pr + 1, n):
            row_r = M[r]
            lead = row_r[pc]
            if lead:
                M[r] = [(pivval * a - lead * b) // prev for a, b in zip(row_r, row_p)]
                M[r][pc] = mpz(0)
            elif prev != 1:
                M[r] = [(pivval * a) // prev for a in row_r]
            else:
                M[r] = [pivval * a for a in row_r]
        prev = pivval
        pr += 1
        rank += 1
        if pr == n:
            break
    return rank


def _strip_rows(rows):
    """Divide each row by its content; rank- and index-preserving."""
    out = []
    for row in rows:
        g = 0
        for v in row:
            g = gcd(g, v if v >= 0 else -v)
            if g == 1:
                break
        out.append([v // g for v in row] if g > 1 else list(row))
    return out


def _modp_matrix(rows, p: int) -> np.ndarray:
    """The residues mod p as int64: from ``rows.mod(p)`` when the matrix
    builds them itself (a conditions matrix does), else cell by cell."""
    mod = getattr(rows, "mod", None)
    if mod is not None:
        return mod(p)
    return np.array([[v % p for v in row] for row in rows], dtype=np.int64)


def _modp_eliminate(A: np.ndarray, p: int):
    """Row echelon mod p.  Returns (rank, pivot_row_idx, pivot_col_idx).

    Row indices refer to the caller's original row order.  The pivot of
    each column is its first nonzero entry at or below the current row,
    swapped into place, so the result is that of plain Gaussian
    elimination mod p.

    The work is in float64, blocked by panels of ``_PANEL`` columns.
    Within a panel each column is brought up to date by the panel's
    earlier pivots when its turn comes, and the pivot row is finished by
    forward substitution against them; only that column and that row are
    reduced mod p.  The rows below then get one ``L @ U`` product for the
    whole panel.  Residues are below p, so a cell stays exact while it
    carries at most ``(2**53 - p) // (p - 1)**2`` such products; the
    trailing block is reduced only before it would pass that count, and
    a prime too large for one panel of products raises ``ValueError``.
    """
    limit = (2**53 - p) // (p - 1) ** 2
    if limit < _PANEL:
        raise ValueError(f"prime {p} is too large for exact float64 elimination")
    M = (A % p).astype(np.float64)
    n, m = M.shape
    L = np.empty((n, _PANEL))  # multipliers of the current panel's pivots
    perm = list(range(n))
    pr = 0
    piv_rows: list[int] = []
    piv_cols: list[int] = []
    products = 0  # products a trailing cell carries since its last reduction
    for c0 in range(0, m, _PANEL):
        c1 = min(c0 + _PANEL, m)
        if products + (c1 - c0) > limit:
            np.remainder(M[pr:, c0:], p, out=M[pr:, c0:])
            products = 0
        top = pr
        for pc in range(c0, c1):
            k = pr - top
            col = M[pr:, pc] - L[pr:, :k] @ M[top:pr, pc]
            np.remainder(col, p, out=col)
            nz = col.nonzero()[0]
            if not nz.size:
                continue
            j = int(nz[0])
            inv = pow(int(col[j]), -1, p)
            if j:  # swap rows pr and pr + j by copy
                r = pr + j
                row = M[r, c0:].copy()
                M[r, c0:] = M[pr, c0:]
                M[pr, c0:] = row
                row = L[r, :k].copy()
                L[r, :k] = L[pr, :k]
                L[pr, :k] = row
                col[j] = col[0]
                perm[pr], perm[r] = perm[r], perm[pr]
            u = M[pr, pc + 1 :]
            u -= L[pr, :k] @ M[top:pr, pc + 1 :]
            np.remainder(u, p, out=u)
            lower = L[pr + 1 :, k]
            np.multiply(col[1:], inv, out=lower)
            np.remainder(lower, p, out=lower)
            piv_rows.append(perm[pr])
            piv_cols.append(pc)
            pr += 1
            if pr == n:
                return pr, piv_rows, piv_cols
        k = pr - top
        if k and c1 < m:
            M[pr:, c1:] -= L[pr:, :k] @ M[top:pr, c1:]
            products += k
    return pr, piv_rows, piv_cols


def _modp_solve_many(A: np.ndarray, B: np.ndarray, p: int):
    """Solve x A = b mod p for each row b of B; A square invertible mod p.

    Returns the k x r solution array, or None if A is singular mod p.
    """
    r = A.shape[0]
    aug = np.concatenate([A.T % p, B.T % p], axis=1)  # r x (r + k)
    for i in range(r):
        col = aug[i:, i]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            return None
        j = i + int(nz[0])
        if j != i:
            aug[[i, j]] = aug[[j, i]]
        inv = pow(int(aug[i, i]), p - 2, p)
        aug[i, i:] = (aug[i, i:] * inv) % p
        below = aug[i + 1 :, i]
        nzb = np.nonzero(below)[0]
        if nzb.size:
            aug[i + 1 + nzb, i:] = (
                aug[i + 1 + nzb, i:] - below[nzb][:, None] * aug[i, i:]
            ) % p
    for i in range(r - 1, -1, -1):
        above = aug[:i, i]
        nza = np.nonzero(above)[0]
        if nza.size:
            aug[nza, i:] = (aug[nza, i:] - above[nza][:, None] * aug[i, i:]) % p
    return aug[:, r:].T % p


def _rational_reconstruct(x: int, modulus: int):
    """Wang's rational reconstruction of x mod modulus, or None."""
    bound = isqrt((modulus - 1) // 2)
    r0, r1 = modulus, x % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r1 > bound or s1 == 0 or abs(s1) > bound:
        return None
    num, den = (r1, s1) if s1 > 0 else (-r1, -s1)
    if gcd(abs(num), den) != 1:
        return None
    return Fraction(num, den)


def _span_certificate(rows, piv_rows, nonpiv_rows, piv_cols) -> bool:
    """Prove every non-pivot row lies in the rational span of pivot rows.

    The combination coefficients are recovered modulo a growing product
    of primes (incremental CRT) and rationally reconstructed row by row;
    a row counts as done only after the combination identity is checked
    in exact integer arithmetic.  An unlucky prime can therefore cost a
    retry but never produce a wrong answer.
    """
    if not piv_rows:  # the span of no rows is zero: nothing to solve for
        return not any(any(rows[i]) for i in nonpiv_rows)
    r = len(piv_rows)
    k = len(nonpiv_rows)
    piv_mat = [rows[i] for i in piv_rows]
    ncols = len(rows[0])

    combined = [[0] * r for _ in range(k)]  # residues mod `modulus`
    modulus = 1
    remaining = set(range(k))
    retry_bits = {}  # row -> modulus bits before re-verifying a reconstruction
    since_attempt = 0
    for p in PRIMES:
        A = np.array([[rows[i][c] % p for c in piv_cols] for i in piv_rows],
                     dtype=np.int64)
        B = np.array([[rows[i][c] % p for c in piv_cols] for i in nonpiv_rows],
                     dtype=np.int64)
        sol = _modp_solve_many(A, B, p)
        if sol is None:  # pivot block singular mod this prime: skip it
            continue
        if modulus == 1:
            modulus = p
            combined = [[int(sol[i, j]) for j in range(r)] for i in range(k)]
        else:
            inv = pow(modulus % p, p - 2, p)
            new_modulus = modulus * p
            for i in range(k):
                row = combined[i]
                for j in range(r):
                    x = row[j]
                    delta = ((int(sol[i, j]) - x) * inv) % p
                    row[j] = (x + modulus * delta) % new_modulus
            modulus = new_modulus
        since_attempt += 1
        if since_attempt < 6:
            continue
        since_attempt = 0
        for i in sorted(remaining):
            if retry_bits.get(i, 0) > modulus.bit_length():
                continue
            coeffs = []
            for j in range(r):
                frac = _rational_reconstruct(combined[i][j], modulus)
                if frac is None:
                    coeffs = None
                    break
                coeffs.append(frac)
            if coeffs is None:
                continue
            if _verify_combination(rows[nonpiv_rows[i]], piv_mat, coeffs, ncols):
                remaining.discard(i)
            else:
                # spurious reconstruction: wait for 64 more modulus bits
                retry_bits[i] = modulus.bit_length() + 64
        if not remaining:
            return True
    return False


def _verify_combination(target, piv_mat, coeffs, ncols) -> bool:
    """Exact check that target == sum(coeffs[j] * piv_mat[j])."""
    scale = lcm(*(f.denominator for f in coeffs)) if coeffs else 1
    acc = [mpz(0)] * ncols
    for f, row in zip(coeffs, piv_mat):
        g = mpz(f.numerator * (scale // f.denominator))
        if g:
            acc = [a + g * v for a, v in zip(acc, row)]
    s = mpz(scale)
    return all(a == s * v for a, v in zip(acc, target))


def rank(rows, upper: int | None = None) -> int:
    """Exact rank of an integer matrix; certified fast paths, Bareiss fallback.

    ``upper``, when given, must be a proven upper bound on the rank over Q;
    it tightens the default bound ``min(rows, cols)``.  Each elimination
    mod p gives a lower bound, so one that reaches the bound pins the rank
    exactly; a mod-p rank above ``upper`` raises ``ValueError``.

    The residues come first, from ``rows.mod(p)`` when the matrix has it;
    the exact rows are read (and content-divided) only after a missed
    pin, at any size.  The matrix is eliminated in float64 mod each of
    the two ``_ELIM_PRIMES`` (below 2**20, so every product is exact; see
    :func:`_modp_eliminate`), the second only when the first misses the
    bound, since an unlucky prime can lose rank.  When both miss, one span certificate over the 31-bit
    CRT ``PRIMES`` checks the pivots of the larger mod-p rank, and Bareiss
    settles what it cannot.
    """
    n = len(rows)
    if n == 0:
        return 0
    first = _modp_matrix(rows, _ELIM_PRIMES[0])
    m = first.shape[1]
    bound = min(n, m) if upper is None else min(n, m, upper)
    best = None
    for p in _ELIM_PRIMES:
        residues = first if p == _ELIM_PRIMES[0] else _modp_matrix(rows, p)
        found = _modp_eliminate(residues, p)
        if found[0] > bound:
            raise ValueError(f"upper bound {upper} is below the mod-p rank {found[0]}")
        if found[0] == bound:
            return found[0]
        if best is None or found[0] > best[0]:
            best = found
    rp, piv_rows, piv_cols = best
    exact = _strip_rows(rows)
    nonpiv = sorted(set(range(n)) - set(piv_rows))
    if len(nonpiv) <= _MAX_DEFECT and _span_certificate(
        exact, sorted(piv_rows), nonpiv, piv_cols
    ):
        return rp
    return bareiss_rank(exact)


def has_full_row_rank(rows) -> bool:
    """True exactly when the rows are linearly independent over Q:
    ``rank(rows) == len(rows)``, so both answers are exact."""
    return rank(rows) == len(rows)
