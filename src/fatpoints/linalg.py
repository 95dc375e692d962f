"""Exact rank of integer matrices.

:func:`fatpoints.hilbert.hilbert_value` calls here only for a value that
the Cooper-Harbourne-Teitler bounds f_v <= H <= F_v of the scheme's
greedy reduction vector leave open; where they meet it builds no matrix.
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
  the upper bound is proved by a span certificate: an integer kernel basis
  on the side of the smaller nullity, solved by p-adic lifting modulo the
  prime that found the pivots and checked against the whole matrix in
  exact integer arithmetic.  If the check fails the matrix goes to
  Bareiss.

Every returned value is therefore exact regardless of which path
produced it, and so is ``has_full_row_rank``, which compares ``rank``
with the row count.

All modular work is modulo the two ``_ELIM_PRIMES``, below 2**20, in
float64.  The eliminations that pin a rank are blocked and right-looking,
with delayed modular reduction and one BLAS matrix product per panel of
columns, after FFLAS-FFPACK (Dumas, Giorgi and Pernet, "Dense linear
algebra over word-size prime fields: the FFLAS and FFPACK packages", ACM
TOMS 35(3), 2008).  Every float they hold is an integer below 2**53 in
absolute value, so every product and sum is exact whatever order BLAS
adds in: residues are below p, and a cell is reduced again before it
carries more than ``(2**53 - p) // (p - 1)**2`` products of two residues
(8192 for a 20-bit p, more than any matrix here needs).  The span
certificate lifts with the pivot block's inverse mod the same prime and
the block split into 16-bit limbs, so its float64 products are exact too.

The modular arithmetic here is an internal certification device only;
geometric coefficients elsewhere in the package remain rational.

numpy is imported inside the functions that touch arrays, not when this
module loads, so it loads with the first ``rank`` of a nonempty matrix.
A command whose every Hilbert value the sandwich settles never loads it,
nor ``fractions``, which only the span certificate's reconstruction uses.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

try:
    from gmpy2 import mpz
except ImportError:  # gmpy2 is an optional extra: ``pip install .[gmpy2]``
    mpz = int  # Python int gives the same exact results, only slower

# Primes below 2**20 for the float64 eliminations that pin ranks and for
# the p-adic lifting of the span certificate.
_ELIM_PRIMES = (1048573, 1048571)
# Columns per panel of ``_modp_eliminate``: one BLAS product per panel.
_PANEL = 32
# Bits per limb in the span certificate's lifting: a limb times a symmetric
# residue mod a 20-bit prime is below 2**35, exact in float64 sums of 2**18.
_LIMB = 16
# Digits between reconstructions: three symmetric 20-bit digits fit int64.
_CADENCE = 3


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


def _modp_matrix(rows, p: int) -> np.ndarray:
    """The residues mod p as int64: from ``rows.mod(p)`` when the matrix
    builds them itself (a conditions matrix does), else cell by cell."""
    import numpy as np

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
    import numpy as np

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


def _rational_reconstruct(x: int, modulus: int):
    """Wang's rational reconstruction of x mod modulus, or None."""
    from fractions import Fraction

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


def _inverse_modp(A: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of a float64 residue matrix, as symmetric residues, by
    Gauss-Jordan elimination.  Only the pivot column and row are reduced,
    so a cell gains less than 2**38 per step: exact for under 2**15 rows."""
    import numpy as np

    r = len(A)
    M = np.concatenate([A, np.eye(r)], axis=1)
    for i in range(r):
        col = M[:, i] % p
        j = i + int(col[i:].nonzero()[0][0])
        M[[i, j]] = M[[j, i]]
        col[[i, j]] = col[[j, i]]
        row = M[i] % p * pow(int(col[i]), -1, p) % p
        row[row > p // 2] -= p
        col[col > p // 2] -= p
        col[i] = 0
        M -= np.outer(col, row)
        M[i] = row
    inv = M[:, r:] % p
    inv[inv > p // 2] -= p
    return inv


def _reconstruct(X: np.ndarray, modulus: int):
    """(Y, den) with ``Y == den * X`` mod modulus, or None.  One denominator
    is shared: each entry of ``den * X`` that is not yet an integer is
    reconstructed (:func:`_rational_reconstruct`) and ``den`` takes its
    denominator."""
    import numpy as np

    bound = isqrt(modulus // 2)
    den = 1
    for x in X.flat:
        y = den * x % modulus
        if min(y, modulus - y) <= bound:
            continue
        f = _rational_reconstruct(y, modulus)
        if f is None or den * f.denominator > bound:
            return None
        den *= f.denominator
    Y = den * X % modulus
    return np.where(Y > modulus // 2, Y - modulus, Y), den


def _limbs(V: np.ndarray, count: int) -> np.ndarray:
    """V's integers as ``count`` signed ``_LIMB``-bit limbs, limb first:
    ``V == sum(limbs[l] << _LIMB * l)``."""
    import numpy as np

    raw = b"".join(abs(int(v)).to_bytes(2 * count, "little") for v in V.flat)
    mag = np.frombuffer(raw, "<u2").reshape(-1, count).T.reshape(count, *V.shape)
    return mag * np.where(V < 0, -1, 1)


def _lift(A: np.ndarray, B: np.ndarray, p: int):
    """(Y, den) with ``A @ Y == den * B``, A square and invertible mod p.

    Dixon's p-adic lifting ("Exact solution of linear equations using
    p-adic expansions", Numer. Math. 40, 1982): with one inverse of A mod
    p, each step takes the next p-adic digit ``x = A^-1 R mod p`` of Y and
    replaces the residual R, held exactly in int64 limbs, by ``(R - A x) /
    p``; ``A x`` is one float64 product with A's limbs.  Every ``_CADENCE``
    digits Y is reconstructed, and the first reconstruction that satisfies
    ``A Y == den * B`` exactly is returned.  Y is the unique solution, so
    the loop ends once p**digits passes twice its numerators times den.
    """
    import numpy as np

    r, k = B.shape
    inv = _inverse_modp((A % p).astype(np.float64), p)
    bits = max(abs(int(v)).bit_length() for v in np.concatenate([A, B], axis=1).flat)
    count = bits // _LIMB + 1
    limbs = _limbs(A, count).reshape(-1, r).astype(np.float64)
    R = _limbs(B, count + 1)  # the top limb takes the carries
    res = (B % p).astype(np.int64)
    X = np.zeros((r, k), dtype=object)
    modulus = 1
    while True:
        chunk = np.zeros((r, k), dtype=np.int64)
        for j in range(_CADENCE):
            res[res > p // 2] -= p
            x = inv @ res % p
            x[x > p // 2] -= p
            chunk += x.astype(np.int64) * p**j
            R[:count] -= (limbs @ x).astype(np.int64).reshape(count, r, k)
            for low, high in zip(R, R[1:]):  # carry up
                high += low >> _LIMB
                low &= (1 << _LIMB) - 1
            rem = res = 0
            for limb in R[::-1]:  # divide by p down, and take R mod p
                limb += rem << _LIMB
                rem = limb % p
                limb //= p
                res = ((res << _LIMB) + limb) % p
        X += chunk.astype(object) * modulus
        modulus *= p**_CADENCE
        found = _reconstruct(X, modulus)
        if found is not None and (A.dot(found[0]) == found[1] * B).all():
            return found


def _span_certificate(rows, piv_rows, piv_cols, p: int) -> bool:
    """Prove ``rank(rows) <= len(piv_rows)`` by an exact kernel basis.

    The pivot block A = ``rows[piv_rows][:, piv_cols]`` is invertible mod
    p.  The basis lies on the side of the smaller nullity: the right when
    there are fewer columns than rows, else the left, as the right kernel
    of the transpose.  With B the pivot rows' other columns, each column j
    of the solution of ``A Y = B`` (:func:`_lift`) gives the kernel vector
    ``Y[:, j]`` on the pivot columns and ``-den`` times unit vector j on the
    others, so the vectors are independent.  They annihilate the pivot
    rows by ``A Y == den * B``; False means another row is not annihilated,
    so the true rank is above r.
    """
    import numpy as np

    M = np.array(rows, dtype=object)
    if M.shape[1] >= M.shape[0]:  # the left nullity is no larger
        M, piv_rows, piv_cols = M.T, piv_cols, piv_rows
    if not piv_rows:  # the kernel is everything: the matrix must be zero
        return not M.any()
    if len(piv_rows) * (p // 2) ** 2 >= 2**53:
        return False  # too large for exact float64 lifting; Bareiss decides
    free = np.setdiff1d(np.arange(M.shape[1]), piv_cols)
    Y, den = _lift(M[np.ix_(piv_rows, piv_cols)], M[np.ix_(piv_rows, free)], p)
    rest = M[np.setdiff1d(np.arange(M.shape[0]), piv_rows)]
    return bool((rest[:, piv_cols].dot(Y) == den * rest[:, free]).all())


def rank(rows, upper: int | None = None) -> int:
    """Exact rank of an integer matrix; certified fast paths, Bareiss fallback.

    ``upper``, when given, must be a proven upper bound on the rank over Q;
    it tightens the default bound ``min(rows, cols)``.  Each elimination
    mod p gives a lower bound, so one that reaches the bound pins the rank
    exactly; a mod-p rank above ``upper`` raises ``ValueError``.

    The residues come first, from ``rows.mod(p)`` when the matrix has it;
    the exact rows are read only after a missed pin, at any size.  The
    matrix is eliminated in float64 mod each of the two ``_ELIM_PRIMES``
    (below 2**20, so every product is exact; see :func:`_modp_eliminate`),
    the second only when the first misses the bound, since an unlucky
    prime can lose rank.  When both miss, one span certificate
    (:func:`_span_certificate`) proves the larger mod-p rank with the
    pivots and the prime that found it, and Bareiss settles what it
    cannot.
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
        if best is None or found[0] > best[0][0]:
            best = found, p
    (rp, piv_rows, piv_cols), p = best
    if _span_certificate(rows, piv_rows, piv_cols, p):
        return rp
    return bareiss_rank(rows)


def has_full_row_rank(rows) -> bool:
    """True exactly when the rows are linearly independent over Q:
    ``rank(rows) == len(rows)``, so both answers are exact."""
    return rank(rows) == len(rows)
