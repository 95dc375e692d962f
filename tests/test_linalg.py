"""The rank engines against each other and against a Fraction oracle."""

import math
import random

from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpus import ladder_degrees
from fatpoints import linalg
from fatpoints.linalg import (
    _ELIM_PRIMES,
    _rational_reconstruct,
    bareiss_rank,
    has_full_row_rank,
    rank,
)


def fraction_rank(rows) -> int:
    """Plain Gaussian elimination over Fraction; slow independent oracle."""
    M = [[Fraction(v) for v in row] for row in rows]
    n = len(M)
    if n == 0 or not M[0]:
        return 0
    ncols = len(M[0])
    rank = 0
    pr = 0
    for pc in range(ncols):
        piv = next((r for r in range(pr, n) if M[r][pc]), None)
        if piv is None:
            continue
        M[pr], M[piv] = M[piv], M[pr]
        pv = M[pr][pc]
        for r in range(pr + 1, n):
            f = M[r][pc] / pv
            if f:
                M[r] = [a - f * b for a, b in zip(M[r], M[pr])]
        pr += 1
        rank += 1
        if pr == n:
            break
    return rank


def test_trivial_shapes():
    assert bareiss_rank([]) == 0
    assert rank([]) == 0
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([[1, 0], [0, 1]]) == 2
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0, 5]]) == 1


def test_known_singular():
    M = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert bareiss_rank(M) == 2
    assert fraction_rank(M) == 2
    assert rank(M) == 2


def _planted_matrix(rng, n, m, base_rows):
    base = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(base_rows)]
    M = [list(r) for r in base]
    while len(M) < n:
        coefs = [rng.randint(-3, 3) for _ in base]
        M.append([sum(c * row[j] for c, row in zip(coefs, base)) for j in range(m)])
    rng.shuffle(M)
    return M


def test_bareiss_matches_fraction_oracle():
    rng = random.Random(20240)
    for _ in range(250):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        M = _planted_matrix(rng, n, m, rng.randint(1, n))
        assert bareiss_rank(M) == fraction_rank(M)


def test_certified_path_matches_bareiss_on_large_deficient():
    rng = random.Random(7)
    for trial in range(6):
        n, m = 48, 110
        M = _planted_matrix(rng, n, m, rng.randint(20, 44))
        assert rank(M) == bareiss_rank(M)


def test_certified_full_rank_path():
    rng = random.Random(11)
    M = [[rng.randint(-50, 50) for _ in range(120)] for _ in range(60)]
    assert rank(M) == 60  # random wide matrix: full row rank


def test_has_full_row_rank():
    assert has_full_row_rank([[1, 0, 1], [0, 1, 1]])
    assert not has_full_row_rank([[1, 2, 3], [2, 4, 6]])
    assert not has_full_row_rank([[0, 0, 0]])
    assert has_full_row_rank([])
    # q vanishes mod both elimination primes, yet the rows are independent.
    q = _ELIM_PRIMES[0] * _ELIM_PRIMES[1]
    assert has_full_row_rank([[q, 0], [0, 1]]) is True


@pytest.mark.parametrize(
    "M",
    [[[0, 0, 0]], [[0], [0]], [[_ELIM_PRIMES[0] * _ELIM_PRIMES[1]]]],
    ids=["zero_row", "zero_column", "product_of_elimination_primes"],
)
def test_rank_zero_modulo_both_primes(M, monkeypatch):
    # No pivot mod either prime: zero rows have rank 0 with no solve, and a
    # nonzero matrix fails the certificate, which proves its rank above 0.
    expected = bareiss_rank(M)
    monkeypatch.setattr(linalg, "bareiss_rank", _refuse)
    assert rank(M) == expected


@given(st.integers(1, 10**9), st.integers(2, 60))
def test_rational_reconstruct_round_trip(den, nbits):
    num = (1 << nbits) - 3
    modulus = (2147483647 * 2147483629) ** 3
    if math.gcd(num, den) != 1:
        return
    x = (num * pow(den, -1, modulus)) % modulus
    got = _rational_reconstruct(x, modulus)
    assert got == (num, den)


def test_row_content_stripping_preserves_rank():
    M = [[6, 12, 18], [5, 7, 11], [0, 0, 0]]
    assert rank(M) == 2
    assert bareiss_rank(M) == 2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-40, 40), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_rank_engines_agree_random(rows):
    assert bareiss_rank(rows) == fraction_rank(rows)


# --- bound pinning on real conditions matrices -------------------------------
#
# Conditions matrices of generic configurations carry entries of 80 to 300
# bits, far beyond the small planted matrices above, so these also exercise
# rational reconstruction on large entries.  The upper bounds are the
# Cooper-Harbourne-Teitler bounds of each scheme's greedy reduction vector.

from fatpoints.geom import ProjPoint
from fatpoints.hilbert import conditions_matrix, hilbert_value
from fatpoints.kconfig import KType, fatten, generate_generic, generate_with_line_count
from fatpoints.scheme import FatPointScheme


def _generic_matrix(dvec, m, t):
    z = fatten(generate_generic(KType(dvec), seed=0, bound=50), m)
    return conditions_matrix(z, t), z.greedy_reduction.sandwich(t)[1]


def _max_bits(M):
    return max(abs(v) for row in M for v in row).bit_length()


def _refuse(*args, **kwargs):
    raise AssertionError("the pinned call must not reach this engine")


@pytest.mark.parametrize("t", [9, 10])
def test_pin_is_tight_on_small_conditions_matrix(t, monkeypatch):
    M, F = _generic_matrix((1, 2, 3), 4, t)
    assert _max_bits(M) > 64
    expected = bareiss_rank(M)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "bareiss_rank", _refuse)
        patch.setattr(linalg, "_span_certificate", _refuse)
        assert rank(M, upper=F) == expected == F
    # A bound that is not tight falls through to the span certificate.
    assert rank(M, upper=F + 1) == expected


def test_pin_is_tight_on_large_deficient_conditions_matrix(monkeypatch):
    M, F = _generic_matrix((1, 2, 3, 4), 5, 18)
    assert _max_bits(M) > 128
    expected = rank(M)  # unpinned: span certificate
    assert expected < min(len(M), len(M[0]))
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_span_certificate", _refuse)
        patch.setattr(linalg, "bareiss_rank", _refuse)
        assert rank(M, upper=F) == expected == F
    # A bound that is not tight falls through to the second elimination
    # prime and then to the certified path; no prime is eliminated twice.
    primes = []
    real_eliminate = linalg._modp_eliminate

    def eliminate(A, p):
        primes.append(p)
        return real_eliminate(A, p)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_modp_eliminate", eliminate)
        assert rank(M, upper=F + 1) == expected
    assert primes == list(_ELIM_PRIMES)


def test_bound_above_the_shape_pins_at_the_shape(monkeypatch):
    # min(rows, cols) is a bound too: a looser ``upper`` still pins there.
    M = [[1, 2, 3, 4], [5, 6, 7, 8], [2, 3, 5, 7]]
    monkeypatch.setattr(linalg, "bareiss_rank", _refuse)
    assert rank(M, upper=3 + 3) == 3


def test_bound_below_modp_rank_is_refused():
    M = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ValueError):
        rank(M, upper=2)
    assert rank(M, upper=3) == 3


def test_lost_residue_falls_back_to_an_exact_rank():
    # (p, 1, 1) and (0, 1, 1) are distinct points that coincide mod the
    # first elimination prime p, so every elimination mod p understates the rank.
    p = _ELIM_PRIMES[0]
    pts = [ProjPoint((p, 1, 1)), ProjPoint((0, 1, 1)), ProjPoint((1, 0, 1))]
    z = FatPointScheme.from_points(pts, [2, 2, 2])
    lost = 0
    for t in range(5):
        M = conditions_matrix(z, t)
        expected = bareiss_rank(M)
        lost += linalg._modp_eliminate(M.mod(p), p)[0] < expected
        assert hilbert_value(z, t) == expected
        assert rank(M, upper=expected) == expected
        assert rank(M, upper=expected + 1) == expected
        assert has_full_row_rank(M) == (expected == len(M))
    assert lost == 3  # t = 2, 3, 4


def test_lost_residue_is_pinned_by_the_second_prime(monkeypatch):
    # Six triple points, two of which coincide mod the first elimination
    # prime: where that elimination loses rank, the second prime pins the
    # exact value and no span certificate runs.
    p = _ELIM_PRIMES[0]
    pts = [ProjPoint((p, 1, 1)), ProjPoint((0, 1, 1)), ProjPoint((1, 0, 1)),
           ProjPoint((2, 3, 1)), ProjPoint((-3, 1, 2)), ProjPoint((5, -2, 3))]
    z = FatPointScheme.from_points(pts, [3] * 6)
    monkeypatch.setattr(linalg, "_span_certificate", _refuse)
    lost = []
    for t in range(12):
        M = conditions_matrix(z, t)
        expected = bareiss_rank(M)
        if linalg._modp_eliminate(M.mod(p), p)[0] < expected:
            lost.append(t)
            assert rank(M, upper=expected) == expected
    assert lost == [6, 7, 8, 9, 10, 11]


# --- the span certificate ----------------------------------------------------
#
# Unpinned, the deficient t* - 1 matrix of every ladder rung needs a
# certificate.  Its left nullity is 1; its transpose puts that kernel vector
# on the right, so the two orientations exercise both sides.


def _transposed(M):
    return [list(col) for col in zip(*M)]


def _certificates(monkeypatch):
    """Refuse Bareiss and record each certificate's verdict and the number
    of kernel vectors it lifts."""
    seen = []
    real_certificate, real_lift = linalg._span_certificate, linalg._lift

    def certificate(*args):
        seen.append(real_certificate(*args))
        return seen[-1]

    def lift(A, B, p):
        seen.append(B.shape[1])
        return real_lift(A, B, p)

    monkeypatch.setattr(linalg, "_span_certificate", certificate)
    monkeypatch.setattr(linalg, "_lift", lift)
    monkeypatch.setattr(linalg, "bareiss_rank", _refuse)
    return seen


@pytest.mark.parametrize("transpose", [False, True], ids=["rows", "transposed"])
@pytest.mark.parametrize(
    "z, t", [pytest.param(z, t, id=name) for name, z, t in list(ladder_degrees())[::2]]
)
def test_certificate_on_ladder_matrices(z, t, transpose, monkeypatch):
    with monkeypatch.context() as patch:  # the pinned value: no certificate
        patch.setattr(linalg, "_span_certificate", _refuse)
        patch.setattr(linalg, "bareiss_rank", _refuse)
        expected = hilbert_value(z, t)
    M = [list(row) for row in conditions_matrix(z, t)]
    if transpose:
        M = _transposed(M)
    assert _max_bits(M) > 80
    assert expected == min(len(M), len(M[0])) - 1
    if max(len(M), len(M[0])) <= 66:  # (1, 2, 3)/4, where Bareiss is quick
        assert bareiss_rank(M) == expected
    seen = _certificates(monkeypatch)
    assert rank(M) == expected
    assert seen == [1, True]  # one kernel vector, on the smaller side


def test_certificate_reads_the_elimination_in_hand(monkeypatch):
    # Both primes find the same rank of an unpinned deficient rung: the
    # second elimination goes to the certificate with its own pivots and
    # prime, and the first is not kept for it.
    _, z, t = next(ladder_degrees())  # (1, 2, 3)/4 at t* - 1
    M = conditions_matrix(z, t)
    eliminations, certified = [], []
    real_eliminate, real_certificate = linalg._modp_eliminate, linalg._span_certificate

    def eliminate(A, p):
        eliminations.append((*real_eliminate(A, p), p))
        return eliminations[-1][:3]

    def certificate(rows, piv_rows, piv_cols, p):
        certified.append((piv_rows, piv_cols, p))
        return real_certificate(rows, piv_rows, piv_cols, p)

    monkeypatch.setattr(linalg, "_modp_eliminate", eliminate)
    monkeypatch.setattr(linalg, "_span_certificate", certificate)
    monkeypatch.setattr(linalg, "bareiss_rank", _refuse)
    deficient = min(len(M), len(M[0])) - 1
    assert rank(M) == deficient
    assert [e[0] for e in eliminations] == [deficient] * 2
    assert certified == [eliminations[1][1:]]
    assert certified[0][2] == _ELIM_PRIMES[1]


def test_certificate_on_the_family_matrix(monkeypatch):
    # family --s 5 --m 6 --seed 0: at t = 21 the r = 5 member is the one
    # value no bound pins.  315 x 253 of rank 252: the right nullity is 1
    # and the left nullity 63.
    z = fatten(generate_with_line_count(5, 5, seed=0, bound=20), 6)
    assert z.greedy_reduction.sandwich(21)[1] > 252
    seen = _certificates(monkeypatch)
    assert hilbert_value(z, 21) == 252
    assert seen == [1, True]


def test_certificate_lifts_past_spurious_reconstructions(monkeypatch):
    # The solution Y = b / a of the 1 x 1 pivot block has a 206-bit
    # numerator over a 200-bit denominator: shorter expansions reconstruct
    # to smaller fractions, which fail A Y == den B, and lifting goes on.
    a, b = 2**200 + 235, 3**130
    found = []
    real_reconstruct = linalg._reconstruct

    def reconstruct(X, modulus):
        found.append(real_reconstruct(X, modulus))
        return found[-1]

    monkeypatch.setattr(linalg, "_reconstruct", reconstruct)
    monkeypatch.setattr(linalg, "bareiss_rank", _refuse)
    assert rank([[a, b], [2 * a, 2 * b], [3 * a, 3 * b]]) == 1
    assert sum(f is not None for f in found) > 1


def test_certificate_refuses_a_rank_both_primes_lose(monkeypatch):
    # q vanishes mod both elimination primes: each finds the one pivot (0, 0),
    # whose kernel vector does not annihilate the row (0, q).
    q = _ELIM_PRIMES[0] * _ELIM_PRIMES[1]
    M = [[1, 0], [0, q]]
    for p in _ELIM_PRIMES:
        assert linalg._modp_eliminate(np.array(M) % p, p) == (1, [0], [0])
        assert linalg._span_certificate(M, [0], [0], p) is False
    monkeypatch.setattr(linalg, "bareiss_rank", _refuse)
    assert rank(M) == 2


def test_certificate_refuses_a_prime_too_large_for_float64_lifting():
    # One pivot mod a 31-bit prime already passes 2**53 in the lifting's
    # products; no verdict is a safe answer, since False would prove rank 2.
    with pytest.raises(ValueError, match="2x2 matrix"):
        linalg._span_certificate([[1, 0], [0, 1]], [0], [0], 2147483647)


@given(st.lists(st.integers(-(2**300), 2**300), min_size=1, max_size=12))
def test_limbs_recombine_to_the_integers(values):
    count = max(abs(v).bit_length() for v in values) // linalg._LIMB + 1
    limbs = linalg._limbs(np.array(values, dtype=object), count)
    assert limbs.dtype == np.int64 and np.abs(limbs).max() < 2**linalg._LIMB
    assert [sum(int(limb) << linalg._LIMB * l for l, limb in enumerate(limbs[:, i]))
            for i in range(len(values))] == values


def test_inverse_modp_is_exact_without_reducing_every_cell():
    # 200 steps of unreduced updates; a product with the inverse has sums
    # below 2**48, so the float64 check is exact too.
    p = _ELIM_PRIMES[0]
    A = np.random.default_rng(3).integers(0, p, (200, 200)).astype(np.float64)
    inv = linalg._inverse_modp(A, p)
    assert np.abs(inv).max() <= p // 2
    assert ((A @ inv) % p == np.eye(200)).all()


# --- primes past the elimination primes --------------------------------------


def _largest_primes(count):
    """The ``count`` largest primes below 2**20, by a sieve of Eratosthenes."""
    sieve = np.ones(2**20, dtype=bool)
    sieve[:2] = False
    for i in range(2, 2**10):
        if sieve[i]:
            sieve[i * i :: i] = False
    return [int(q) for q in np.flatnonzero(sieve)[::-1][:count]]


def test_primes_start_with_the_elimination_primes():
    primes = list(islice(linalg._primes(), 20))
    assert primes[:2] == list(_ELIM_PRIMES)
    assert primes == _largest_primes(20)


@pytest.mark.parametrize("k", [2, 3])
def test_rank_goes_past_primes_that_lose_rank(k, monkeypatch):
    # q is the product of the k largest primes, so each of them loses rank on
    # [[1, 0], [0, q]] and on the conditions matrices where (q, 1, 1) and
    # (0, 1, 1) coincide mod p.  One certificate per such matrix fails and
    # raises the floor above the rank those primes find, so they get no
    # second one, and a later prime settles the value.
    q = math.prod(_largest_primes(k))
    pts = [ProjPoint((q, 1, 1)), ProjPoint((0, 1, 1)), ProjPoint((1, 0, 1)),
           ProjPoint((2, 3, 1)), ProjPoint((-3, 1, 2)), ProjPoint((5, -2, 3))]
    z = FatPointScheme.from_points(pts, [3] * 6)
    matrices = [[[1, 0], [0, q]], *(conditions_matrix(z, t) for t in range(12))]
    expected = [bareiss_rank(M) for M in matrices]
    verdicts = []
    real_certificate = linalg._span_certificate

    def certificate(*args):
        verdicts[-1].append(real_certificate(*args))
        return verdicts[-1][-1]

    monkeypatch.setattr(linalg, "_span_certificate", certificate)
    monkeypatch.setattr(linalg, "bareiss_rank", _refuse)
    for M, value in zip(matrices, expected):
        verdicts.append([])
        assert rank(M) == value
    assert [v.count(False) for v in verdicts] == [1] + [0] * 6 + [1] * 6


# --- the float64 kernel against the int64 reference --------------------------


def _modp_eliminate_int64(A, p):
    """Row echelon mod p in int64, one pivot at a time over the whole
    trailing block; the reference for ``linalg._modp_eliminate``.  A single
    product of residues stays below 2**62."""
    M = A % p
    n, m = M.shape
    perm = list(range(n))
    pr = 0
    piv_rows = []
    piv_cols = []
    for pc in range(m):
        col = M[pr:, pc]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        r = pr + int(nz[0])
        if r != pr:
            M[[pr, r]] = M[[r, pr]]
            perm[pr], perm[r] = perm[r], perm[pr]
        inv = pow(int(M[pr, pc]), p - 2, p)
        below = M[pr + 1 :, pc]
        nzb = np.nonzero(below)[0]
        if nzb.size:
            factors = (below[nzb] * inv) % p
            M[pr + 1 + nzb, pc:] = (
                M[pr + 1 + nzb, pc:] - factors[:, None] * M[pr, pc:]
            ) % p
        piv_rows.append(perm[pr])
        piv_cols.append(pc)
        pr += 1
        if pr == n:
            break
    return pr, piv_rows, piv_cols


# Near 2**23 a cell holds at most 128 products of residues, so the kernel
# reduces its trailing block on any matrix of rank above 128.
_P23 = 8388593
_KERNEL_PRIMES = (*_ELIM_PRIMES, 101, _P23)


def _planted_array(seed, n, m, rank, zero_rows=(), zero_cols=()):
    rows = _planted_matrix(random.Random(seed), n, m, rank)
    M = np.array(rows, dtype=np.int64).reshape(n, m)
    M[list(zero_rows), :] = 0
    M[:, list(zero_cols)] = 0
    return M


def _kernel_cases():
    for name, z, t in ladder_degrees():
        yield name, lambda p, z=z, t=t: conditions_matrix(z, t).mod(p)
    planted = {
        "wide": (1, 70, 150, 40, (), ()),
        "tall": (2, 150, 70, 30, (), ()),
        "zeros": (3, 90, 120, 50, (0, 7, 8, 60, 89), (0, 1, *range(32, 70), 119)),
        "row": (4, 1, 80, 1, (), (0, 1, 2)),
        "column": (5, 80, 1, 1, (0, 1, 2), ()),
        "empty-rows": (6, 0, 5, 0, (), ()),
        "empty-cols": (7, 5, 0, 0, (), ()),
    }
    for name, args in planted.items():
        yield name, lambda p, args=args: _planted_array(*args) % p
    # rank 20 mod 101, full rank 80 mod the other primes
    noise = np.random.default_rng(8).integers(-3, 4, (80, 100))
    lifted = _planted_array(8, 80, 100, 20) + 101 * noise
    yield "drops-mod-101", lambda p: lifted % p


@pytest.mark.parametrize("p", _KERNEL_PRIMES)
@pytest.mark.parametrize(
    "residues", [pytest.param(f, id=name) for name, f in _kernel_cases()]
)
def test_kernel_matches_int64_reference(residues, p):
    A = residues(p)
    assert linalg._modp_eliminate(A, p) == _modp_eliminate_int64(A, p)


@pytest.mark.parametrize("p, limit", [(_P23, 128), (16777213, 32)])
def test_trailing_reduction_runs_on_a_rung_matrix(p, limit):
    # 16777213 is the largest prime that leaves room for one panel; there a
    # rung's unreduced products would pass 2**53 on average, not only at worst.
    _, z, t = list(ladder_degrees())[5]  # (1, ..., 5)/6 at t*
    A = conditions_matrix(z, t).mod(p)
    assert (2**53 - p) // (p - 1) ** 2 == limit
    rp, piv_rows, piv_cols = linalg._modp_eliminate(A, p)
    assert rp == len(A) > limit + linalg._PANEL
    assert (rp, piv_rows, piv_cols) == _modp_eliminate_int64(A, p)


@pytest.mark.parametrize("p", [2147483647, 2**25 - 39])
def test_kernel_refuses_a_prime_too_large_for_float64(p):
    with pytest.raises(ValueError):
        linalg._modp_eliminate(np.eye(3, dtype=np.int64), p)
