"""The rank engines against each other and against a Fraction oracle."""

import random

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fatpoints import linalg
from fatpoints.linalg import (
    PRIMES,
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
    # wide enough to route past the small-matrix cutoff
    rng = random.Random(7)
    for trial in range(6):
        n, m = 48, 110
        M = _planted_matrix(rng, n, m, rng.randint(20, 44))
        assert n * m > linalg._SMALL_CELLS
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


@given(st.integers(1, 10**9), st.integers(2, 60))
def test_rational_reconstruct_round_trip(den, nbits):
    num = (1 << nbits) - 3
    modulus = 1
    for p in PRIMES[:6]:
        modulus *= p
    if Fraction(num, den).denominator != den:
        return
    x = (num * pow(den, -1, modulus)) % modulus
    got = _rational_reconstruct(x, modulus)
    assert got == Fraction(num, den)


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
# rational reconstruction on large entries.  The upper bounds come from the
# Cooper-Harbourne-Teitler peeling bounds.

from fatpoints.cht import hilbert_upper
from fatpoints.geom import ProjPoint
from fatpoints.hilbert import conditions_matrix, hilbert_value
from fatpoints.kconfig import KType, fatten, generate_generic
from fatpoints.scheme import FatPointScheme


def _generic_matrix(dvec, m, t):
    x = generate_generic(KType(dvec), seed=0, bound=50)
    return conditions_matrix(fatten(x, m), t), hilbert_upper(x, m)(t)


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
    # A bound that is not tight falls through to Bareiss.
    assert rank(M, upper=F + 1) == expected


def test_pin_is_tight_on_large_deficient_conditions_matrix(monkeypatch):
    M, F = _generic_matrix((1, 2, 3, 4), 5, 18)
    assert len(M) * len(M[0]) > linalg._SMALL_CELLS
    assert _max_bits(M) > 128
    expected = rank(M)  # unpinned: span certificate
    assert expected < min(len(M), len(M[0]))
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_span_certificate", _refuse)
        patch.setattr(linalg, "bareiss_rank", _refuse)
        assert rank(M, upper=F) == expected == F
    # A bound that is not tight falls through to the certified path, which
    # reuses the first elimination instead of repeating it.
    primes = []
    real_eliminate = linalg._modp_eliminate

    def eliminate(A, p):
        primes.append(p)
        return real_eliminate(A, p)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_modp_eliminate", eliminate)
        assert rank(M, upper=F + 1) == expected
    assert primes == [PRIMES[0]]


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
    # (PRIMES[0], 1, 1) and (0, 1, 1) are distinct points that coincide mod
    # PRIMES[0], so every elimination mod that prime understates the rank.
    p = PRIMES[0]
    pts = [ProjPoint((p, 1, 1)), ProjPoint((0, 1, 1)), ProjPoint((1, 0, 1))]
    z = FatPointScheme.from_points(pts, [2, 2, 2])
    lost = 0
    for t in range(5):
        M = conditions_matrix(z, t)
        expected = bareiss_rank(M)
        lost += linalg._modp_eliminate(M.mod(p), p)[0] < expected
        assert hilbert_value(z, t) == expected
        assert hilbert_value(z, t, upper=expected) == expected
        assert hilbert_value(z, t, upper=expected + 1) == expected
        assert has_full_row_rank(M) == (expected == len(M))
    assert lost == 3  # t = 2, 3, 4
