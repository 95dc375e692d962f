import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpus import LADDER, config_123_one, config_1234, config_1345, ladder_degrees
from fatpoints import cli, hilbert, linalg
from fatpoints.geom import ProjPoint
from fatpoints.linalg import _ELIM_PRIMES
from fatpoints.hilbert import (
    HilbertTable,
    conditions_matrix,
    hilbert_table,
    hilbert_value,
    monomial_exponents,
    regularity_floor,
    regularity_index,
)
from fatpoints.kconfig import KType, fatten, generate_generic
from fatpoints.scheme import FatPointScheme, reduction_vector
from fatpoints.verify import hilbert_family
from lemmas import random_point


def test_conditions_matrix_simple_point():
    z = FatPointScheme.from_points([ProjPoint((3, 5, 7))], [1])
    M = conditions_matrix(z, 1)
    assert len(M) == 1 and len(M[0]) == 3
    assert sorted(M[0]) == sorted([3, 5, 7])


def test_conditions_matrix_double_point():
    z = FatPointScheme.from_points([ProjPoint((1, 2, 1))], [2])
    M = conditions_matrix(z, 1)
    assert len(M) == 3 and len(M[0]) == 3
    assert linalg.bareiss_rank(M) == 3  # all of degree one is conditioned


def test_conditions_matrix_empty():
    assert list(conditions_matrix(FatPointScheme.from_points([], []), 2)) == []


def _reference_rows(z, t):
    """The conditions matrix cell by cell, with a falling factorial per cell."""

    def falling(n, k):
        out = 1
        for i in range(k):
            out *= n - i
        return out

    rows = []
    for point, mult in z:
        x, y, w = point
        order = min(mult - 1, t)
        for a in range(order + 1):
            for b in range(order - a + 1):
                c = order - a - b
                rows.append([
                    falling(e0, a) * falling(e1, b) * falling(e2, c)
                    * x ** max(e0 - a, 0) * y ** max(e1 - b, 0) * w ** max(e2 - c, 0)
                    for e0, e1, e2 in monomial_exponents(t)
                ])
    return rows


def _ladder_matrices():
    yield from ladder_degrees()
    # zero and negative coordinates; t < m - 1 clamps the operator order
    odd = FatPointScheme.from_points(
        [ProjPoint((0, -3, 1)), ProjPoint((2, 0, -5)), ProjPoint((-1, -1, 0))], [4, 2, 6]
    )
    for t in (0, 1, 3, 4, 7):
        yield f"odd@{t}", odd, t


@pytest.mark.parametrize(
    "z, t", [pytest.param(z, t, id=name) for name, z, t in _ladder_matrices()]
)
def test_residues_equal_exact_matrix_mod_p(z, t):
    M = conditions_matrix(z, t)
    rows = _reference_rows(z, t)
    assert len(M) == len(rows)  # from the scheme, before any row is built
    assert list(M) == rows
    for p in (2147483647, 2147483629, *_ELIM_PRIMES, 101):
        R = M.mod(p)
        assert R.dtype == np.int64
        assert R.tolist() == [[v % p for v in row] for row in rows], p


def test_ladder_matrices_carry_large_entries():
    bits = max(abs(v).bit_length() for _, z, t in _ladder_matrices()
               for row in conditions_matrix(z, t) for v in row)
    assert bits > 300


def test_walkthrough_values():
    z = fatten(config_1345(), 2)
    assert hilbert_value(z, 8) == 36
    assert hilbert_value(z, 9) == 39


def test_counterexample_table():
    z = fatten(config_123_one(), 2)
    tab = hilbert_table(z, 6)
    assert tab.values == (1, 3, 6, 10, 15, 18, 18)
    assert tab.stabilized_at == 5


def test_four_line_value():
    z = fatten(config_1234(), 2)
    assert hilbert_value(z, 6) == 26


def test_single_point_formula(monkeypatch):
    # f_v = F_v for a single point, so no value builds a matrix.
    def spy(z, t):
        raise AssertionError(f"conditions matrix built at t={t}")

    monkeypatch.setattr(hilbert, "conditions_matrix", spy)
    for m in range(1, 6):
        z = FatPointScheme.from_points([ProjPoint((2, -3, 5))], [m])
        for t in range(0, 2 * m + 2):
            assert hilbert_value(z, t) == min(comb(t + 2, 2), comb(m + 1, 2))


def test_empty_scheme_table():
    tab = hilbert_table(FatPointScheme.from_points([], []), 4)
    assert tab.values == (0, 0, 0, 0, 0)
    assert tab.stabilized_at == 0


def test_delta_examples():
    tab = hilbert_table(fatten(config_123_one(), 2), 6)
    assert tab.deltas[5] == 3
    assert tab.deltas[0] == tab.values[0] == 1
    assert len(tab.deltas) == len(tab.values) == 7
    z = fatten(config_1345(), 2)
    tab2 = hilbert_table(z, 9)
    assert tab2.deltas[9] == 3


def test_monotone_and_capped():
    rng = random.Random(31)
    for _ in range(10):
        pts = []
        while len(pts) < rng.randint(1, 6):
            p = random_point(rng, 9)
            if p not in pts:
                pts.append(p)
        z = FatPointScheme.from_points(pts, [rng.randint(1, 3) for _ in pts])
        prev = 0
        for t in range(0, 9):
            h = hilbert_value(z, t)
            assert prev <= h <= min(comb(t + 2, 2), z.degree())
            prev = h


def test_rank_invariance_under_point_rescale():
    # same projective points with different integer representatives
    pts1 = [ProjPoint((1, 2, 3)), ProjPoint((4, 5, 6))]
    z1 = FatPointScheme.from_points(pts1, [2, 2])
    pts2 = [ProjPoint((7, 14, 21)), ProjPoint((-4, -5, -6))]
    z2 = FatPointScheme.from_points(pts2, [2, 2])
    for t in range(0, 5):
        assert hilbert_value(z1, t) == hilbert_value(z2, t)


def test_reduced_scheme_reaches_point_count():
    rng = random.Random(77)
    pts = []
    while len(pts) < 7:
        p = random_point(rng, 15)
        if p not in pts:
            pts.append(p)
    z = FatPointScheme.from_points(pts, [1] * len(pts))
    for t in range(7, 10):
        assert hilbert_value(z, t) == 7


def test_regularity_index_single_point():
    for m in range(1, 7):
        z = FatPointScheme.from_points([ProjPoint((3, 1, 2))], [m])
        assert regularity_index(z) == m - 1


def test_regularity_index_walkthrough():
    z = fatten(config_1345(), 2)
    assert regularity_index(z) == 9


def test_regularity_index_empty():
    with pytest.raises(ValueError, match="the empty scheme has no regularity index"):
        regularity_index(FatPointScheme.from_points([], []))
    with pytest.raises(ValueError, match="the empty scheme has no regularity index"):
        regularity_floor(FatPointScheme.from_points([], []))


def test_table_json():
    tab = HilbertTable((1, 3, 3), (1, 2, 0), 1)
    assert cli._wire(tab) == {"values": [1, 3, 3], "deltas": [1, 2, 0], "stabilized_at": 1}


def test_monomial_order_is_total_degree_consistent():
    mons = monomial_exponents(3)
    assert len(mons) == comb(5, 2)
    assert all(sum(e) == 3 for e in mons)
    assert len(set(mons)) == len(mons)


def _scan_regularity(z):
    """Exact oracle: H(0), H(1), ... until H(t) = deg, with no floor.

    H is the rank of the conditions matrix pinned only by its shape, so no
    Cooper-Harbourne-Teitler bound enters the values the floor and the walk
    are checked against.
    """
    t = 0
    while linalg.rank(conditions_matrix(z, t)) < z.degree():
        t += 1
    return t


# Affine points on a 5x5 grid: collinear triples and heavy lines are common.
_small_schemes = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(1, 4)),
    min_size=2,
    max_size=7,
    unique_by=lambda e: e[:2],
).filter(lambda es: sum(comb(m + 1, 2) for *_, m in es) <= 36)


@settings(max_examples=40, deadline=None)
@given(_small_schemes)
def test_regularity_floor_is_sound(entries):
    z = FatPointScheme.from_points(
        [ProjPoint((x, y, 1)) for x, y, _ in entries], [m for *_, m in entries]
    )
    ri = _scan_regularity(z)
    assert regularity_floor(z) <= ri
    assert regularity_index(z) == ri


def _collinear_doubles():
    pts = [ProjPoint((0, 0, 1)), ProjPoint((1, 1, 1)), ProjPoint((2, 2, 1)),
           ProjPoint((0, 1, 1))]
    return FatPointScheme.from_points(pts, [2, 2, 2, 1])


def test_regularity_floor_counts_line_weight():
    # three collinear double points: the line carries weight 6, so ri >= 5
    z = _collinear_doubles()
    assert regularity_floor(z) == 5
    assert regularity_index(z) == _scan_regularity(z) == 5


def test_regularity_index_above_the_floor():
    # Large generic schemes whose floor lies below ri: the walk ranks
    # every degree from the floor up to ri.
    rng = random.Random(5)
    for _ in range(3):
        pts = []
        while len(pts) < 14:
            p = random_point(rng, 30)
            if p not in pts:
                pts.append(p)
        z = FatPointScheme.from_points(pts, [rng.randint(2, 3) for _ in pts])
        assert z.degree() > 36
        ri = regularity_index(z)
        assert regularity_floor(z) < ri == _scan_regularity(z)


def _count_ranks(monkeypatch):
    """Record the ``upper`` of every ``linalg.rank`` call from here on."""
    uppers = []
    real_rank = linalg.rank

    def counted(rows, upper=None):
        uppers.append(upper)
        return real_rank(rows, upper=upper)

    monkeypatch.setattr(linalg, "rank", counted)
    return uppers


@pytest.mark.parametrize("dvec, m", LADDER)
def test_regularity_index_on_ladder_shapes(dvec, m, monkeypatch):
    z = fatten(generate_generic(KType(dvec), seed=0, bound=50), m)
    ranked = _count_ranks(monkeypatch)
    monkeypatch.setattr(linalg, "_span_certificate", _refuse)
    monkeypatch.setattr(linalg, "bareiss_rank", _refuse)
    assert regularity_floor(z) == regularity_index(z) == m * dvec[-1] - 1
    assert ranked == []  # the floor is settled by f_v = F_v, no matrix ranked


@pytest.mark.parametrize("dvec, m", LADDER)
def test_greedy_vector_recomputes_on_ladder_shapes(dvec, m):
    # f_v = F_v settles every value of these schemes that verify asks for,
    # so the greedy vector is the whole proof there: recompute it along its
    # residual chain, and check that it is complete.
    z = fatten(generate_generic(KType(dvec), seed=0, bound=50), m)
    v = z.greedy_reduction
    assert reduction_vector(z, v.lines) == v
    assert sum(v.values) == z.degree()


def _refuse(*args, **kwargs):
    raise AssertionError("the walk must not need a certificate or Bareiss here")


def test_loose_value_ranks_one_pinned_matrix(monkeypatch):
    # f_v(6) = 27 < F_v(6) = 28 here: the bounds leave the value open, so it
    # is the rank of the conditions matrix, pinned once against F_v(6).
    z, t = fatten(config_1345(), 2), 6
    v = z.greedy_reduction
    f, F = v.sandwich(t)
    assert f < F
    ranked = _count_ranks(monkeypatch)
    h = hilbert_value(z, t)
    assert ranked == [F]
    assert h == linalg.bareiss_rank(conditions_matrix(z, t))


def test_sandwich_agrees_with_the_pinned_rank(monkeypatch):
    # Every value of two small families, and t* - 1 and t* of every ladder
    # rung, against the rank of its conditions matrix (300-bit entries)
    # pinned at F_v, whose lower bound is a mod-p elimination, not f_v.
    cases = []
    real_value = hilbert.hilbert_value

    def spy(z, t):
        cases.append((z, t))
        return real_value(z, t)

    with monkeypatch.context() as patch:
        patch.setattr(hilbert, "hilbert_value", spy)
        for s, m in ((3, 4), (4, 5)):
            hilbert_family(s, m, seed=0, bound=20)
    cases += [(z, t) for _, z, t in ladder_degrees()]
    settled = 0
    for z, t in cases:
        v = z.greedy_reduction
        f, F = v.sandwich(t)
        settled += f == F
        pinned = linalg.rank(conditions_matrix(z, t), upper=F)
        assert hilbert_value(z, t) == pinned
    assert 0 < settled < len(cases)  # both routes are compared
