from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fatpoints.geom import (
    PairLines,
    ProjLine,
    ProjPoint,
    canonical_triple,
    incident,
    line_through,
    lines_through_pairs,
    meet,
)
from fatpoints.kconfig import KType


def test_canonicalize_gcd():
    assert canonical_triple((2, 4, 6)) == (1, 2, 3)


def test_canonicalize_sign():
    assert canonical_triple((0, -3, 0)) == (0, 1, 0)


def test_canonicalize_identity():
    assert canonical_triple((1, 0, 0)) == (1, 0, 0)


def test_zero_triple_rejected():
    with pytest.raises(ValueError, match=r"must not be \(0, 0, 0\)"):
        canonical_triple((0, 0, 0))
    with pytest.raises(ValueError, match=r"must not be \(0, 0, 0\)"):
        ProjPoint((0, 0, 0))


@pytest.mark.parametrize(
    "make",
    [lambda: ProjPoint((0.5, 1, 1)), lambda: ProjPoint((1.9, 2, 3)),
     lambda: ProjLine(("7", 1, 1)), lambda: KType((1.5, 3))],
    ids=["half", "truncated", "string", "type"],
)
def test_value_types_take_exact_integers_only(make):
    with pytest.raises(TypeError):
        make()
    assert ProjPoint((np.int64(2), 4, 6)) == (1, 2, 3)
    assert KType((np.int64(1), 3)) == (1, 3)


def test_line_through_axes():
    assert line_through(ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0))) == ProjLine((0, 0, 1))
    assert line_through(ProjPoint((1, 0, 0)), ProjPoint((0, 0, 1))) == ProjLine((0, 1, 0))


def test_line_through_cross_product():
    l = line_through(ProjPoint((1, 1, 1)), ProjPoint((1, 2, 3)))
    assert l == ProjLine((1, -2, 1))
    assert incident(ProjPoint((1, 1, 1)), l)
    assert incident(ProjPoint((1, 2, 3)), l)


def test_line_through_coincident():
    with pytest.raises(ValueError, match=r"no unique line through ProjPoint\(\(1:2:3\)\) twice"):
        line_through(ProjPoint((1, 2, 3)), ProjPoint((2, 4, 6)))


def test_meet_axes():
    assert meet(ProjLine((0, 0, 1)), ProjLine((0, 1, 0))) == ProjPoint((1, 0, 0))


def test_meet_duality():
    p, q, r = ProjPoint((1, 1, 1)), ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0))
    assert meet(line_through(p, q), line_through(p, r)) == p


def test_meet_cross_product():
    assert meet(ProjLine((1, -2, 1)), ProjLine((0, 0, 1))) == ProjPoint((2, 1, 0))


def test_meet_coincident():
    with pytest.raises(ValueError, match=r"no unique meet of ProjLine\(\(1:0:0\)\) with itself"):
        meet(ProjLine((1, 0, 0)), ProjLine((-2, 0, 0)))


def test_incident_basic():
    assert incident(ProjPoint((1, 0, 0)), ProjLine((0, 1, 0)))
    assert not incident(ProjPoint((1, 1, 1)), ProjLine((1, 0, 0)))


def test_lines_through_pairs():
    # Three points on x1 = x0 and one point off it: the heavy line carries
    # all three indices, and each of the other three lines two.
    pts = [ProjPoint((0, 0, 1)), ProjPoint((1, 1, 1)), ProjPoint((2, 2, 1)),
           ProjPoint((0, 1, 1))]
    inc = lines_through_pairs(pts)
    assert inc.members[inc.lines.index((1, -1, 0))] == [0, 1, 2]
    assert sorted(len(idx) for idx in inc.members) == [2, 2, 2, 3]
    for key, idx in zip(inc.lines, inc.members):
        assert idx == [i for i, p in enumerate(pts) if incident(p, ProjLine(key))]
    assert inc.through == [
        [k for k, idx in enumerate(inc.members) if i in idx] for i in range(4)
    ]
    assert lines_through_pairs(pts[:1]) == PairLines([], [], [[]])


nonzero_triples = st.tuples(
    st.integers(-80, 80), st.integers(-80, 80), st.integers(-80, 80)
).filter(lambda t: t != (0, 0, 0))


@given(nonzero_triples, st.integers(-20, 20).filter(lambda k: k != 0))
def test_canonicalize_scale_invariant(triple, k):
    scaled = tuple(k * v for v in triple)
    assert canonical_triple(scaled) == canonical_triple(triple)


@given(nonzero_triples)
def test_canonicalize_idempotent(triple):
    once = canonical_triple(triple)
    assert canonical_triple(once) == once


@given(nonzero_triples, nonzero_triples)
def test_join_incidence(a, b):
    p, q = ProjPoint(a), ProjPoint(b)
    if p == q:
        return
    l = line_through(p, q)
    assert incident(p, l) and incident(q, l)


@given(nonzero_triples, nonzero_triples)
def test_join_meet_inverse(a, b):
    l1, l2 = ProjLine(a), ProjLine(b)
    if l1 == l2:
        return
    p = meet(l1, l2)
    assert incident(p, l1) and incident(p, l2)


# --- the pair-line kernel against a naive oracle ----------------------------

def _pair_lines_oracle(points):
    """One line_through per pair, then the index sets: what the kernel
    computes, without its integer shortcuts."""
    on = {}
    for i, j in combinations(range(len(points)), 2):
        on.setdefault(line_through(points[i], points[j]), set()).update((i, j))
    return on


small = st.integers(-3, 3)
huge = st.integers(-(2**300), 2**300)


@st.composite
def point_sets(draw, coord):
    """Distinct points in a drawn order: free points plus runs planted on
    lines, each run u*b1 + v*b2 for a drawn pair b1, b2."""
    triples = draw(st.lists(st.tuples(coord, coord, coord), max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        b1 = draw(st.tuples(coord, coord, coord))
        b2 = draw(st.tuples(coord, coord, coord))
        for u, v in draw(st.lists(st.tuples(small, small), min_size=2, max_size=5)):
            triples.append(tuple(u * x + v * y for x, y in zip(b1, b2)))
    points = list(dict.fromkeys(ProjPoint(t) for t in triples if any(t)))
    return draw(st.permutations(points))


@settings(max_examples=150)
@given(st.one_of(point_sets(small), point_sets(huge)))
def test_lines_through_pairs_matches_oracle(points):
    inc = lines_through_pairs(points)
    expected = _pair_lines_oracle(points)
    # the oracle's lines, each as its canonical triple, in coefficient order
    assert inc.lines == sorted(expected)
    assert inc.members == [sorted(expected[ProjLine(key)]) for key in inc.lines]
    for l, idx in zip(inc.lines, inc.members):
        assert type(l) is ProjLine and l == ProjLine(l) and l == canonical_triple(l)
        assert idx == [i for i, p in enumerate(points) if incident(p, l)]
    # each point's lines: exactly those whose members hold it, in order
    assert len(inc.through) == len(points)
    for i, ks in enumerate(inc.through):
        assert ks == [k for k, idx in enumerate(inc.members) if i in idx]


@given(point_sets(st.one_of(small, huge)), st.data())
def test_lines_through_pairs_rejects_a_repeated_point(points, data):
    if not points:
        return
    p = data.draw(st.sampled_from(points))
    k = data.draw(st.integers(-5, 5).filter(bool))
    scaled = ProjPoint(tuple(k * v for v in p))
    where = data.draw(st.integers(0, len(points)))
    with pytest.raises(ValueError, match="no unique line through .* twice"):
        lines_through_pairs(points[:where] + [scaled] + points[where:])


wide_triples = st.tuples(
    st.one_of(small, huge), st.one_of(small, huge), st.one_of(small, huge)
)


@given(wide_triples, st.one_of(small, huge).filter(bool))
def test_canonical_triple_properties(triple, k):
    if not any(triple):
        with pytest.raises(ValueError, match=r"must not be \(0, 0, 0\)"):
            canonical_triple(triple)
        return
    once = canonical_triple(triple)
    assert canonical_triple(once) == once
    assert canonical_triple(tuple(k * v for v in triple)) == once
    assert next(v for v in once if v) > 0
    assert gcd(*once) == 1
    # a multiple of the input: every 2x2 minor of (triple, once) vanishes
    assert all(
        triple[i] * once[j] == triple[j] * once[i] for i, j in combinations(range(3), 2)
    )
