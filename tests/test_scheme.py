import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from corpus import config_1234, config_1345, full_corpus, scheme_to_json
from fatpoints.cht import REPEAT_DESCENDING, peeling_sequence
from fatpoints.geom import ProjLine, ProjPoint, line_through, random_line
from fatpoints.kconfig import fatten
from fatpoints.scheme import (
    FatPointScheme,
    ReductionVector,
    lines_from_json,
    reduction_vector,
    residual_chain,
    scheme_from_json,
)
from lemmas import line_degree, multiplicity, random_point


def test_from_points_walkthrough_degree():
    z = fatten(config_1345(), 2)
    assert len(z) == 13
    assert z.degree() == 39


def test_from_points_single_and_empty():
    p = ProjPoint((1, 2, 3))
    for m in range(1, 7):
        assert FatPointScheme.from_points([p], [m]).degree() == m * (m + 1) // 2
    assert FatPointScheme.from_points([], []).degree() == 0
    assert not FatPointScheme.from_points([], [])


def test_from_points_errors():
    p = ProjPoint((1, 0, 0))
    with pytest.raises(ValueError, match=r"point ProjPoint\(\(1:0:0\)\) listed twice"):
        FatPointScheme.from_points([p, ProjPoint((2, 0, 0))], [1, 1])
    with pytest.raises(ValueError, match=r"multiplicity 0 for ProjPoint\(\(1:0:0\)\)"):
        FatPointScheme.from_points([p], [0])


def test_from_points_refuses_bool_multiplicity():
    # True is an int to isinstance, but JSON would write it as true, which
    # scheme_from_json refuses
    p, q = ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0))
    with pytest.raises(ValueError, match=r"multiplicity True for ProjPoint\(\(1:0:0\)\)"):
        FatPointScheme.from_points([p, q], [True, 2])


def test_line_degree_walkthrough():
    x = config_1345()
    z = fatten(x, 2)
    l4 = x.lines[3]  # five double points
    assert line_degree(z, l4) == 10
    z1 = z.residual(l4)
    l3 = x.lines[2]  # four doubles and one reduced point
    assert line_degree(z1, l3) == 9
    faraway = ProjLine((1, 1, 1))
    assert line_degree(z, faraway) == 0


def test_residual_drops_and_removes():
    p, q = ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0))
    l = ProjLine((0, 0, 1))  # through both
    z = FatPointScheme.from_points([p, q], [2, 1])
    z1 = z.residual(l)
    assert multiplicity(z1, p) == 1
    assert multiplicity(z1, q) == 0
    assert not z1.residual(l)


def test_residual_chain_multiplicity_panels():
    """After removing the two largest lines, the five-point line's points
    drop to multiplicity one except the shared corner, which is gone."""
    x = config_1345()
    z = fatten(x, 2)
    chain = residual_chain(z, [x.lines[3], x.lines[2]])
    z2 = chain[2]
    corner = ProjPoint((8, 0, 1))  # on both removed lines
    assert multiplicity(z2, corner) == 0
    for pt in x.subsets[3]:
        if pt != corner:
            assert multiplicity(z2, pt) == 1
    for pt in x.subsets[2]:
        if pt != corner:
            assert multiplicity(z2, pt) == 1
    for pt in x.subsets[1]:
        assert multiplicity(z2, pt) == 2
    assert multiplicity(z2, x.subsets[0][0]) == 2


def test_reduction_vector_walkthrough():
    x = config_1345()
    z = fatten(x, 2)
    v = reduction_vector(z, peeling_sequence(x, 2, REPEAT_DESCENDING))
    assert v.values == (10, 9, 8, 3, 3, 3, 2, 1)
    assert v.complete
    assert sum(v.values) == z.degree()


def test_reduction_vector_four_line_shape():
    x = config_1234()
    z = fatten(x, 2)
    v = reduction_vector(z, peeling_sequence(x, 2, REPEAT_DESCENDING))
    assert v.values == (8, 7, 6, 5, 1, 1, 1, 1)
    assert v.complete


def test_reduction_vector_augmented_shape():
    from fatpoints.cht import AUGMENTED

    x = config_1234()
    z = fatten(x, 2)
    v = reduction_vector(z, peeling_sequence(x, 2, AUGMENTED))
    assert v.values == (8, 7, 6, 5, 2, 1, 1)
    assert v.complete


def _line_on(p):
    """A line through the point p."""
    a, b, _ = p
    return ProjLine((b, -a, 0) if a or b else (1, 0, 0))


@st.composite
def _scheme_and_lines(draw):
    """A scheme of 0-6 points (coordinates in [-5, 5], multiplicities 1-4)
    and a line sequence mixing lines through two support points, lines
    through one, and arbitrary lines that may miss every point, with
    repeats.  Sometimes a run of lines in the middle empties the scheme, so
    the lines after it meet an empty scheme."""
    coord = st.integers(-5, 5)
    triple = st.tuples(coord, coord, coord).filter(any)
    points = sorted({ProjPoint(c) for c in draw(st.lists(triple, max_size=6))})
    mults = draw(st.lists(st.integers(1, 4), min_size=len(points), max_size=len(points)))
    z = FatPointScheme.from_points(points, mults)
    choices = [triple.map(ProjLine)]
    if points:
        choices.append(st.sampled_from(points).map(_line_on))
    if len(points) >= 2:
        pairs = list(combinations(points, 2))
        choices.append(st.sampled_from(pairs).map(lambda pq: line_through(*pq)))
    some_lines = st.lists(st.one_of(choices), max_size=8)
    lines = draw(some_lines)
    if lines:
        lines.append(draw(st.sampled_from(lines)))  # a repeated line
    if draw(st.booleans()):
        lines += [_line_on(p) for p, m in z for _ in range(m)]
    lines += draw(some_lines)
    return z, lines


@settings(max_examples=200)
@given(_scheme_and_lines())
def test_reduction_vector_matches_the_explicit_walk(case):
    # Entry i is deg(L_i meet Z_{i-1}), the line degree in the current
    # residual, and the reduction is complete when the last residual is empty.
    z, lines = case
    values, cur = [], z
    for l in lines:
        values.append(line_degree(cur, l))
        cur = cur.residual(l)
    expected = ReductionVector(tuple(values), tuple(lines), not cur)
    assert reduction_vector(z, lines) == expected


def test_degree_examples():
    assert fatten(config_1345(), 2).degree() == 39
    assert FatPointScheme.from_points([], []).degree() == 0
    assert FatPointScheme.from_points([ProjPoint((1, 1, 1))], [5]).degree() == 15


def test_completeness_iff_total_degree():
    rng = random.Random(99)
    for _ in range(40):
        pts = []
        while len(pts) < rng.randint(1, 6):
            p = random_point(rng, 9)
            if p not in pts:
                pts.append(p)
        mults = [rng.randint(1, 3) for _ in pts]
        z = FatPointScheme.from_points(pts, mults)
        # peel lines through remaining points until empty
        lines = []
        cur = z
        while cur:
            target = cur.support()[0]
            other = random_point(rng, 9)
            if other == target:
                continue
            from fatpoints.geom import line_through

            l = line_through(target, other)
            lines.append(l)
            cur = cur.residual(l)
        v = reduction_vector(z, lines)
        assert v.complete and sum(v.values) == z.degree()
        if lines:
            partial = reduction_vector(z, lines[:-1])
            assert not partial.complete
            assert sum(partial.values) < z.degree()


def test_residual_degree_drop_is_line_degree():
    # dropping m to m-1 removes C(m+1,2) - C(m,2) = m from the degree,
    # so the total drop is exactly the line degree
    rng = random.Random(5)
    for _ in range(30):
        pts = []
        while len(pts) < 5:
            p = random_point(rng, 9)
            if p not in pts:
                pts.append(p)
        z = FatPointScheme.from_points(pts, [rng.randint(1, 3) for _ in pts])
        l = random_line(rng, 9)
        assert z.residual(l).degree() == z.degree() - line_degree(z, l)


def test_residual_never_increases_multiplicity():
    rng = random.Random(6)
    for _ in range(20):
        pts = []
        while len(pts) < 4:
            p = random_point(rng, 9)
            if p not in pts:
                pts.append(p)
        z = FatPointScheme.from_points(pts, [rng.randint(1, 3) for _ in pts])
        z1 = z.residual(random_line(rng, 9))
        for p in z.support():
            assert multiplicity(z1, p) <= multiplicity(z, p)


def test_scheme_json_round_trip():
    x = config_1345()
    z = fatten(x, 2)
    data = scheme_to_json(z)
    assert scheme_from_json(data) == z
    lines = lines_from_json([["0", "1", "0"], [1, -1, 0]])
    assert lines == [ProjLine((0, 1, 0)), ProjLine((1, -1, 0))]


def test_greedy_reduction_is_none_only_when_empty():
    assert FatPointScheme.from_points([], []).greedy_reduction is None
    for point, values in (((1, 2, 3), (4, 3, 2, 1)), ((0, 0, 1), (2, 1))):
        z = FatPointScheme.from_points([ProjPoint(point)], [values[0]])
        v = z.greedy_reduction
        assert v.values == values and v.complete
        assert reduction_vector(z, v.lines) == v


def _sorted_peel(z):
    """Greedy peeling written out: at each step the heaviest line through
    two original support points, the first among equals once the lines are
    sorted by their coefficients explicitly."""
    pts = z.support()
    candidates = sorted(
        {line_through(p, q) for p, q in combinations(pts, 2)}, key=tuple
    )
    values, lines, cur = [], [], z
    while cur:
        line = max(candidates, key=lambda l: line_degree(cur, l))  # the first maximum
        values.append(line_degree(cur, line))
        lines.append(line)
        cur = cur.residual(line)
    return tuple(values), tuple(lines)


def test_greedy_reduction_takes_the_heaviest_line_first():
    # Every corpus scheme, its residual by each defining line and each
    # scheme of its greedy residual chain, against the written-out peel.
    rng = random.Random(9)
    checked = 0
    for x, _, _ in full_corpus():
        for m in (1, 2, 3):
            z = fatten(x, m)
            schemes = [z, *(z.residual(l) for l in x.lines)]
            schemes += residual_chain(z, z.greedy_reduction.lines)[1:]
            for w in schemes:
                if len(w) < 2:  # a single point peels along its own line
                    continue
                v = w.greedy_reduction
                assert v.complete and reduction_vector(w, v.lines) == v
                assert (v.values, v.lines) == _sorted_peel(w)
                checked += 1
    assert checked > 150
    for _ in range(20):
        pts = []
        while len(pts) < rng.randint(2, 6):
            p = random_point(rng, 9)
            if p not in pts:
                pts.append(p)
        z = FatPointScheme.from_points(pts, [rng.randint(1, 4) for _ in pts])
        v = z.greedy_reduction
        assert v.complete and sum(v.values) == z.degree()
        assert reduction_vector(z, v.lines) == v
        assert (v.values, v.lines) == _sorted_peel(z)
