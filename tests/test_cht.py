import random
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from corpus import (
    config_123_exact,
    config_123_one,
    config_123_star,
    config_1234,
    config_1345,
    full_corpus,
    trichotomy_corpus,
)
from fatpoints import hilbert
from fatpoints.cht import (
    AUGMENTED,
    REPEAT_DESCENDING,
    STAR,
    F_upper,
    bound_check,
    peeling_sequence,
)
from fatpoints.geom import ProjLine, ProjPoint, incident, line_through
from fatpoints.hilbert import conditions_matrix, hilbert_value, regularity_index
from fatpoints.kconfig import fatten, generate_with_line_count
from fatpoints.linalg import bareiss_rank
from fatpoints.scheme import FatPointScheme, ReductionVector, reduction_vector
from lemmas import Case, TypeMismatch, classify_case, random_point


def _vec(values):
    return ReductionVector(tuple(values), (), complete=True)


def test_f_lower_walkthrough():
    assert _vec([10, 9, 8, 3, 3, 3, 2, 1]).sandwich(8)[0] == 36


def test_f_lower_four_line_tables():
    assert _vec([8, 7, 6, 5, 1, 1, 1, 1]).sandwich(6)[0] == 25
    assert _vec([8, 7, 6, 5, 2, 1, 1]).sandwich(6)[0] == 26


def test_F_upper_walkthrough():
    assert F_upper(_vec([10, 9, 8, 3, 3, 3, 2, 1]), 8) == 36


def test_F_upper_four_line_tables():
    assert F_upper(_vec([8, 7, 6, 5, 1, 1, 1, 1]), 6) == 26
    assert F_upper(_vec([8, 7, 6, 5, 2, 1, 1]), 6) == 26


def test_F_upper_single_point():
    assert F_upper(_vec([1]), 0) == 1


def test_incomplete_reduction_rejected():
    v = ReductionVector((3,), (), complete=False)
    with pytest.raises(ValueError, match="upper bound requires a complete reduction"):
        F_upper(v, 2)


def test_bound_check_walkthrough():
    x = config_1345()
    z = fatten(x, 2)
    rep = bound_check(z, peeling_sequence(x, 2, REPEAT_DESCENDING), 8)
    assert (rep.f_lower, rep.F_upper, rep.exact, rep.tight) == (36, 36, 36, True)


def test_bound_check_gap_then_closed():
    x = config_1234()
    z = fatten(x, 2)
    loose = bound_check(z, peeling_sequence(x, 2, REPEAT_DESCENDING), 6)
    assert (loose.f_lower, loose.F_upper, loose.exact, loose.tight) == (25, 26, 26, False)
    tight = bound_check(z, peeling_sequence(x, 2, AUGMENTED), 6)
    assert (tight.f_lower, tight.F_upper, tight.exact, tight.tight) == (26, 26, 26, True)


def test_bound_check_empty():
    rep = bound_check(FatPointScheme.from_points([], []), [], 3)
    assert (rep.f_lower, rep.F_upper, rep.exact, rep.tight) == (0, 0, 0, True)


def test_bound_check_incomplete_lines():
    x = config_1345()
    z = fatten(x, 2)
    with pytest.raises(ValueError, match="the supplied line sequence does not reduce"):
        bound_check(z, list(reversed(x.lines)), 8)


def test_bound_check_refuses_a_value_outside_the_sandwich(monkeypatch):
    # f <= H <= F is proven, so a value outside it is a bug in the package:
    # an AssertionError, which no caller takes for bad input
    x = config_1234()
    z = fatten(x, 2)
    lines = peeling_sequence(x, 2, REPEAT_DESCENDING)
    for value in (24, 27):  # f = 25 and F = 26 at t = 6
        monkeypatch.setattr(hilbert, "hilbert_value", lambda z, t, value=value: value)
        with pytest.raises(AssertionError, match=(
                f"^f=25, H={value}, F=26 at t=6: bound machinery is broken$")):
            bound_check(z, lines, 6)


def test_peeling_repeat_descending():
    x = config_1345()
    seq = peeling_sequence(x, 2, REPEAT_DESCENDING)
    assert seq == list(reversed(x.lines)) * 2
    assert peeling_sequence(x, 1, REPEAT_DESCENDING) == list(reversed(x.lines))


def test_peeling_augmented_structure():
    x = config_1234()
    seq = peeling_sequence(x, 2, AUGMENTED)
    assert seq[:4] == list(reversed(x.lines))
    assert seq[4] == ProjLine((0, 2, -9))  # the join of the two private points
    assert len(seq) == 7
    # the two trailing lines hit exactly one configuration point each
    pts = x.points()
    for extra in seq[5:]:
        assert sum(1 for p in pts if incident(p, extra)) == 1


def test_peeling_star_completes():
    x = config_123_star()
    for m in (2, 3, 5):
        seq = peeling_sequence(x, m, STAR)
        v = reduction_vector(fatten(x, m), seq)
        assert v.complete


def test_peeling_strategy_errors():
    x = config_1345()
    with pytest.raises(ValueError, match=r"star peeling needs type \(1, \.\.\., s\)"):
        peeling_sequence(x, 2, STAR)
    x4 = config_1234()
    with pytest.raises(ValueError, match="the augmented peeling needs m >= 2"):
        peeling_sequence(x4, 1, AUGMENTED)


def _configurations(s):
    """The hand-built corpora for s = None; otherwise the type (1, ..., s)
    configurations with every feasible count r of s-point lines, seeds 0-2."""
    if s is None:
        return [x for x, _ in trichotomy_corpus()] + [x for x, _, _ in full_corpus()]
    return [generate_with_line_count(s, r, seed, 20)
            for r in range(1 if s > 2 else 3, s + 2) for seed in range(3)]


@pytest.mark.parametrize("s", [None, 2, 3, 4, 5, 6])
def test_star_and_augmented_peels_match_the_trichotomy_oracle(s):
    # The peels read the full lines and private points off count_lines; the
    # oracle classify_case takes them with its lemma checks.  Where the
    # oracle rules a strategy out, the peel refuses it.
    for x in _configurations(s):
        try:
            tri = classify_case(x)
        except TypeMismatch:
            tri = None
        if tri is not None and tri.case == Case.EXACT:
            # the private point of each full line is unique
            for l in tri.full_lines:
                on = [p for p in x.points() if incident(p, l)]
                assert sum(not any(incident(p, o) for o in tri.full_lines if o != l)
                           for p in on) == 1
        for m in range(1, 6):
            if tri is None or tri.case != Case.MANY:
                with pytest.raises(ValueError, match="star peeling needs"):
                    peeling_sequence(x, m, STAR)
            else:
                expected = sorted(tri.full_lines, reverse=True) * -(-m // 2)
                assert peeling_sequence(x, m, STAR) == expected
            if (tri is None or tri.case != Case.EXACT or m < 2
                    or set(tri.full_lines) != set(x.lines)):
                with pytest.raises(ValueError, match="augmented peeling needs"):
                    peeling_sequence(x, m, AUGMENTED)
                continue
            h = line_through(tri.privates[x.lines[0]], tri.privates[x.lines[1]])
            off = sorted(p for p in tri.privates.values() if not incident(p, h))
            seq = peeling_sequence(x, m, AUGMENTED)
            head = list(reversed(x.lines)) * (m - 1) + [h]
            assert seq[: len(head)] == head and len(seq) == len(head) + len(off)
            # one line per private point off h, in order, through no other point
            for q, extra in zip(off, seq[len(head):]):
                assert [p for p in x.points() if incident(p, extra)] == [q]


def test_augmented_tail_is_seedless_and_private():
    # Every configuration with exactly s full lines that generate_with_line_count
    # makes for s = 3..7, seeds 0-5 and bounds 20 and 50 takes the augmented
    # peel at m = 2..6.  The tail has one line per private point off h, each
    # through that point alone, so it removes 1 and leaves the chain empty.
    cases = 0
    for s in range(3, 8):
        for seed in range(6):
            for bound in (20, 50):
                x = generate_with_line_count(s, s, seed, bound)
                privates = classify_case(x).privates
                h = line_through(privates[x.lines[0]], privates[x.lines[1]])
                off = sorted(p for p in privates.values() if not incident(p, h))
                for m in range(2, 7):
                    seq = peeling_sequence(x, m, AUGMENTED)
                    assert peeling_sequence(x, m, AUGMENTED) == seq
                    head = list(reversed(x.lines)) * (m - 1) + [h]
                    assert seq[: len(head)] == head and len(seq) == len(head) + len(off)
                    for q, extra in zip(off, seq[len(head):]):
                        assert [p for p in x.points() if incident(p, extra)] == [q]
                    v = reduction_vector(fatten(x, m), seq)
                    assert v.complete and v.values[len(head):] == (1,) * len(off)
                    cases += 1
    assert cases == 300


def test_f_le_F_everywhere():
    rng = random.Random(13)
    for _ in range(25):
        vals = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 8)))
        v = _vec(vals)
        for t in range(0, 14):
            assert v.sandwich(t)[0] <= F_upper(v, t)


def _cht_oracle(values, t):
    """f_v(t) and F_v(t) as the CHT formulas read, with C(n, 2) = 0 for
    n < 2: the sum over every entry and the minimum over every split."""
    def c2(n):
        return comb(max(n, 0), 2)

    f = sum(max(0, min(t - i + 1, v)) for i, v in enumerate(values))
    F = min(c2(t + 2) - c2(t - i + 2) + sum(values[i:]) for i in range(len(values) + 1))
    return f, F


@settings(max_examples=300)
@given(st.lists(st.integers(0, 40), max_size=14).map(tuple), st.integers(-4, 60))
@example((), 0)
@example((), 7)
@example((), -1)
@example((0, 0, 0), 2)
@example((1, 5, 0, 7, 2), 3)
@example(tuple(range(1000, 0, -1)), 5)
@example(tuple(range(1000, 0, -1)), 999)
@example(tuple(range(1000, 0, -1)), 1500)
def test_sandwich_matches_the_cht_formulas(values, t):
    # Zeros, non-monotone vectors, t < 0 and t past the last entry.
    v = _vec(values)
    assert v.sandwich(t) == _cht_oracle(values, t)
    assert F_upper(v, t) == v.sandwich(t)[1]
    if t < 0:
        assert v.sandwich(t) == (0, 0)


def test_f_saturates_to_degree():
    v = _vec([10, 9, 8, 3, 3, 3, 2, 1])
    t = len(v.values) - 1 + max(v.values)
    assert v.sandwich(t)[0] == sum(v.values)
    assert v.sandwich(t + 3)[0] == sum(v.values)


def _random_scheme(rng, max_pts=6, max_mult=3):
    pts = []
    while len(pts) < rng.randint(1, max_pts):
        p = random_point(rng, 9)
        if p not in pts:
            pts.append(p)
    return FatPointScheme.from_points(pts, [rng.randint(1, max_mult) for _ in pts])


def _random_complete_peeling(rng, z):
    lines = []
    cur = z
    while cur:
        target = rng.choice(cur.support())
        other = random_point(rng, 9)
        if other == target:
            continue
        lines.append(line_through(target, other))
        cur = cur.residual(lines[-1])
    return lines


def test_sandwich_randomized_mini():
    # H from Bareiss, up to the first t with H = deg: hilbert_value and
    # regularity_index settle values by CHT bounds, which this checks.
    rng = random.Random(404)
    for _ in range(25):
        z = _random_scheme(rng)
        lines = _random_complete_peeling(rng, z)
        v = reduction_vector(z, lines)
        assert v.complete
        t, h = 0, 0
        while h < z.degree():
            h = bareiss_rank(conditions_matrix(z, t))
            assert v.sandwich(t)[0] <= h <= F_upper(v, t)
            t += 1


@pytest.mark.parametrize(
    "make",
    [config_123_star, config_123_exact, config_123_one, config_1234, config_1345],
)
def test_hilbert_upper_is_the_least_complete_bound(make):
    # The bound every Hilbert value is pinned against, F_v of the scheme's
    # greedy reduction vector, is a bound on H and no looser than the F_v of
    # any peeling strategy that applies and completes.
    x = make()
    for m in range(1, 5):
        z = fatten(x, m)
        greedy = z.greedy_reduction
        assert reduction_vector(z, greedy.lines) == greedy
        vectors = []
        for strategy in (REPEAT_DESCENDING, STAR, AUGMENTED):
            try:
                v = reduction_vector(z, peeling_sequence(x, m, strategy))
            except ValueError as exc:
                if "peeling needs" not in str(exc):
                    raise
                continue
            if v.complete:
                vectors.append(v)
        assert vectors
        for t in range(0, m * x.ktype.ds + 2):
            upper = F_upper(greedy, t)
            assert hilbert_value(z, t) <= upper
            assert all(upper <= F_upper(v, t) for v in vectors)


@st.composite
def _schemes(draw):
    """1-7 points with coordinates in [-9, 9] and multiplicities 1-4;
    sometimes three or more of them on the line through the first two,
    as small combinations of those two."""
    coord = st.integers(-9, 9)
    n = draw(st.integers(2, 7))
    triples = [draw(st.tuples(coord, coord, coord)) for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        u, v = triples[0], triples[1]
        for i in range(2, draw(st.integers(3, n))):
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            triples[i] = tuple(a * x + b * y for x, y in zip(u, v))
    points = sorted({ProjPoint(c) for c in triples if any(c)})
    assume(len(points) >= 1)
    return FatPointScheme.from_points(points, [draw(st.integers(1, 4)) for _ in points])


@settings(max_examples=40, deadline=None)
@given(_schemes())
def test_greedy_sandwich_against_bareiss(z):
    # f_v <= H <= F_v for the greedy vector, with H from Bareiss, at every
    # degree up to the regularity index; hilbert_value, which pins against
    # that F_v, gives the same exact value.
    v = z.greedy_reduction
    deg = z.degree()
    t = 0
    while True:
        h = bareiss_rank(conditions_matrix(z, t))
        assert v.sandwich(t)[0] <= h <= F_upper(v, t)
        assert hilbert_value(z, t) == h
        if h == deg:
            break
        t += 1
    assert regularity_index(z) == t
