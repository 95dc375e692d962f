import random

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    config_123_exact,
    config_123_one,
    config_123_star,
    config_123_two,
    config_1234,
    config_1345,
    config_13456,
    config_13456_relabelled,
    full_corpus,
    trichotomy_corpus,
)
from fatpoints.geom import ProjLine, ProjPoint, incident, line_through
from fatpoints.hilbert import hilbert_table
from fatpoints.kconfig import (
    Case,
    GenerationFailed,
    InfeasibleLineCount,
    InvalidLineCount,
    KConfiguration,
    KType,
    TypeMismatch,
    candidate_lines,
    classify_case,
    count_lines,
    fatten,
    generate_generic,
    generate_with_line_count,
    kconfig_from_json,
    kconfig_to_json,
    line_count_consequence_holds,
    relabel_canonical,
    validate,
)


def test_ktype_validation():
    with pytest.raises(ValueError):
        KType((2, 2))
    with pytest.raises(ValueError):
        KType((0, 1))
    with pytest.raises(ValueError):
        KType(())
    assert KType((1, 3, 4, 5)).s == 4


def test_tail_length():
    assert KType((1, 2, 3)).tail_length() == 3
    assert KType((1, 3, 4, 5)).tail_length() == 3
    assert KType((2, 5)).tail_length() == 1
    assert KType((1, 3)).tail_length() == 1
    assert KType((1,)).tail_length() == 1


def test_validate_corpus_ok():
    for x, _, _ in full_corpus():
        assert validate(x) == []


def test_validate_condition_three_violation():
    x = config_123_one()
    # move the first subset's point onto the second line
    bad = KConfiguration(
        x.ktype,
        ((ProjPoint((1, 0, 0)),),) + x.subsets[1:],
        x.lines,
    )
    probs = validate(bad)
    assert any("line 2 passes through" in p for p in probs) or any(
        "off its line" in p for p in probs
    )


def test_validate_size_violation():
    x = config_123_one()
    bad = KConfiguration(
        x.ktype,
        (x.subsets[0], x.subsets[1] + (ProjPoint((2, 0, 1)),), x.subsets[2]),
        x.lines,
    )
    probs = validate(bad)
    assert any("type wants" in p for p in probs)


def test_generate_generic_counts():
    x = generate_generic(KType((1, 2, 3)), seed=7, bound=30)
    assert validate(x) == []
    count, _ = count_lines(x, 3)
    assert count == 1


def test_generate_generic_single_point():
    x = generate_generic(KType((1,)), seed=3)
    assert len(x.points()) == 1
    assert validate(x) == []


def test_generate_generic_24_stabilizes():
    x = generate_generic(KType((2, 4)), seed=5, bound=20)
    tab = hilbert_table(fatten(x, 1), 6)
    assert tab.values[-1] == 6
    assert tab.stabilized_at is not None


@pytest.mark.parametrize("dvec, bound", [((1,), 0), ((1, 2, 3, 4, 5), 1)])
def test_generate_generic_refuses_a_bound_too_small_for_one_line(dvec, bound):
    # A line holds at most ((2 * bound + 1)**2 - 1) / 2 sampled points:
    # 0 for bound 0 (where sampling would never end) and 4 for bound 1.
    with pytest.raises(GenerationFailed):
        generate_generic(KType(dvec), seed=0, bound=bound)


def test_generate_with_line_count_star():
    x = generate_with_line_count(3, 4, seed=1, bound=15)
    count, lines = count_lines(x, 3)
    assert count == 4
    tri = classify_case(x)
    assert tri.case == Case.MANY


def test_generate_with_line_count_exact_four():
    x = generate_with_line_count(4, 4, seed=1, bound=15)
    assert count_lines(x, 4)[0] == 4
    assert classify_case(x).case == Case.EXACT


def test_generate_with_line_count_one():
    x = generate_with_line_count(3, 1, seed=1, bound=15)
    assert count_lines(x, 3)[0] == 1
    assert classify_case(x).case == Case.FEW


def test_generate_with_line_count_all_feasible():
    for s in (2, 3, 4):
        for r in range(1, s + 2):
            if s == 2 and r < 3:
                with pytest.raises(InfeasibleLineCount):
                    generate_with_line_count(s, r, seed=2, bound=12)
                continue
            x = generate_with_line_count(s, r, seed=2, bound=12)
            assert validate(x) == []
            assert count_lines(x, s)[0] == r


@settings(max_examples=100, deadline=None)
@given(
    st.integers(3, 5).flatmap(lambda s: st.tuples(st.just(s), st.integers(1, s + 1))),
    st.integers(0, 10**6),
    st.sampled_from((12, 20)),
)
def test_generate_with_line_count_postconditions(sr, seed, bound):
    s, r = sr
    x = generate_with_line_count(s, r, seed=seed, bound=bound)
    assert validate(x) == []
    assert count_lines(x, s)[0] == r


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.integers(1, 7), min_size=1, max_size=4)
    .map(lambda d: tuple(sorted(d)))
    .filter(lambda d: d != (1,)),
    st.integers(0, 10**6),
    st.sampled_from((6, 50)),
)
def test_generate_generic_postconditions(dvec, seed, bound):
    # Only the last defining line carries d_s points, except in type (1, 2),
    # whose three points span three 2-point lines.
    x = generate_generic(KType(dvec), seed=seed, bound=bound)
    assert validate(x) == []
    if dvec != (1, 2):
        assert count_lines(x, dvec[-1])[0] == 1


def test_generate_with_line_count_range_errors():
    with pytest.raises(InvalidLineCount):
        generate_with_line_count(3, 0, seed=0)
    with pytest.raises(InvalidLineCount):
        generate_with_line_count(3, 5, seed=0)


def test_count_lines_corpus():
    for x, k, expected in full_corpus():
        count, lines = count_lines(x, k)
        assert count == expected
        for l in lines:
            assert sum(1 for p in x.points() if incident(p, l)) == k


def test_count_lines_walkthrough_identifies_lines():
    x = config_1345()
    count, lines = count_lines(x, 5)
    assert count == 3
    assert set(lines) == {x.lines[1], x.lines[2], x.lines[3]}


def test_candidate_lines_large_ds():
    x = config_1345()
    assert candidate_lines(x) == list(x.lines)


def test_candidate_lines_consecutive_type():
    x = config_123_one()
    cands = candidate_lines(x)
    assert len(cands) == 5  # three defining plus the two joins
    p = x.subsets[0][0]
    for q in x.subsets[1]:
        assert line_through(p, q) in cands


def test_candidate_lines_contains_all_maximal():
    for x, k, _ in full_corpus():
        if x.ktype.is_single_point():
            continue
        _, lines = count_lines(x, x.ktype.ds)
        cands = candidate_lines(x)
        assert set(lines) <= set(cands)


def test_candidate_lines_single_point_refused():
    x = generate_generic(KType((1,)), seed=0)
    with pytest.raises(TypeMismatch):
        candidate_lines(x)


def test_consequence_of_maximal_defining_lines():
    for x, _, _ in full_corpus():
        assert line_count_consequence_holds(x)


def test_incidence_cap():
    # no line ever meets a configuration in more than d_s points
    rng = random.Random(1)
    for x, _, _ in full_corpus():
        pts = x.points()
        seen = set()
        for p in pts:
            for q in pts:
                if p < q:
                    seen.add(line_through(p, q))
        for l in seen:
            assert sum(1 for p in pts if incident(p, l)) <= x.ktype.ds


def test_relabel_reproduces_expected():
    got = relabel_canonical(config_13456())
    assert got == config_13456_relabelled()


def test_relabel_noop_when_canonical():
    x = config_1345()
    assert relabel_canonical(x) == x


def test_relabel_preserves_points_and_validity():
    for seed in range(4):
        x = generate_with_line_count(4, 3, seed=seed, bound=12)
        y = relabel_canonical(x)
        assert validate(y) == []
        assert set(y.points()) == set(x.points())
        assert y.ktype == x.ktype
        # maximal defining lines trail
        ds = y.ktype.ds
        hits = [sum(1 for p in y.points() if incident(p, l)) for l in y.lines]
        tail = 0
        for h in reversed(hits):
            if h == ds:
                tail += 1
            else:
                break
        assert all(h < ds for h in hits[: len(hits) - tail])


def test_classify_trichotomy_corpus():
    expected = {4: Case.MANY, 3: Case.EXACT, 2: Case.FEW, 1: Case.FEW}
    for x, r in trichotomy_corpus():
        tri = classify_case(x)
        assert tri.case == expected[r]
        assert tri.r == r


def test_classify_exact_privates():
    tri = classify_case(config_1234())
    assert tri.case == Case.EXACT
    for l, p in tri.privates.items():
        assert incident(p, l)
        assert not any(incident(p, o) for o in tri.full_lines if o != l)


def test_classify_type_mismatch():
    with pytest.raises(TypeMismatch):
        classify_case(config_1345())


def test_fatten_degrees():
    assert fatten(config_123_one(), 2).degree() == 18
    assert fatten(config_1345(), 1).degree() == 13
    assert fatten(config_1345(), 2).degree() == 39


def test_json_round_trip():
    for x, _, _ in full_corpus():
        data = kconfig_to_json(x)
        assert kconfig_from_json(data) == x


def test_generators_deterministic():
    a = generate_with_line_count(3, 2, seed=9, bound=12)
    b = generate_with_line_count(3, 2, seed=9, bound=12)
    assert a == b
    c = generate_generic(KType((1, 3)), seed=4, bound=12)
    d = generate_generic(KType((1, 3)), seed=4, bound=12)
    assert c == d
