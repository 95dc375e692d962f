import hashlib
import json
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    config_123_one,
    config_1234,
    config_1345,
    config_13456,
    config_13456_relabelled,
    full_corpus,
    trichotomy_corpus,
)
from fatpoints import kconfig
from fatpoints.geom import ProjLine, ProjPoint, incident, line_basis, line_through
from fatpoints.geom import random_combination, random_line
from fatpoints.hilbert import hilbert_table
from fatpoints.kconfig import (
    GenerationFailed,
    InfeasibleLineCount,
    KConfiguration,
    KType,
    count_lines,
    fatten,
    generate_generic,
    generate_with_line_count,
    validate,
)
from fatpoints.scheme import FatPointScheme
from fatpoints.wire import kconfig_to_json
from lemmas import (
    Case,
    TypeMismatch,
    candidate_lines,
    classify_case,
    line_count_consequence_holds,
    relabel_canonical,
    star_configuration,
    tail_length,
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
    assert tail_length(KType((1, 2, 3))) == 3
    assert tail_length(KType((1, 3, 4, 5))) == 3
    assert tail_length(KType((2, 5))) == 1
    assert tail_length(KType((1, 3))) == 1
    assert tail_length(KType((1,))) == 1


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
    assert len(count_lines(x, 3)) == 1


def test_generate_generic_single_point():
    x = generate_generic(KType((1,)), seed=3, bound=50)
    assert len(x.points()) == 1
    assert validate(x) == []


def test_generate_generic_24_stabilizes():
    x = generate_generic(KType((2, 4)), seed=5, bound=20)
    tab = hilbert_table(fatten(x, 1), 6)
    assert tab.values[-1] == 6
    assert tab.stabilized_at is not None


@pytest.fixture
def draws(monkeypatch):
    """Every random line and point the generators draw, in order."""
    seen = []
    for name in ("random_line", "random_combination"):
        real = getattr(kconfig, name)

        def counted(*args, real=real):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(kconfig, name, counted)
    return seen


@pytest.mark.parametrize(
    "dvec, bound",
    [((1,), 0), ((1, 2, 3, 4, 5), 1), ((9,), 2), ((12,), 2), ((1, 9), 2), ((17,), 3)],
)
def test_generate_generic_refuses_a_bound_too_small_for_one_line(dvec, bound, draws):
    # A line holds at most as many sampled points as there are primitive
    # (u, v) up to sign: 0 for bound 0 (where sampling would never end),
    # then 4, 8 and 16 for bounds 1, 2 and 3.
    with pytest.raises(GenerationFailed, match=f"too small for {dvec[-1]} points"):
        generate_generic(KType(dvec), seed=0, bound=bound)
    assert draws == []


def test_generate_generic_fills_a_line_at_the_bound(draws):
    # bound 1 reaches exactly 4 points on a line, so d_s = 4 is feasible
    x = generate_generic(KType((4,)), seed=0, bound=1)
    assert validate(x) == [] and len(x.points()) == 4
    assert draws


# Bound 1 has (3**3 - 1) // 2 = 13 lines.  A type (1..s) configuration
# needs s of them, or s + 1 for the star (r = s + 1).
@pytest.mark.parametrize("s, r", [(12, 13), (13, 10)], ids=["star", "r-below-s"])
def test_generate_with_line_count_passes_the_line_guard_at_its_limit(s, r, monkeypatch):
    def no_lines(rng, count, bound):
        raise GenerationFailed("no lines drawn")

    # skip the search, which takes seconds to fail at this bound
    monkeypatch.setattr(kconfig, "_general_position_lines", no_lines)
    with pytest.raises(GenerationFailed, match=f"no type .* configuration with r={r} found"):
        generate_with_line_count(s, r, 0, bound=1)


@pytest.mark.parametrize("s, r", [(13, 14), (14, 11)], ids=["star", "r-below-s"])
def test_generate_with_line_count_refuses_one_line_too_many(s, r, draws):
    with pytest.raises(GenerationFailed, match="coordinate bound 1 has too few lines"):
        generate_with_line_count(s, r, 0, bound=1)
    assert draws == []


def test_generate_with_line_count_refuses_too_many_generic_points(draws):
    # For r <= s the last line needs s - r + 1 generic points; bound 1
    # reaches at most 4 on a line and bound 2 at most 8, so (s, r) = (5, 1)
    # at bound 1 and (9, 1) at bound 2 fail before a draw.
    for s, r, bound in [(5, 1, 1), (9, 1, 2)]:
        with pytest.raises(GenerationFailed, match=f"too small for {s - r + 1} generic"):
            generate_with_line_count(s, r, 0, bound=bound)
    assert draws == []
    generate_with_line_count(3, 1, 0, bound=12)
    assert draws  # the counter sees the draws of a feasible call


class _ScriptedRandom:
    """Stands in for ``Random``: ``randint`` returns the given values."""

    def __init__(self, values):
        self.values = iter(values)

    def randint(self, lo, hi):
        value = next(self.values)
        assert lo <= value <= hi
        return value


@pytest.mark.parametrize("bound", range(6))
def test_points_per_line_counts_the_distinct_sampled_points(bound):
    b1, b2 = line_basis(ProjLine((2, -3, 5)))
    reached = {
        random_combination(b1, b2, _ScriptedRandom((u, v)), bound)
        for u in range(-bound, bound + 1)
        for v in range(-bound, bound + 1)
        if u or v
    }
    assert kconfig._points_per_line(bound) == len(reached)
    assert len(reached) == [0, 4, 8, 16, 24, 40][bound]


@pytest.mark.parametrize("bound", range(5))
def test_line_guard_is_at_least_the_lines_a_bound_reaches(bound):
    # random_line keeps a nonzero triple of [-bound, bound]^3 as its line, a
    # primitive triple up to sign.  generate_with_line_count's guard counts
    # every nonzero triple up to sign, ((2b+1)^3 - 1) // 2, so it is an upper
    # bound on the lines: 13 of 13 at bound 1, but 49 of 62 at bound 2.
    span = range(-bound, bound + 1)
    reached = {random_line(_ScriptedRandom(t), bound) for t in product(span, repeat=3) if any(t)}
    assert len(reached) <= ((2 * bound + 1) ** 3 - 1) // 2
    assert len(reached) == [0, 13, 49, 145, 289][bound]


def test_points_per_line_asked_at_the_need_is_the_same_test():
    # The count never falls as the bound grows and is at least 2*bound + 2
    # for bound >= 1, so min(bound, need) decides as the full bound does.
    for b in range(1, 9):
        assert kconfig._points_per_line(b) >= 2 * b + 2
    for bound in range(9):
        for need in range(41):
            assert (need > kconfig._points_per_line(bound)) == (
                need > kconfig._points_per_line(min(bound, need))
            )


@pytest.mark.parametrize(
    "generate, need",
    [(lambda: generate_generic(KType((1, 2, 3)), 0, 50), 3)]
    + [(lambda r=r: generate_with_line_count(3, r, 0, 20), 4 - r) for r in range(1, 5)],
    ids=["generic (1,2,3) bound 50"] + [f"line count s=3 r={r} bound 20" for r in range(1, 5)],
)
def test_bound_guards_count_only_up_to_the_need(monkeypatch, generate, need):
    # The guards compare a need with the points per line: asking at a
    # larger bound scans O(bound²) pairs for the same answer.
    asked = []
    real = kconfig._points_per_line

    def spy(bound):
        asked.append(bound)
        return real(bound)

    monkeypatch.setattr(kconfig, "_points_per_line", spy)
    generate()
    assert asked and max(asked) <= need


def test_generate_with_line_count_star():
    x = generate_with_line_count(3, 4, seed=1, bound=15)
    assert len(count_lines(x, 3)) == 4
    tri = classify_case(x)
    assert tri.case == Case.MANY


@pytest.mark.parametrize("bound", [12, 20])
@pytest.mark.parametrize("s", range(2, 9))
def test_generate_with_line_count_star_matches_its_own_construction(s, bound):
    # r = s + 1 goes through the forced meets like every other r: its X_i
    # takes all i meets, so no generic point is drawn.
    for seed in range(6):
        x = generate_with_line_count(s, s + 1, seed=seed, bound=bound)
        assert kconfig_to_json(x) == kconfig_to_json(star_configuration(s, seed, bound))


def test_generate_with_line_count_exact_four():
    x = generate_with_line_count(4, 4, seed=1, bound=15)
    assert len(count_lines(x, 4)) == 4
    assert classify_case(x).case == Case.EXACT


def test_generate_with_line_count_one():
    x = generate_with_line_count(3, 1, seed=1, bound=15)
    assert len(count_lines(x, 3)) == 1
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
            assert len(count_lines(x, s)) == r


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
    assert len(count_lines(x, s)) == r


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
        assert len(count_lines(x, dvec[-1])) == 1
    # no accidental line: every line through three or more points is defining
    keys, members, _ = x.pair_lines
    defining = set(x.lines)
    assert all(key in defining for key, on in zip(keys, members) if len(on) >= 3)


def test_generate_with_line_count_range_errors():
    with pytest.raises(ValueError, match=r"r must be within 1 \.\. 4, got 0"):
        generate_with_line_count(3, 0, seed=0, bound=50)
    with pytest.raises(ValueError, match=r"r must be within 1 \.\. 4, got 5"):
        generate_with_line_count(3, 5, seed=0, bound=50)


def test_count_lines_corpus():
    for x, k, expected in full_corpus():
        lines = count_lines(x, k)
        assert len(lines) == expected
        for l in lines:
            assert sum(1 for p in x.points() if incident(p, l)) == k


@pytest.mark.parametrize("k", [1, 0, -1])
def test_count_lines_refuses_k_below_two(k):
    with pytest.raises(ValueError, match="at least 2"):
        count_lines(config_1345(), k)
    # fewer than two points keeps its own error
    with pytest.raises(ValueError, match="at least two points"):
        count_lines(generate_generic(KType((1,)), seed=0, bound=50), k)


def test_count_lines_walkthrough_identifies_lines():
    x = config_1345()
    lines = count_lines(x, 5)
    assert len(lines) == 3
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
        lines = count_lines(x, x.ktype.ds)
        cands = candidate_lines(x)
        assert set(lines) <= set(cands)


def test_candidate_lines_single_point_refused():
    x = generate_generic(KType((1,)), seed=0, bound=50)
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


def test_fatten_refuses_bool_multiplicity():
    # a report would carry "m": true
    with pytest.raises(ValueError):
        fatten(config_1345(), True)


def test_scheme_and_type_are_their_tuples():
    p, q = ProjPoint((1, 2, 3)), ProjPoint((0, 1, 5))
    z = FatPointScheme([(p, 2), (q, 1)])
    assert type(z) is FatPointScheme
    assert z == ((q, 1), (p, 2)) and hash(z) == hash(((q, 1), (p, 2)))
    x = config_1345()
    for m in (1, 3):
        y = fatten(x, m)
        assert list(y) == [(p, m) for p in x.points()]
        assert y.pair_lines is x.pair_lines
    t = KType(range(1, 4))
    assert type(t) is KType and t == (1, 2, 3)
    # the generators seed on f"generic:{ktype}:{seed}"
    assert f"{t}" == "(1, 2, 3)" and f"{KType((1,))}" == "(1,)"
    assert KType((3, 5)).ds == 5
    for bad in [(2, 2), ()]:
        with pytest.raises(ValueError):
            KType(bad)
    with pytest.raises(TypeError):
        KType((1.5, 3))


def test_strongly_generic_point_tests_each_candidate_once(monkeypatch):
    # At bound 1 the line z = 0 holds four candidates, (1:0:0), (0:1:0),
    # (1:1:0) and (1:-1:0), and each lies on exactly one of the other lines,
    # the k-th of them for the k-th candidate: 1 + 2 + 3 + 4 incidence tests.
    line = ProjLine((0, 0, 1))
    others = [ProjLine(l) for l in [(0, 1, 0), (1, 0, 0), (1, -1, 0), (1, 1, 0)]]
    tested, draws = [], []

    def counted_incident(p, l):
        tested.append(p)
        return incident(p, l)

    def counted_draw(*args):
        draws.append(random_combination(*args))
        return draws[-1]

    monkeypatch.setattr(kconfig, "incident", counted_incident)
    monkeypatch.setattr(kconfig, "random_combination", counted_draw)
    with pytest.raises(GenerationFailed):
        kconfig._strongly_generic_point(random.Random(0), line, others, [], 1)
    assert len(draws) == kconfig._MAX_TRIES and len(set(draws)) == 4
    assert len(tested) == 1 + 2 + 3 + 4 and set(tested) == set(draws)


def test_generators_deterministic():
    a = generate_with_line_count(3, 2, seed=9, bound=12)
    b = generate_with_line_count(3, 2, seed=9, bound=12)
    assert a == b
    c = generate_generic(KType((1, 3)), seed=4, bound=12)
    d = generate_generic(KType((1, 3)), seed=4, bound=12)
    assert c == d


# sha256 of the sorted-key JSON of generated configurations, keyed by the
# generator's arguments and the coordinate bound.  However the rejection
# loops test a candidate, they must draw the same random numbers, so these
# stay fixed.  The small bounds make candidates land on lines through two
# placed points.  A candidate is refused when two of its joins to the placed
# points are one line other than its own, so a test that misses such a
# line changes the output.
GENERIC_SHA256 = {
    ((1, 2, 3), 0, 50): "2ce212e7ac4a059dae7da30b6718d9a41b68513029681ace4516caa0b7542937",
    ((1, 2, 3), 1, 50): "6bb5261f5f478b8339135bb707d142e7c3016dc0780b58d8f340cdda57812dcc",
    ((1, 2, 3), 2, 50): "4431ab85674b85e113a22c3d0be67e3e69e2751b68fdb22d97957496573f2955",
    ((1, 2, 3, 4), 0, 50): "25c2590a3d6a7adf1c17fae5187cb59b7416cef160a8c8a6f985b2b6e833541d",
    ((1, 2, 3, 4), 1, 50): "f57d160b8cc06b5b7d11d25a65650e177b03103a2f01f137289c1f715f01bc0b",
    ((1, 2, 3, 4), 2, 50): "9537144b71594c651af52e45e30d21b849e4738b464bfcb3b75633889ecd274c",
    ((1, 2, 3, 4, 5), 0, 50): "610173f9476566dcd8305b36c53f6b54250e62d4682aad768ab08de2481776e7",
    ((1, 2, 3, 4, 5), 1, 50): "b260ceb20a65f7a53ccc937e4bd86f3d4e710e8ac12ea32f731850f04930600a",
    ((1, 2, 3, 4, 5), 2, 50): "66e8b8e381675df83caf638941caebd9e81d628ad1590d3660a5304f9bfb3c13",
    ((1, 3, 4, 5), 0, 50): "19b5209ea6b7a52e509468b4f942e39a223c28ae320cdd239853f125c9fec2de",
    ((1, 3, 4, 5), 1, 50): "1afc2c815f08897792dd4d693ec7f392b4c116952f386b4af452c9b2c432033a",
    ((1, 3, 4, 5), 2, 50): "093d0c4175dee3504e1c132e3b5360318b77e9b0dfb21bf5e58bb9ce47c2cc94",
    ((3, 5, 7, 9), 0, 50): "3815c25ff77eb6f1d7d6b2463018d97c521877a921004b697cd9ed9f6a8e12ff",
    ((3, 5, 7, 9), 1, 50): "4517802316f2f59366d52c5e4c9101a448db10e7e94eb2eedf6774af01d4c3a6",
    ((3, 5, 7, 9), 2, 50): "94111eefd56541cc46d4b7637beae421084a0d186a8a6f0480c22b47bf05fca7",
    ((1, 2, 3), 0, 4): "497c21b586e3bb220b0d549a7aca42569b2864ca29b3b45df46ed05902d641d2",
    ((1, 2, 3), 1, 4): "cf90859f6f51a175cc66a573aa5eebab794918c7b08f66439931bc26f2b038db",
    ((1, 2, 3), 2, 4): "0c06c98302116f80950630fa6037e06c14e5f32200b438924343b160b6b62653",
    ((1, 2, 3, 4), 0, 4): "e70f42c91644bcc8c09a551ae5fd494d4779bc201ceafcd5faf5de17da0982f2",
    ((1, 2, 3, 4), 1, 4): "039224ed75cc0f69ba234eab521b14755c4d0a702a52f65a6d2550f46b4c734d",
    ((1, 2, 3, 4), 2, 4): "5614c4e96f6c859794ce815a7b37baa26fd1607138856aab84b5f128b8f3397e",
    ((1, 2, 3, 4, 5), 0, 4): "9777c343d8c89f23287b7b8ee68b234cf359a454df3114ee6532cb127b6ed4d8",
    ((1, 2, 3, 4, 5), 1, 4): "34cb7c68638b99d4d4b4faafc26ca4caa23154dd47cdb3fec172dd75988f1843",
    ((1, 2, 3, 4, 5), 2, 4): "e94bbf0d312a59c9d9b7455202b97ddbf6b5b18b7e08fa958f847ef35fc31793",
    ((1, 3, 4, 5), 0, 4): "bfb93aab90e65e7a71d23ecdb6f06c09087cd3b5493e529ca8cc370444f69f62",
    ((1, 3, 4, 5), 1, 4): "bfb64e9ad1b54aba0377d62d1f4c40b6910e2b40127a6a865f83ed73b118ed1e",
    ((1, 3, 4, 5), 2, 4): "f90c9059b9930b272c87a2b69b81c85882accf85efeb349af06480513b205b40",
    ((3, 5, 7, 9), 0, 4): "d6fbfb6dfa06937ff49fa9fe1a0f8f587d2d06215990a8c1a5fbc2c2913a1ebb",
    ((3, 5, 7, 9), 1, 4): "896c734f5032f74aa8fb3692e24fa6d14e8bf6dce4118ef9e36756a3a3868844",
    ((3, 5, 7, 9), 2, 4): "5560fb4dfb157cd765aef1de108640c1096e9ea8a4562801968ba302ab250b15",
}
# a generic point fails to place 2, 4, 11 and 2 times, so the lines are
# drawn again
GENERIC_RETRY_SHA256 = {
    ((1, 2, 3, 4), 0, 2): "717d8973f6f8e95365e2171982450e3cd8f99445399d2c6eb1792251eea3ed89",
    ((1, 2, 3, 4), 4, 2): "491e509e7c215f08f5dd395cb0fbfcb59b92b8795c2a7f80efbae83add8054ee",
    ((1, 2, 3, 4), 9, 2): "e92e87e6f5bbab367d7d761f4c955c5b716599cfba080652444bf8d72c283c43",
    ((1, 2, 3, 4, 5), 5, 3): "8a583123fcb12fa0034d99c044ceba02652caaed291ce7b2b099e7642d0e0c15",
}
LINE_COUNT_SHA256 = {
    (3, 1, 20): "18d5b69feae39d98d5491a80d60f821ecade60a6014d80503de51fd39944d7d0",
    (3, 2, 20): "376973338b8e6cad3c4a46185a92102d2daf7969aacf6f73b9dd38406830dd4a",
    (3, 3, 20): "cb76db13517386c198c15bf19b51257f0b99eb5010877f5890d0badbf95bcddd",
    (3, 4, 20): "3eb5a2203cdd2e4fe12de10f242d7895df4565de0de2147fdac53837ded7fbda",
    (4, 1, 20): "122e7dac4ea0abc6afe21d1d339479057c2b7a944520ed6119cd4b67afb62cdf",
    (4, 2, 20): "dc0fa66b2e6b8d181c556dc474a9b2f8a24069a7cb8c1e1d899ba613301c4e53",
    (4, 3, 20): "dbc63f31175b6f1eb5e7f5baf8bff729f5127338cd0d2aedf07bbde305736161",
    (4, 4, 20): "f977c1894a87c1a6dd4c684285d39a0dca63e14c2f40638e433e3646b2f2994c",
    (4, 5, 20): "cdf0ed80b32f2a60cca7524831926f6d24d0028954beb9ae4a18aaac898fb389",
    (5, 1, 20): "53bc4262c5e514df63d800301062ab29b0ef0460e134962ee9762c0eefc97d1e",
    (5, 2, 20): "44110b03a9281fe7f2b1f5f9361eb83f38a2a6f108746fa037d521b2ed3c8353",
    (5, 3, 20): "18b7862859d4369e5926697b22110706a6568e36120dc23a300851afbd4e5492",
    (5, 4, 20): "523d919f7c4003f0bbae3e0744159608e2f834292da5921907a50c149cb1b5ba",
    (5, 5, 20): "548eb22c9ad9079e68eb8959a95b83cb82bed9369b8988ad59e173bd63e4b770",
    (5, 6, 20): "85ca020b0f03f82fee72816b36675b8bf5de12a4193fb2f8e52f71c3d294ab1d",
    (3, 1, 2): "a3f09da792ed40e62fa14ea967d996a97b7602db85ba1abe752a30eef3e86c5f",
    (3, 2, 2): "db67b6a9a823cc48817d9c9739d45063f493aa4b3c3951176398e8cf1bcf8f86",
    (3, 3, 2): "d8cc6b762d6cae59cc857a5aab87b49983f613af2d909632971b6ea0c27be896",
    (3, 4, 2): "d55a6129ec0ed4a225adf706483865446d7a07e6446c529122db297ef04ab7ba",
    (4, 1, 2): "43f45b1dbff0101053d82a90d4f1562853f0fe10b27c0c4f28c8c8fd73606e56",
    (4, 2, 2): "194e188c5a01417a1869f6bfbfdaf9f294cf854f2ff8dfccf748b317874e3d53",
    (4, 3, 2): "23924f3d2a9619a373d38b76137be849ef78fdcc0fad0122d016b706fa3cc690",
    (4, 4, 2): "7fcdd3534aae1f9834b6dc62b520411059df6d61d2dd557399ecec684274166a",
    (4, 5, 2): "0bbb46523553c145ae773c23e13e942db391c36906efab554e1b86c6daa615a3",
    (5, 4, 2): "fae20815bb416712fd794d0c3965812e3f150cec85cca3141ab51878b45cf3b3",
    (5, 5, 2): "cf3288b5f8bb4753405daffdfbe93d31e6de5524c6bf7bc8cedf52a603e8cf62",
    (5, 6, 2): "a357af400d7fbcf2047f3a91f1b3c2e15477a22265ec9bd071e6c6fe9042fe3c",
}


def _sha256(x):
    payload = json.dumps(kconfig_to_json(x), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("dvec, seed, bound", sorted(GENERIC_SHA256))
def test_generate_generic_output_is_pinned(dvec, seed, bound):
    x = generate_generic(KType(dvec), seed=seed, bound=bound)
    assert _sha256(x) == GENERIC_SHA256[dvec, seed, bound]


@pytest.mark.parametrize("dvec, seed, bound", sorted(GENERIC_RETRY_SHA256))
def test_generate_generic_retry_output_is_pinned(dvec, seed, bound):
    x = generate_generic(KType(dvec), seed=seed, bound=bound)
    assert _sha256(x) == GENERIC_RETRY_SHA256[dvec, seed, bound]


@pytest.mark.parametrize("s, r, bound", sorted(LINE_COUNT_SHA256))
def test_generate_with_line_count_output_is_pinned(s, r, bound):
    x = generate_with_line_count(s, r, seed=0, bound=bound)
    assert _sha256(x) == LINE_COUNT_SHA256[s, r, bound]
