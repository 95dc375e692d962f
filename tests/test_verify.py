import json
import sys
from functools import cached_property
from math import comb

import pytest

from corpus import (
    LADDER,
    config_123_one,
    config_123_star,
    config_1234,
    config_1345,
    full_corpus,
)
from fatpoints import cli, hilbert, kconfig, verify, wire
from fatpoints.kconfig import KType, fatten, generate_generic, generate_with_line_count
from fatpoints.scheme import FatPointScheme
from fatpoints.verify import hilbert_family, m0, verify_main
from lemmas import tail_length


def test_m0_values():
    assert m0(KType((1, 3, 4, 5))) == 2
    assert m0(KType((1, 2, 3))) == 4
    assert m0(KType((2, 4))) == 2
    with pytest.raises(ValueError, match="no threshold for a single point"):
        m0(KType((1,)))


def test_verify_main_walkthrough():
    rep = verify_main(config_1345(), [2])[0]
    assert rep.delta_value == 3 and rep.line_count == 3
    assert rep.matches and rep.asserted


def test_verify_main_below_threshold_mismatch():
    rep = verify_main(config_123_one(), [2])[0]
    assert rep.delta_value == 3 and rep.line_count == 1
    assert not rep.matches and not rep.asserted  # informational only


def test_verify_main_at_threshold():
    rep = verify_main(config_123_one(), [4])[0]
    assert rep.delta_value == 1 and rep.line_count == 1
    assert rep.matches and rep.asserted


def test_verify_main_four_line_shape():
    rep = verify_main(config_1234(), [2])[0]
    assert rep.delta_value == 4 and rep.line_count == 4 and rep.matches


def test_verify_main_single_point_refused():
    x = generate_generic(KType((1,)), seed=1, bound=50)
    with pytest.raises(ValueError, match="verification needs at least two points"):
        verify_main(x, [2])[0]


def _support_value(x):
    """H_X(d_s - 1) of the reduced scheme: the report carries only its
    first difference."""
    return hilbert.hilbert_value(fatten(x, 1), x.ktype.ds - 1)


def test_reduced_bound_consecutive_type():
    for x, expected_count in [
        (config_123_one(), 1),
        (config_123_star(), 4),
    ]:
        rep = verify_main(x, [4])[0]
        assert rep.reduced_delta == 3 == tail_length(x.ktype)
        assert rep.line_count == expected_count <= rep.reduced_delta + 1
        assert _support_value(x) == 6 == sum(x.ktype)


def test_reduced_bound_walkthrough_type():
    x = config_1345()
    rep = verify_main(x, [2])[0]
    assert rep.reduced_delta == 3 == tail_length(x.ktype)
    assert rep.line_count == 3 <= rep.reduced_delta + 1
    assert _support_value(x) == 13 == sum(x.ktype)


def test_reduced_bound_sparse_type():
    x = generate_generic(KType((2, 5)), seed=3, bound=15)
    rep = verify_main(x, [2])[0]
    assert rep.reduced_delta == 1 == tail_length(x.ktype)
    assert rep.line_count <= rep.reduced_delta + 1 == 2
    assert _support_value(x) == 7 == sum(x.ktype)


def test_verify_regularity_small():
    rep = verify_main(config_123_one(), [4])[0]
    assert rep.ri == 11 == 4 * 3 - 1


def test_verify_regularity_threshold():
    # below m0 = s + 1 the report records the values without asserting
    rep = verify_main(config_123_one(), [3])[0]
    assert rep.m0 == 4 and rep.asserted is False


def test_verify_regularity_single_point():
    # verify_main refuses one point; its regularity index is m - 1
    x = generate_generic(KType((1,)), seed=1, bound=50)
    for m in (1, 2, 5):
        assert hilbert.regularity_index(fatten(x, m)) == m - 1


def test_verify_last_nonzero_walkthrough():
    # ri = t*, so H(t*) = deg and delta_value is the last nonzero difference
    rep = verify_main(config_1345(), [2])[0]
    assert rep.ri == 9 == 2 * 5 - 1
    assert rep.delta_value == 3 == rep.line_count


def test_verify_last_nonzero_counterexample_resolves():
    rep = verify_main(config_123_one(), [4])[0]
    assert rep.ri == 11 == 4 * 3 - 1
    assert rep.delta_value == 1 == rep.line_count


def test_verify_last_nonzero_small_star():
    x = generate_with_line_count(2, 3, seed=0, bound=12)
    rep = verify_main(x, [3])[0]
    assert rep.ri == 5 == 3 * 2 - 1
    assert rep.delta_value == 3 == rep.line_count


def test_family_s2_is_singleton():
    rep = hilbert_family(2, 3, seed=0, bound=20)
    assert [mem.r for mem in rep.members] == [3]
    assert set(rep.infeasible) == {1, 2}
    assert rep.supports_ok and rep.probe_ok and rep.pairwise_distinct
    mem = rep.members[0]
    assert mem.value_at_probe == mem.degree - 3 == 18 - 3


def test_family_s3_complete():
    rep = hilbert_family(3, 4, seed=0, bound=20)
    assert [mem.r for mem in rep.members] == [1, 2, 3, 4]
    assert rep.ok
    for mem in rep.members:
        assert mem.degree == 60
        assert mem.value_at_probe == 60 - mem.r
        assert mem.support_values == (1, 3, 6, 6)


def test_family_draws_r_in_order_and_stops_at_the_first_refusal(monkeypatch):
    # At bound 1 a line holds 4 points, so r = 1 (5 generic points on the
    # last line) is refused up front; nothing is drawn for another r.
    calls = []
    real = kconfig.generate_with_line_count

    def spy(s, r, seed, bound):
        calls.append(r)
        assert calls == [1], f"drawn out of r order: {calls}"
        return real(s, r, seed, bound)

    monkeypatch.setattr(kconfig, "generate_with_line_count", spy)
    with pytest.raises(kconfig.GenerationFailed, match="too small for 5 generic"):
        hilbert_family(5, 6, seed=0, bound=1)
    assert calls == [1]


def test_family_threshold():
    with pytest.raises(ValueError, match=r"the family statement needs m >= s \+ 1"):
        hilbert_family(3, 3, seed=0, bound=20)


def test_verify_main_reuses_ri_for_the_top_value(monkeypatch):
    # ri = t* = 11 here, so H(t*) = deg comes from the regularity search:
    # H(t*) is computed once, by the walk, and the t* matrix, the largest
    # one, is built at most once.
    x, m = config_123_one(), 4
    t_star = m * x.ktype.ds - 1
    degrees, valued = [], []
    real_matrix, real_value = hilbert.conditions_matrix, hilbert.hilbert_value

    def spy_matrix(z, t):
        degrees.append(t)
        return real_matrix(z, t)

    def spy_value(z, t):
        valued.append(t)
        return real_value(z, t)

    monkeypatch.setattr(hilbert, "conditions_matrix", spy_matrix)
    monkeypatch.setattr(hilbert, "hilbert_value", spy_value)
    rep = verify_main(x, [m])[0]
    assert rep.ri == t_star and degrees.count(t_star) <= 1
    assert valued.count(t_star) == 1
    assert rep.delta_value == 1


@pytest.fixture
def spied(monkeypatch):
    """The calls made while a test runs: ``values`` holds the (scheme, t)
    of each :func:`hilbert.hilbert_value`, ``peels`` the scheme of each
    greedy peel, ``ids`` the configuration of each ``config_id`` and
    ``counts`` the (configuration, k) of each ``count_lines``, the last
    spied in every ``fatpoints`` module that holds it."""
    calls = {"values": [], "peels": [], "ids": [], "counts": []}
    real_value = hilbert.hilbert_value
    real_peel = FatPointScheme.greedy_reduction.func
    real_id = verify.config_id
    real_count = kconfig.count_lines

    def spy_value(z, t):
        calls["values"].append((z, t))
        return real_value(z, t)

    def spy_peel(z):
        calls["peels"].append(z)
        return real_peel(z)

    def spy_id(x):
        calls["ids"].append(x)
        return real_id(x)

    def spy_count(x, k):
        calls["counts"].append((x, k))
        return real_count(x, k)

    peel = cached_property(spy_peel)
    peel.__set_name__(FatPointScheme, "greedy_reduction")
    monkeypatch.setattr(hilbert, "hilbert_value", spy_value)
    monkeypatch.setattr(FatPointScheme, "greedy_reduction", peel)
    monkeypatch.setattr(verify, "config_id", spy_id)
    for name, module in list(sys.modules.items()):
        if name.startswith("fatpoints") and getattr(module, "count_lines", None) is real_count:
            monkeypatch.setattr(module, "count_lines", spy_count)
    return calls


@pytest.mark.parametrize(
    "dvec, m",
    [*LADDER, *((dvec, m0(KType(dvec)) - 1) for dvec, _ in LADDER)],
)
def test_verify_main_reads_four_hilbert_values(dvec, m, spied):
    # The regularity walk starts at its floor t* and reads H(t*) = deg
    # there, so the report takes H(t*) from it; then H(t* - 1) and the two
    # support values, read by the same routine at m = 1.  A walk that
    # started below t*, or an H(t*) computed again, would make a fifth
    # call.  At m = 1 (the (1,3,4,5) and (3,5,7,9) rungs below m0 = 2) the
    # scheme is the support, so its two values are the reduced ones too:
    # two calls and one greedy peel.
    valued, peeled = spied["values"], spied["peels"]
    x = generate_generic(KType(dvec), seed=0, bound=50)
    rep = verify_main(x, [m])[0]
    z, support, ds = fatten(x, m), fatten(x, 1), dvec[-1]
    t_star = m * ds - 1
    if m == 1:
        assert valued == [(support, ds - 1), (support, ds - 2)]
        assert peeled == [support]
        assert rep.reduced_delta == rep.delta_value
    else:
        assert valued == [(z, t_star), (z, t_star - 1), (support, ds - 1), (support, ds - 2)]
        assert peeled == [z, support]
    assert rep.ri == t_star


def test_cli_sweep_reads_each_support_value_once(spied, tmp_path, capsys):
    # verify --m-sweep 1:6 is one verification pass: one config id, one line
    # count, and per m one greedy peel and the two values H_mX(t*),
    # H_mX(t* - 1), the m = 1 pair being the support's reduced values.
    x = generate_generic(KType((1, 2, 3, 4, 5)), seed=0, bound=50)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(wire.kconfig_to_json(x)))
    for calls in spied.values():
        calls.clear()
    argv = ["verify", "--config", str(cfg), "--m-sweep", "1:6", "--format", "json"]
    assert cli.main(argv) == 0
    assert [rep["m"] for rep in json.loads(capsys.readouterr().out)] == [1, 2, 3, 4, 5, 6]
    assert spied["values"] == [
        (fatten(x, m), t) for m in range(1, 7) for t in (5 * m - 1, 5 * m - 2)
    ]
    assert spied["peels"] == [fatten(x, m) for m in range(1, 7)]
    assert spied["ids"] == [x] and spied["counts"] == [(x, 5)]


def _differential_cases():
    for i, (x, _, _) in enumerate(full_corpus()):
        yield pytest.param(x, id=f"corpus{i}-{x.ktype}")
    for dvec, _ in LADDER:
        for seed in (0, 2):
            x = generate_generic(KType(dvec), seed=seed, bound=50)
            yield pytest.param(x, id=f"{dvec}-seed{seed}")


@pytest.mark.parametrize("x", _differential_cases())
def test_reduced_delta_is_the_m1_delta(x):
    # The reduced-scheme value of every report is the m = 1 report's
    # delta_value, and both equal H_X(d_s - 1) - H_X(d_s - 2) read directly.
    support, ds = fatten(x, 1), x.ktype.ds
    direct = hilbert.hilbert_value(support, ds - 1)
    direct -= hilbert.hilbert_value(support, ds - 2)
    assert verify_main(x, [1])[0].delta_value == direct
    for m in range(1, m0(x.ktype) + 2):
        assert verify_main(x, [m])[0].reduced_delta == direct


@pytest.mark.parametrize("dvec, m", LADDER)
def test_verify_main_builds_no_matrix_on_ladder_rungs(dvec, m, monkeypatch):
    # Every value of these checks, ri included, is settled by f_v = F_v.
    degrees = []
    real = hilbert.conditions_matrix

    def spy(z, t):
        degrees.append(t)
        return real(z, t)

    monkeypatch.setattr(hilbert, "conditions_matrix", spy)
    x = generate_generic(KType(dvec), seed=0, bound=50)
    rep = verify_main(x, [m])[0]
    assert rep.matches and rep.ri == m * dvec[-1] - 1
    assert degrees == []


def test_verify_main_builds_no_large_exact_matrix(monkeypatch):
    # Every matrix of this check is settled by residues alone (a value
    # pinned at its shape or at the greedy bound); no exact row is built.
    built = []
    real = hilbert.ConditionsMatrix._cells

    def spy(self, p):
        if p is None:
            built.append(len(self) * comb(self.degree + 2, 2))
        return real(self, p)

    monkeypatch.setattr(hilbert.ConditionsMatrix, "_cells", spy)
    x = generate_generic(KType((1, 2, 3, 4)), seed=0, bound=50)
    rep = verify_main(x, [5])[0]
    assert rep.matches and rep.ri == 5 * 4 - 1
    assert built == []
