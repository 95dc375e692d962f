"""The pair lines of a configuration are enumerated once.

A spy replaces ``lines_through_pairs`` in every ``fatpoints`` module that
holds it and counts the calls: the configuration computes its incidence
(the lines, their members and the per-point line lists) once, and
:func:`kconfig.fatten` hands that incidence to every scheme built on it.
"""

import json
import sys
from random import Random

import pytest

from corpus import config_1345
from fatpoints import cli, geom, kconfig
from fatpoints.geom import ProjLine, meet
from fatpoints.kconfig import KType, fatten, generate_generic
from fatpoints.verify import hilbert_family, verify_main
from fatpoints.wire import kconfig_from_json, kconfig_to_json


@pytest.fixture
def pair_line_calls(monkeypatch):
    calls = []
    real = geom.lines_through_pairs

    def spy(points):
        calls.append(len(points))
        return real(points)

    for name, module in list(sys.modules.items()):
        if name.startswith("fatpoints") and hasattr(module, "lines_through_pairs"):
            monkeypatch.setattr(module, "lines_through_pairs", spy)
    return calls


def _fresh(x):
    """The same configuration read back from JSON, with no map computed."""
    return kconfig_from_json(kconfig_to_json(x))


@pytest.mark.parametrize("m", [1, 2, 5])
def test_verify_main_enumerates_pairs_once(m, pair_line_calls):
    x = _fresh(config_1345())
    verify_main(x, [m])[0]
    assert pair_line_calls == [len(x.points())]


def test_cli_m_sweep_enumerates_pairs_once(tmp_path, capsys, pair_line_calls):
    x = generate_generic(KType((1, 2, 3, 4, 5)), seed=0, bound=50)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(kconfig_to_json(x)))
    pair_line_calls.clear()
    rc = cli.main(["verify", "--config", str(cfg), "--m-sweep", "1:6", "--format", "json"])
    assert rc == 0
    assert capsys.readouterr().out.count('"config_id"') == 6
    assert pair_line_calls == [15]


def test_family_enumerates_pairs_once_per_member(pair_line_calls):
    report = hilbert_family(3, 4, seed=0, bound=20)
    assert report.ok and len(report.members) == 4
    # generate_with_line_count confirms r with count_lines; that map is
    # the one the member's schemes use
    assert pair_line_calls == [6] * 4


def test_generators_enumerate_no_pairs(pair_line_calls):
    for dvec in [(1, 2, 3, 4, 5), (3, 5, 7, 9)]:
        generate_generic(KType(dvec), seed=0, bound=50)
    for r in range(1, 6):
        rng = Random(f"spy:{r}")
        lines = kconfig._general_position_lines(rng, 5, 20)
        forced = [
            [meet(l, lines[j]) for j in range(5 - r, i)] for i, l in enumerate(lines)
        ]
        kconfig._place_points(rng, KType((1, 2, 3, 4, 5)), lines, forced, 20)
    assert pair_line_calls == []


def test_star_builds_compute_no_join(monkeypatch):
    # the star's points are all forced meets: no generic point is tested
    # against its joins, and no line through two placed points is kept
    calls = []
    real = kconfig.cross

    def spy(u, v):
        calls.append((u, v))
        return real(u, v)

    monkeypatch.setattr(kconfig, "cross", spy)
    for s in range(2, 7):
        kconfig.generate_with_line_count(s, s + 1, 0, 20)
    assert calls == []


def test_count_lines_and_schemes_share_the_map(pair_line_calls):
    x = _fresh(config_1345())
    count = len(kconfig.count_lines(x, 5))
    z1, z2 = fatten(x, 1), fatten(x, 3)
    assert z1.pair_lines is z2.pair_lines is x.pair_lines
    assert x.points() is x.points()  # sorted once per configuration
    assert z1.greedy_reduction.values[0] == 5 and count == 3
    assert z2.greedy_reduction.values[0] == 15
    # both peels read the per-point line lists of that one call
    assert len(pair_line_calls) == 1
    assert len(x.pair_lines.through) == len(x.points())


def test_returned_lines_are_canonical_proj_lines():
    x = _fresh(config_1345())
    counted = kconfig.count_lines(x, 5)
    chosen = fatten(x, 3).greedy_reduction.lines
    for l in (*counted, *chosen):
        assert type(l) is ProjLine and l == ProjLine(l)
        assert hash(l) == hash(ProjLine(l))
    assert counted and chosen


def test_count_lines_and_the_peel_hand_out_the_pair_lines_themselves():
    x = _fresh(config_1345())
    lines = x.pair_lines.lines
    assert lines and all(type(l) is ProjLine for l in lines)
    held = {id(l) for l in lines}
    counted = kconfig.count_lines(x, 5)
    chosen = fatten(x, 3).greedy_reduction.lines
    assert counted and all(id(l) in held for l in (*counted, *chosen))


def test_schemes_built_otherwise_compute_their_own_map(pair_line_calls):
    x = _fresh(config_1345())
    z = fatten(x, 2)
    r = z.residual(z.greedy_reduction.lines[0])
    assert r.pair_lines is r.pair_lines  # computed once, on first use
    assert pair_line_calls == [len(x.points()), len(r.support())]
