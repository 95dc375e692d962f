"""Projective invariance: no answer depends on the coordinates.

An integer matrix A of determinant +-1 is a change of coordinates of the
plane.  It maps each point p to A p and each line l to cof(A) l, where
cof(A) = adj(A)^T = det(A) A^-T, so l . p = 0 exactly when
cof(A) l . A p = 0.  The image of a configuration has the same incidences,
and the substitution x -> A^-1 x carries the forms vanishing to order m at
p onto those vanishing to order m at A p, degree by degree.  So the image
is valid, has the same lines through k points (the images of the old
ones) and the same Hilbert function of every fattening, and ``verify_main``
reports the same values, the config id aside.  This rests on no theorem
about fat points: the two runs agree whatever the identity says, while
their greedy peels, matrices and ranks differ.  Nor does the CLI's stdout
change where it prints no config id: ``hilbert --format json`` on a
fattening and the text of ``count-lines``.  A scheme that is no fattening
maps too: the residual of 2X by a defining line L, whose image is the
residual of 2Y by cof(A) L, has the same Hilbert function.

Relabelling a configuration without moving it, by shuffling the points of
each subset and reordering the JSON keys, must not change even the config
id: ``verify --format json`` prints the same bytes.  So must shuffling the
entries of a ``--scheme`` file for ``hilbert``.
"""

import json
from dataclasses import replace
from functools import partial
from random import Random

import pytest

from corpus import full_corpus, scheme_to_json
from fatpoints.cli import main
from fatpoints.geom import ProjLine, ProjPoint, cross
from fatpoints.hilbert import hilbert_table, regularity_index
from fatpoints.kconfig import (
    KConfiguration,
    KType,
    count_lines,
    fatten,
    generate_generic,
    generate_with_line_count,
    kconfig_to_json,
    validate,
)
from fatpoints.scheme import FatPointScheme
from fatpoints.verify import m0, verify_main

INPUTS = {
    **{f"corpus{i}": (lambda i=i: full_corpus()[i][0]) for i in range(len(full_corpus()))},
    **{f"s={s} r={r}": partial(generate_with_line_count, s, r, 0, 20)
       for s in (3, 4) for r in range(1, s + 2)},
    **{f"generic {d}": partial(generate_generic, KType(d), 0, 20)
       for d in ((1, 3, 4, 5), (2, 3, 5))},
}

MAPS_PER_INPUT = 2


def _random_map(rng: Random) -> list[tuple[int, int, int]]:
    """The rows of a product of 6-8 elementary matrices I + c e_ij, with c
    in +-1..3, and half the time a row permutation."""
    a = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for _ in range(rng.randint(6, 8)):
        i, j = rng.sample(range(3), 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        a[i] = tuple(u + c * v for u, v in zip(a[i], a[j]))
    if rng.random() < 0.5:
        rng.shuffle(a)
    return a


def _cofactors(a):
    """cof(A): row i is the cross product of the other two rows, in cyclic
    order, so that A cof(A)^T = det(A) I."""
    return [cross(a[1], a[2]), cross(a[2], a[0]), cross(a[0], a[1])]


def _apply(a, v) -> tuple[int, int, int]:
    return tuple(sum(u * w for u, w in zip(row, v)) for row in a)


def _image(x: KConfiguration, a) -> KConfiguration:
    cof = _cofactors(a)
    return KConfiguration(
        x.ktype,
        tuple(tuple(ProjPoint(_apply(a, p)) for p in sub) for sub in x.subsets),
        tuple(ProjLine(_apply(cof, l)) for l in x.lines),
    )


def _without_id(reports):
    return [replace(rep, config_id="") for rep in reports]


@pytest.mark.parametrize("name", INPUTS)
def test_every_answer_survives_a_change_of_coordinates(name):
    x = INPUTS[name]()
    ms = [1, 2, m0(x.ktype)]
    reports = _without_id(verify_main(x, ms))
    lines = {k: count_lines(x, k) for k in range(2, x.ktype.ds + 1)}
    z = fatten(x, 2)
    ri = regularity_index(z)
    table = hilbert_table(z, ri)
    rng = Random(f"invariance:{name}")
    residuals = [(l, z.residual(l)) for l in x.lines]
    tables = [hilbert_table(r, regularity_index(r)) for _, r in residuals]
    for _ in range(MAPS_PER_INPUT):
        a = _random_map(rng)
        cof = _cofactors(a)
        y = _image(x, a)
        assert validate(y) == []
        assert _without_id(verify_main(y, ms)) == reports
        for k, found in lines.items():
            assert sorted(count_lines(y, k)) == sorted(ProjLine(_apply(cof, l)) for l in found)
        assert hilbert_table(fatten(y, 2), ri) == table
        for (l, r), rtable in zip(residuals, tables):
            image = fatten(y, 2).residual(ProjLine(_apply(cof, l)))
            assert image == FatPointScheme((ProjPoint(_apply(a, p)), m) for p, m in r)
            assert hilbert_table(image, rtable.stabilized_at) == rtable


def _outputs(tmp_path, capsys, payloads, argv):
    """(exit code, stdout) of ``main(argv)`` with each payload, written as
    JSON, as the file argument that ends ``argv``."""
    outputs = []
    for i, payload in enumerate(payloads):
        path = tmp_path / f"in{i}.json"
        path.write_text(json.dumps(payload))
        outputs.append((main([*argv, str(path)]), capsys.readouterr().out))
    return outputs


@pytest.mark.parametrize("name", INPUTS)
def test_cli_stdout_survives_a_change_of_coordinates(name, tmp_path, capsys):
    x = INPUTS[name]()
    rng = Random(f"cli-invariance:{name}")
    configs = [x] + [_image(x, _random_map(rng)) for _ in range(MAPS_PER_INPUT)]
    payloads = [kconfig_to_json(y) for y in configs]
    t_max = 2 * x.ktype.ds + 1
    for argv in (["hilbert", "--m", "2", "--t-max", str(t_max), "--format", "json", "--config"],
                 ["count-lines", "--config"], ["count-lines", "--k", "2", "--config"]):
        first, *images = _outputs(tmp_path, capsys, payloads, argv)
        assert first[0] == 0 and all(image == first for image in images), argv


@pytest.mark.parametrize("name", INPUTS)
def test_relabelling_prints_the_same_bytes(name, tmp_path, capsys):
    x = INPUTS[name]()
    rng = Random(f"relabel:{name}")
    data = kconfig_to_json(x)
    relabelled = {
        "lines": data["lines"],
        "subsets": [rng.sample(sub, len(sub)) for sub in data["subsets"]],
        "type": data["type"],
    }
    argv = ["verify", "--m", str(m0(x.ktype)), "--format", "json", "--config"]
    first, second = _outputs(tmp_path, capsys, [data, relabelled], argv)
    assert first == second and first[0] == 0

    points = x.points()
    mults = [1 + i % 3 for i in range(len(points))]
    scheme = scheme_to_json(FatPointScheme.from_points(points, mults))
    entries = rng.sample(list(zip(scheme["points"], scheme["mults"])), len(points))
    shuffled = {"mults": [m for _, m in entries], "points": [p for p, _ in entries]}
    argv = ["hilbert", "--t-max", "12", "--format", "json", "--scheme"]
    first, second = _outputs(tmp_path, capsys, [scheme, shuffled], argv)
    assert first == second and first[0] == 0
