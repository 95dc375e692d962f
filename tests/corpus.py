"""Shared exact configurations used across the test suite.

Each fixture realizes a geometric shape with known maximal-line counts:
four type (1,2,3) variants covering every branch of the trichotomy, a
type (1,3,4,5) configuration with three 5-point lines, a type (1,2,3,4)
configuration with exactly four 4-point lines and a private point on
each, and a type (1,3,4,5,6) configuration whose defining lines need a
relabelling.  All coordinates are exact (affine (x, y) -> (x : y : 1)
cleared to integers).

``LADDER`` lists the benchmark's ladder of generic configurations, and
``ladder_degrees`` the degrees t* - 1 and t* = m*d_s - 1 of each rung,
where its conditions matrices are largest.

``scheme_to_json`` writes a scheme in the format that
``fatpoints.scheme.scheme_from_json`` reads, for the tests that write
``--scheme`` files or round-trip that format.
"""

from fatpoints.geom import ProjLine, ProjPoint, triple_to_json
from fatpoints.kconfig import KConfiguration, KType, fatten, generate_generic

# (type, multiplicity) of each rung of the benchmark ladder.
LADDER = [((1, 2, 3), 4), ((1, 2, 3, 4), 5), ((1, 2, 3, 4, 5), 6),
          ((1, 3, 4, 5), 3), ((3, 5, 7, 9), 3)]


def ladder_degrees():
    """(name, scheme, t) for t = t* - 1 and t* of every rung, at seed 0."""
    for dvec, m in LADDER:
        z = fatten(generate_generic(KType(dvec), seed=0, bound=50), m)
        t_star = m * dvec[-1] - 1
        for t in (t_star - 1, t_star):
            yield f"{dvec}/{m}@{t}", z, t


def _cfg(dvec, subsets, lines):
    return KConfiguration(
        KType(tuple(dvec)),
        tuple(tuple(ProjPoint(p) for p in sub) for sub in subsets),
        tuple(ProjLine(l) for l in lines),
    )


# Lines shared by several shapes.
_DIAG = (1, -1, 0)          # y = x
_HORIZ = (0, 1, 0)          # y = 0
_SLANT = (3, 5, -24)        # 3x + 5y = 24
_STEEP = (3, -1, -12)       # 3x - y = 12


def config_123_star():
    """Type (1,2,3); the six points are the pairwise meets of four lines:
    four 3-point lines (the r = s + 1 star)."""
    return _cfg(
        (1, 2, 3),
        [
            [(14, 6, 3)],
            [(4, 0, 1), (8, 0, 1)],
            [(0, 0, 1), (3, 3, 1), (6, 6, 1)],
        ],
        [_SLANT, _HORIZ, _DIAG],
    )


def config_123_exact():
    """Type (1,2,3) with exactly three 3-point lines (r = s)."""
    return _cfg(
        (1, 2, 3),
        [
            [(11, 3, 2)],
            [(4, 0, 1), (8, 0, 1)],
            [(0, 0, 1), (3, 3, 1), (6, 6, 1)],
        ],
        [_SLANT, _HORIZ, _DIAG],
    )


def config_123_two():
    """Type (1,2,3) with exactly two 3-point lines (r = 2)."""
    return _cfg(
        (1, 2, 3),
        [
            [(11, 3, 2)],
            [(4, 0, 1), (13, 0, 2)],
            [(0, 0, 1), (3, 3, 1), (6, 6, 1)],
        ],
        [_SLANT, _HORIZ, _DIAG],
    )


def config_123_one():
    """Type (1,2,3) with exactly one 3-point line (r = 1); the shape whose
    doubled scheme has first difference 3 despite the single line."""
    return _cfg(
        (1, 2, 3),
        [
            [(11, 3, 2)],
            [(4, 0, 1), (13, 0, 2)],
            [(1, 1, 1), (3, 3, 1), (6, 6, 1)],
        ],
        [_SLANT, _HORIZ, _DIAG],
    )


def config_1345():
    """Type (1,3,4,5) with three 5-point lines (the reduction-vector
    walkthrough shape): doubling it gives v = (10,9,8,3,3,3,2,1) under
    two descending passes."""
    return _cfg(
        (1, 3, 4, 5),
        [
            [(5, 3, 1)],
            [(3, 3, 2), (9, 9, 2), (6, 6, 1)],
            [(0, 0, 1), (7, 0, 4), (7, 0, 2), (11, 0, 2)],
            [(8, 0, 1), (19, 3, 3), (3, 3, 1), (4, 12, 3), (1, -15, -3)],
        ],
        [_STEEP, _DIAG, _HORIZ, _SLANT],
    )


def config_1234():
    """Type (1,2,3,4) with exactly four 4-point lines; the six pairwise
    meets of the defining lines plus one private point on each."""
    return _cfg(
        (1, 2, 3, 4),
        [
            [(11, 9, 2)],
            [(9, 9, 2), (6, 6, 1)],
            [(0, 0, 1), (4, 0, 1), (7, 0, 4)],
            [(8, 0, 1), (14, 6, 3), (3, 3, 1), (65, 9, 10)],
        ],
        [_STEEP, _DIAG, _HORIZ, _SLANT],
    )


def config_13456():
    """Type (1,3,4,5,6) whose second defining line meets the set in six
    points: one relabelling step moves it into the fourth slot."""
    return _cfg(
        (1, 3, 4, 5, 6),
        [
            [(19, 33, 5)],
            [(4, 4, 1), (11, 11, 2), (7, 7, 1)],
            [(3, 3, 1), (5, 3, 1), (7, 3, 1), (37, 12, 4)],
            [(3, 3, 2), (13, 6, 4), (10, 3, 2), (27, 6, 4), (35, 6, 4)],
            [(0, 0, 1), (2, 0, 1), (4, 0, 1), (6, 0, 1), (8, 0, 1), (10, 0, 1)],
        ],
        [(3, 1, -18), _DIAG, (0, 1, -3), (0, 2, -3), _HORIZ],
    )


def config_13456_relabelled():
    """The expected result of one relabelling step on config_13456."""
    return _cfg(
        (1, 3, 4, 5, 6),
        [
            [(19, 33, 5)],
            [(5, 3, 1), (7, 3, 1), (37, 12, 4)],
            [(13, 6, 4), (10, 3, 2), (27, 6, 4), (35, 6, 4)],
            [(4, 4, 1), (11, 11, 2), (7, 7, 1), (3, 3, 1), (3, 3, 2)],
            [(0, 0, 1), (2, 0, 1), (4, 0, 1), (6, 0, 1), (8, 0, 1), (10, 0, 1)],
        ],
        [(3, 1, -18), (0, 1, -3), (0, 2, -3), _DIAG, _HORIZ],
    )


def trichotomy_corpus():
    """All four type (1,2,3) variants with their maximal-line counts."""
    return [
        (config_123_star(), 4),
        (config_123_exact(), 3),
        (config_123_two(), 2),
        (config_123_one(), 1),
    ]


def full_corpus():
    """Every hand-built configuration with its (k, count) ground truth."""
    return [
        (config_123_star(), 3, 4),
        (config_123_exact(), 3, 3),
        (config_123_two(), 3, 2),
        (config_123_one(), 3, 1),
        (config_1345(), 5, 3),
        (config_1234(), 4, 4),
        (config_13456(), 6, 2),
    ]


def scheme_to_json(z):
    """The ``--scheme`` JSON object of a scheme: its points and their
    multiplicities, in the scheme's order."""
    return {
        "points": [triple_to_json(p) for p, _ in z],
        "mults": [m for _, m in z],
    }
