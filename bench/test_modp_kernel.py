"""Micro-benchmark of the mod-p elimination kernel, ``linalg._modp_eliminate``.

Two kinds of case.  The ladder cases take the conditions matrices at
t* - 1 and t* = m*d_s - 1 of each rung of the benchmark ladder (generic
configurations at seed 0, coordinate bound 50); ``verify`` settles all of
them by the sandwich bounds, so no command ranks them.  The family cases
are the two matrices that ``linalg.rank`` does eliminate for ``family``
(seed 0, coordinate bound 20): r = 5 at t = 21 of ``--s 5 --m 6``, 315 x 253
and the one span certificate, and r = 5 at t = 36 of ``--s 6 --m 7``,
588 x 703, pinned at F = 563.  The residues are built before timing; only
the elimination is timed.
The file sits outside ``tests/`` so the test suite does not collect it.
Run it with::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest bench/test_modp_kernel.py \\
        --benchmark-json=kernel.json

It uses only names that older kernels have too, so pointing ``PYTHONPATH``
at another checkout's ``src`` times that kernel on the same inputs.
"""

import pytest

from fatpoints import linalg
from fatpoints.hilbert import conditions_matrix
from fatpoints.kconfig import KType, fatten, generate_generic, generate_with_line_count

# The first elimination prime of ``linalg``, spelled out so that kernels
# without ``_ELIM_PRIMES`` are timed modulo the same prime.
P = 1048573

LADDER = [((1, 2, 3), 4), ((1, 2, 3, 4), 5), ((1, 2, 3, 4, 5), 6),
          ((1, 3, 4, 5), 3), ((3, 5, 7, 9), 3)]

# (s, r, m, t): the family matrices that ``linalg.rank`` eliminates
FAMILY = [(5, 5, 6, 21), (6, 5, 7, 36)]


def _cases():
    for dvec, m in LADDER:
        z = fatten(generate_generic(KType(dvec), seed=0, bound=50), m)
        t_star = m * dvec[-1] - 1
        for t in (t_star - 1, t_star):
            yield pytest.param(z, t, id=f"{dvec}/{m}@{t}")
    for s, r, m, t in FAMILY:
        z = fatten(generate_with_line_count(s, r, seed=0, bound=20), m)
        yield pytest.param(z, t, id=f"family s={s} r={r}/{m}@{t}")


@pytest.mark.parametrize("z, t", list(_cases()))
def test_modp_eliminate(benchmark, z, t):
    A = conditions_matrix(z, t).mod(P)
    rp, piv_rows, piv_cols = benchmark(linalg._modp_eliminate, A, P)
    assert rp == len(piv_rows) == len(piv_cols) <= min(A.shape)
