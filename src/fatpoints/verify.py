"""Quantitative verification of line-count identities on configurations.

The central check: for a configuration of type (d_1, ..., d_s) other
than a single point, the first difference of the Hilbert function of the
multiplicity-m scheme at degree m*d_s - 1 equals the number of lines
meeting the configuration in exactly d_s points, once m reaches the
threshold m0 (2 when d_s > s, s + 1 when d_s = s).  Below the threshold
the identity can fail and reports record the mismatch without asserting.

The paper's companion statements are read off the fields of the same
:class:`VerificationReport`:

- the regularity index of mX is m*d_s - 1: ``ri`` equals t* = m*d_s - 1;
- when ``ri`` equals t*, H(t*) = deg, so ``delta_value`` is the last
  nonzero first difference, and it equals ``line_count``;
- the reduced-scheme bound: ``reduced_delta``, the first difference of the
  support's Hilbert function at d_s - 1, equals the tail length of the
  type, and ``line_count`` is at most ``reduced_delta`` + 1.  It is the
  m = 1 ``delta_value``, H_X(d_s - 1) - H_X(d_s - 2), read from the same
  routine.  A sweep over m reads it, and every value of X alone, once.

Also covered: the family of pairwise distinct Hilbert functions obtained
by sweeping the feasible maximal-line counts for type (1, ..., s).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from math import comb

from . import hilbert, kconfig
from .kconfig import InfeasibleLineCount, KConfiguration, KType, count_lines, fatten

# The interpreter's built-in SHA-256: hashlib would load OpenSSL's libcrypto.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # a build without the built-in SHA-2 module
        from hashlib import sha256


def m0(ktype: KType) -> int:
    """Threshold multiplicity: 2 when d_s > s, s + 1 when d_s = s."""
    if ktype.is_single_point():
        raise ValueError("no threshold for a single point")
    return 2 if ktype.ds > ktype.s else ktype.s + 1


def config_id(x: KConfiguration) -> str:
    """The first 12 hex digits of the SHA-256 of the sorted-key JSON of
    :func:`kconfig.kconfig_to_json`.  Reports carry it, so the CLI output
    digests of the test suite and ``perfbench/expected.json`` pin it."""
    payload = json.dumps(kconfig.kconfig_to_json(x), sort_keys=True)
    return sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class VerificationReport:
    config_id: str
    ktype: tuple[int, ...]
    m: int
    delta_value: int
    line_count: int
    m0: int
    matches: bool
    asserted: bool
    reduced_delta: int
    ri: int


def _top_difference(x: KConfiguration, m: int) -> tuple[int, int]:
    """The first difference of H_mX at t* = m*d_s - 1, and ri of mX.

    The walk for ri starts at its floor t*, so when ri <= t* the
    H(t*) = deg it read is not computed again; H(t* - 1) is the one
    other value read.  At m = 1 this is the support's first difference
    H_X(d_s - 1) - H_X(d_s - 2).
    """
    z = fatten(x, m)
    t_star = m * x.ktype.ds - 1
    ri = hilbert.regularity_index(z)
    upper = z.degree() if ri <= t_star else hilbert.hilbert_value(z, t_star)
    return upper - hilbert.hilbert_value(z, t_star - 1), ri


def verify_main(x: KConfiguration, ms: Sequence[int]) -> list[VerificationReport]:
    """Compare the first difference at m*d_s - 1 with the line count.

    One report per m of ``ms``, in order.  The match is asserted by callers
    only when m >= m0; below that the report is informational (the identity
    genuinely fails for some configurations there).

    The config id, line count and m0 depend on X alone and are read once.
    The difference routine runs once per distinct m of ``ms``, in order,
    then at m = 1 if ``ms`` lacks it: ``reduced_delta`` is its m = 1
    ``delta_value``, H_X(d_s - 1) - H_X(d_s - 2).  The values come from
    :func:`hilbert.hilbert_value`, which rests on the Cooper-Harbourne-Teitler
    bounds f_v <= H <= F_v of the scheme's greedy reduction vector, or on a
    conditions-matrix rank where they differ, and the line count on
    :func:`kconfig.count_lines`; never on the identity being checked.
    """
    if x.ktype.is_single_point():
        raise ValueError("verification needs at least two points")
    tops = {m: _top_difference(x, m) for m in dict.fromkeys((*ms, 1))}
    ident, count, threshold = config_id(x), len(count_lines(x, x.ktype.ds)), m0(x.ktype)
    return [
        VerificationReport(
            config_id=ident,
            ktype=x.ktype,
            m=m,
            delta_value=tops[m][0],
            line_count=count,
            m0=threshold,
            matches=tops[m][0] == count,
            asserted=m >= threshold,
            reduced_delta=tops[1][0],
            ri=tops[m][1],
        )
        for m in ms
    ]


@dataclass(frozen=True)
class FamilyMember:
    r: int
    config_id: str
    support_values: tuple[int, ...]
    fat_values: tuple[int, ...]
    value_at_probe: int
    degree: int


@dataclass(frozen=True)
class FamilyReport:
    s: int
    m: int
    members: tuple[FamilyMember, ...]
    infeasible: dict[int, str]
    supports_ok: bool
    probe_ok: bool
    pairwise_distinct: bool

    @property
    def ok(self) -> bool:
        return self.supports_ok and self.probe_ok and self.pairwise_distinct


def hilbert_family(s: int, m: int, seed: int, bound: int) -> FamilyReport:
    """One configuration per feasible maximal-line count r = 1 .. s+1, in r order.

    Checks that all supports share the Hilbert function
    min(C(t+2,2), C(s+1,2)), that the multiplicity-m values at m*s - 2
    equal deg - r, and that the resulting Hilbert functions are pairwise
    distinct.  For s = 2 only r = 3 is feasible (see the generator), so
    that family is a singleton; infeasible counts keep the reason.
    """
    if s < 2:
        raise ValueError("need s >= 2")
    if m < s + 1:
        raise ValueError("the family statement needs m >= s + 1")
    members = []
    infeasible: dict[int, str] = {}
    probe_t = m * s - 2
    t_max = m * s - 1
    support_cap = comb(s + 1, 2)
    expected_support = tuple(
        min(comb(t + 2, 2), support_cap) for t in range(s + 1)
    )
    for r in range(1, s + 2):
        try:
            x = kconfig.generate_with_line_count(s, r, seed, bound)
        except InfeasibleLineCount as exc:
            infeasible[r] = str(exc)
            continue
        support = fatten(x, 1)
        support_tab = hilbert.hilbert_table(support, s)
        z = fatten(x, m)
        fat_tab = hilbert.hilbert_table(z, t_max)
        members.append(
            FamilyMember(
                r=r,
                config_id=config_id(x),
                support_values=support_tab.values,
                fat_values=fat_tab.values,
                value_at_probe=fat_tab.values[probe_t],
                degree=z.degree(),
            )
        )
    supports_ok = all(mem.support_values == expected_support for mem in members)
    probe_ok = all(mem.value_at_probe == mem.degree - mem.r for mem in members)
    seen = {mem.fat_values for mem in members}
    distinct = len(seen) == len(members)
    return FamilyReport(
        s, m, tuple(members), infeasible, supports_ok, probe_ok, distinct
    )
