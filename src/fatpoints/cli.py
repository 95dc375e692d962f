"""Command-line front end.

Subcommands: generate, hilbert, bounds, count-lines, verify, family,
reduce.  Configurations, schemes, ``--lines`` files and JSON reports
follow the wire format of :mod:`fatpoints.wire`, and an integer
argument takes its integer syntax: an optional ``-``, then ASCII digits
(:func:`fatpoints.wire.json_int`).  Reports print as text mirroring the
tabular displays used throughout the package, or as JSON, the one
machine format: a ``verify --m-sweep`` prints one JSON array of its
reports, made in one pass that reads each value of the configuration
alone once.  Every
subcommand is deterministic given its full parameter set; only
``generate`` and ``family`` take a seed.  ``--m`` goes with ``--config``
(default 1); ``--coord-bound`` defaults to 50 for ``generate`` and 20
for ``family``; no environment variable changes either.  Exit status:
0 on success, 1 when a validation or an asserted property fails, 2 on a
usage error, raised before any input file is opened and with nothing on
stdout: an integer in another syntax (``1_0``, ``+3``, ``" 20"``), a
multiplicity below 1 (``--m`` or the low end of
``verify --m-sweep``), ``verify`` with both or neither of ``--m`` and
``--m-sweep``, ``count-lines --k`` below 2 (infinitely many lines meet
the points in one point or none), ``hilbert --t-max`` below 0,
``family --s`` below 2, a ``--coord-bound`` below 0, a ``--type`` that
is not increasing positive integers, ``generate --r`` on a type other
than (1, ..., s) with s >= 2 or outside 1 .. s + 1, ``--m`` with
``--scheme``, ``--strategy`` with ``--lines``, or ``bounds``/``reduce
--scheme`` without ``--lines`` (a scheme has no defining lines to peel).
``verify --ri`` is accepted and ignored: every report carries ``ri``,
and the benchmark's ``perfbench/workloads.py`` still passes the flag.

The package raises four error types, one per decision a caller makes:
``ValueError`` for bad input, ``kconfig.GenerationFailed`` when the
sampler gives up, ``kconfig.InfeasibleLineCount`` (a ``ValueError``) when
no configuration of the requested line count exists, and
``AssertionError`` when a proven bound is broken, a bug in the package.
The first three, and an ``OSError`` on a file, print one
``error: <message>`` line to stderr and exit 1 with nothing on stdout;
an ``AssertionError`` is not caught and ends in a traceback.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import cht, hilbert, kconfig, verify, wire
from .scheme import residual_chain, vector_of_chain
from .wire import json_int


def _emit(args, report, text: str) -> None:
    """Print ``report`` as JSON (:func:`wire.dumps`) under ``--format json``,
    else its text rendering ``text``."""
    if args.format == "json":
        print(wire.dumps(report))
    else:
        print(text)


def _ktype(text: str) -> kconfig.KType:
    """An argparse type for a type such as ``1,2,3`` (commas or spaces)."""
    try:
        return kconfig.KType(json_int(v) for v in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a type such as 1,2,3, got {text!r}") from None


def _load_config(args) -> kconfig.KConfiguration:
    x = wire.kconfig_from_json(wire.load(args.config))
    problems = kconfig.validate(x)
    if problems:
        for p in problems:
            print(f"invalid configuration: {p}", file=sys.stderr)
        raise SystemExit(1)
    return x


def _inputs(args, peel: bool = False):
    """The scheme of ``--config``/``--m`` or ``--scheme`` and, if ``peel``,
    its lines: ``--lines``, or ``--strategy`` on the configuration, which is
    loaded and validated once.  Flag clashes exit before any file is read."""
    if args.scheme and args.m is not None:
        args.usage_error("argument --m: not allowed with argument --scheme")
    if peel and args.scheme and not args.lines:
        args.usage_error("argument --scheme: needs --lines (a scheme has no lines to peel)")
    m = args.m or 1
    if args.scheme:
        z = wire.scheme_from_json(wire.load(args.scheme))
    else:
        x = _load_config(args)
        z = kconfig.fatten(x, m)
    if not peel:
        return z, None
    if args.lines:
        return z, wire.lines_from_json(wire.load(args.lines))
    return z, cht.peeling_sequence(x, m, args.strategy or cht.REPEAT_DESCENDING)


def cmd_generate(args) -> int:
    s = args.type.s
    if args.r is None:
        x = kconfig.generate_generic(args.type, args.seed, args.coord_bound)
    elif args.type != tuple(range(1, s + 1)) or s < 2:
        args.usage_error("argument --r: applies to --type 1,2,...,s with s >= 2 only")
    elif not 1 <= args.r <= s + 1:
        args.usage_error(f"argument --r: expected 1 .. {s + 1} for this --type, got {args.r}")
    else:
        x = kconfig.generate_with_line_count(s, args.r, args.seed, args.coord_bound)
    text = wire.dumps(wire.kconfig_to_json(x))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_hilbert(args) -> int:
    z, _ = _inputs(args)
    table = hilbert.hilbert_table(z, args.t_max)
    text = " ".join(str(v) for v in table.values)
    if table.stabilized_at is not None:
        text += " →"
    _emit(args, table, text)
    return 0


def cmd_bounds(args) -> int:
    z, lines = _inputs(args, peel=True)
    report = cht.bound_check(z, lines, args.t)
    text = (
        f"t={report.t} f={report.f_lower} F={report.F_upper} "
        f"H={report.exact}{' tight' if report.tight else ''}"
    )
    _emit(args, report, text)
    return 0


def cmd_count_lines(args) -> int:
    x = _load_config(args)
    k = args.k if args.k is not None else x.ktype.ds
    lines = kconfig.count_lines(x, k)
    payload = {"k": k, "count": len(lines), "lines": wire.lines_to_json(lines)}
    text = f"{len(lines)} line(s) with exactly {k} points"
    _emit(args, payload, text)
    return 0


def cmd_verify(args) -> int:
    ms = [args.m] if args.m_sweep is None else args.m_sweep
    reports = verify.verify_main(_load_config(args), ms)
    lines = []
    for m, report in zip(ms, reports):
        verdict = "MATCH" if report.matches else "MISMATCH"
        note = "" if report.asserted else " (informational: m below threshold)"
        lines.append(
            f"m={m} delta={report.delta_value} lines={report.line_count} {verdict}{note}"
        )
    _emit(args, reports if args.m_sweep else reports[0], "\n".join(lines))
    return int(any(report.asserted and not report.matches for report in reports))


def _sweep(text: str) -> list[int]:
    """The multiplicities of a nonempty range lo:hi of ASCII digits, lo >= 1."""
    lo, _, hi = text.partition(":")
    if not (text.isascii() and lo.isdigit() and hi.isdigit() and 1 <= int(lo) <= int(hi)):
        raise argparse.ArgumentTypeError(
            f"expected a nonempty range lo:hi with lo >= 1, got {text!r}"
        )
    return list(range(int(lo), int(hi) + 1))


def _integer(low: int | None = None):
    """An argparse type for an integer in the JSON wire syntax
    (:func:`~fatpoints.wire.json_int`), at least ``low`` when given."""
    wanted = "an integer" if low is None else f"an integer >= {low}"

    def parse(text: str) -> int:
        try:
            value = json_int(text)
        except ValueError:
            value = None
        if value is None or low is not None and value < low:
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value

    return parse


def cmd_family(args) -> int:
    report = verify.hilbert_family(args.s, args.m, args.seed, args.coord_bound)
    lines = [
        f"r={mem.r} H_mX: " + " ".join(str(v) for v in mem.fat_values)
        for mem in report.members
    ]
    for r, reason in sorted(report.infeasible.items()):
        lines.append(f"r={r} infeasible: {reason}")
    lines.append(
        "supports_ok={} probe_ok={} pairwise_distinct={}".format(
            report.supports_ok, report.probe_ok, report.pairwise_distinct
        )
    )
    _emit(args, report, "\n".join(lines))
    return 0 if report.ok else 1


def cmd_reduce(args) -> int:
    z, lines = _inputs(args, peel=True)
    chain = residual_chain(z, lines)
    v = vector_of_chain(chain, lines)
    steps = []
    for step, scheme in enumerate(chain):
        entry = {
            "step": step,
            "line": wire.triple_to_json(lines[step - 1]) if step else None,
            "removed": v.values[step - 1] if step else None,
            "points": {
                "(" + ":".join(map(str, p)) + ")": m
                for p, m in scheme
            },
        }
        steps.append(entry)
    payload = {
        "reduction_vector": list(v.values),
        "complete": v.complete,
        "chain": steps,
    }
    text_lines = [f"v = {tuple(v.values)}  complete = {v.complete}"]
    for entry in steps:
        head = (
            f"step {entry['step']}"
            if entry["line"] is None
            else f"step {entry['step']} after line ({','.join(entry['line'])}), removed {entry['removed']}"
        )
        body = "  ".join(f"{pt}:{m}" for pt, m in sorted(entry["points"].items()))
        text_lines.append(head + ("  " + body if body else "  (empty)"))
    _emit(args, payload, "\n".join(text_lines))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: its defaults are
    constants and read no environment.  A flag that several commands share
    is declared once, in a parent parser; ``usage_error`` is the command's
    own ``parser.error``, for the clashes argparse cannot see."""
    parser = argparse.ArgumentParser(
        prog="fatpoints",
        description="Exact fat-point Hilbert functions on plane configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parent = functools.partial(argparse.ArgumentParser, add_help=False)

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(func=func, usage_error=p.error)
        return p

    fmt = parent()
    fmt.add_argument("--format", choices=["text", "json"], default="text")
    config = parent()
    config.add_argument("--config", required=True)
    source = parent()
    src = source.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="k-configuration JSON file")
    src.add_argument("--scheme", help="fat point scheme JSON file")
    source.add_argument("--m", type=_integer(1), help="multiplicity (with --config, default 1)")
    peel = parent()
    seq = peel.add_mutually_exclusive_group()
    seq.add_argument("--lines", help="JSON file with a line sequence")
    seq.add_argument("--strategy", choices=cht.STRATEGIES, help="default repeat")

    g = command("generate", cmd_generate, "emit a seeded random configuration")
    g.add_argument("--type", type=_ktype, required=True, help="comma-separated type, e.g. 1,2,3")
    g.add_argument("--r", type=_integer(), help="exact number of maximal lines (types (1,...,s) only)")
    g.add_argument("--seed", type=_integer(), default=0)
    g.add_argument("--coord-bound", type=_integer(0), default=50)
    g.add_argument("--output", "-o", default=None)

    h = command("hilbert", cmd_hilbert, "Hilbert table of a scheme", fmt, source)
    h.add_argument("--t-max", type=_integer(0), required=True)

    b = command("bounds", cmd_bounds, "reduction-vector bounds vs the exact value",
                fmt, source, peel)
    b.add_argument("--t", type=_integer(), required=True)

    c = command("count-lines", cmd_count_lines,
                "count lines through exactly --k points (default d_s)", fmt, config)
    c.add_argument("--k", type=_integer(2), help="points on a line, at least 2")

    v = command("verify", cmd_verify, "first difference vs line count", fmt, config)
    ms = v.add_mutually_exclusive_group(required=True)
    ms.add_argument("--m", type=_integer(1))
    ms.add_argument("--m-sweep", type=_sweep, help="inclusive range lo:hi")
    v.add_argument("--ri", action="store_true", help="ignored: ri is always reported")

    f = command("family", cmd_family, "Hilbert functions across feasible line counts", fmt)
    f.add_argument("--s", type=_integer(2), required=True)
    f.add_argument("--m", type=_integer(1), required=True)
    f.add_argument("--seed", type=_integer(), default=0)
    f.add_argument("--coord-bound", type=_integer(0), default=20)

    command("reduce", cmd_reduce, "print the full residual chain", fmt, source, peel)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, kconfig.GenerationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

