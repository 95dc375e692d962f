"""Spans around the public functions of ``fatpoints``, recorded from outside.

``Tracer.install`` replaces each function named in ``LAYERS`` by a wrapper
in every ``fatpoints`` module that holds it, so calls that go through a
module global (``linalg.rank`` inside ``hilbert``) or through a name
imported with ``from ... import`` (``count_lines`` inside ``verify``)
are both seen.  Spans stay in memory; ``layer_metrics`` turns them into
the per-layer numbers and ``self_times`` into each layer's self time.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# Rank calls on more cells than this count as large.  A literal, not an
# import of the package's own threshold, so moving that threshold moves
# no bucket.
LARGE_CELLS = 4200

# (layer, module, function)
LAYERS = (
    ("cli.main", "cli", "main"),
    ("verify.verify_main", "verify", "verify_main"),
    ("verify.hilbert_family", "verify", "hilbert_family"),
    ("hilbert.hilbert_table", "hilbert", "hilbert_table"),
    ("hilbert.regularity_index", "hilbert", "regularity_index"),
    ("hilbert.hilbert_value", "hilbert", "hilbert_value"),
    ("hilbert.conditions_matrix", "hilbert", "conditions_matrix"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.bareiss_rank", "linalg", "bareiss_rank"),
    ("linalg.has_full_row_rank", "linalg", "has_full_row_rank"),
    ("kconfig.generate", "kconfig", "generate_generic"),
    ("kconfig.generate", "kconfig", "generate_with_line_count"),
    ("kconfig.count_lines", "kconfig", "count_lines"),
    ("cht.F_upper", "cht", "F_upper"),
    ("scheme.reduction_vector", "scheme", "reduction_vector"),
)
ANNOTATE = "trace.annotate"


def _shape(rows):
    return len(rows), (len(rows[0]) if rows else 0)


def _note_rank(tracer, span, args, result):
    span["rows"], span["cols"] = _shape(args[0])
    span["result"] = result


def _note_bareiss(tracer, span, args, result):
    span["rows"], span["cols"] = _shape(args[0])


def _note_full_row_rank(tracer, span, args, result):
    span["result"] = bool(result)


def _note_matrix(tracer, span, args, result):
    span["cells"] = sum(len(row) for row in result)
    biggest = max((max(max(row), -min(row)) for row in result if row), default=0)
    span["max_bits"] = int(biggest).bit_length()


def _note_value(tracer, span, args, result):
    key = (span["cmd"], args[0], args[1])
    span["dup"] = key in tracer.seen
    tracer.seen.add(key)


NOTES = {
    "linalg.rank": _note_rank,
    "linalg.bareiss_rank": _note_bareiss,
    "linalg.has_full_row_rank": _note_full_row_rank,
    "hilbert.conditions_matrix": _note_matrix,
    "hilbert.hilbert_value": _note_value,
}


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, command."""

    def __init__(self):
        self.spans: list[dict] = []
        self.seen: set = set()
        self.command = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "cmd": self.command,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()

    @contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, layer: str, func):
        tracer = self
        note = NOTES.get(layer)

        @wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer._open(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                # Annotating costs time inside the caller's span; give that
                # time a span of its own so no layer's self time absorbs it.
                with tracer.region(ANNOTATE):
                    note(tracer, span, list(args) + list(kwargs.values()), result)
            return result

        return wrapper

    def install(self, package) -> None:
        prefix = package.__name__
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        for layer, modname, fname in LAYERS:
            original = getattr(sys.modules[f"{prefix}.{modname}"], fname)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [_duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= _duration(s)
    return out


def layer_table(spans: list[dict]) -> list[dict]:
    """Per layer: calls, inclusive seconds, self seconds; largest self first."""
    rows: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = rows.setdefault(s["name"], {"layer": s["name"], "calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += _duration(s)
        row["self_s"] += own
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def layer_metrics(spans: list[dict], pass_cmds: set) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(items):
        return sum(_duration(s) for s in items)

    def frac(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}

    ranks = named("linalg.rank")
    buckets = {k: [] for k in ("large_deficient", "large_full", "small_full", "small_deficient")}
    for s in ranks:
        size = "large" if s["rows"] * s["cols"] > LARGE_CELLS else "small"
        full = "full" if s["result"] >= min(s["rows"], s["cols"]) else "deficient"
        buckets[f"{size}_{full}"].append(s)
    for bucket, items in buckets.items():
        m[f"linalg.rank.{bucket}.calls"] = (len(items), "count")
        m[f"linalg.rank.{bucket}.s"] = (total(items), "s")
    m["linalg.rank.calls"] = (len(ranks), "count")
    m["linalg.rank.s"] = (total(ranks), "s")

    bareiss = named("linalg.bareiss_rank")
    m["linalg.bareiss_rank.calls"] = (len(bareiss), "count")
    m["linalg.bareiss_rank.s"] = (total(bareiss), "s")
    m["linalg.bareiss_rank.large_calls"] = (
        sum(1 for s in bareiss if s["rows"] * s["cols"] > LARGE_CELLS), "count")
    in_rank = [s for s in bareiss
               if s["parent"] is not None and spans[s["parent"]]["name"] == "linalg.rank"]
    m["linalg.modp_cert_s"] = (m["linalg.rank.s"][0] - total(in_rank), "s")

    probes = named("linalg.has_full_row_rank")
    m["linalg.has_full_row_rank.calls"] = (len(probes), "count")
    m["linalg.has_full_row_rank.s"] = (total(probes), "s")
    m["linalg.has_full_row_rank.hit_frac"] = (
        frac(sum(1 for s in probes if s["result"]), len(probes)), "ratio")

    mats = named("hilbert.conditions_matrix")
    m["hilbert.conditions_matrix.calls"] = (len(mats), "count")
    m["hilbert.conditions_matrix.s"] = (total(mats), "s")
    m["hilbert.conditions_matrix.cells"] = (sum(s["cells"] for s in mats), "count")
    m["hilbert.conditions_matrix.max_bits"] = (max((s["max_bits"] for s in mats), default=0), "bits")

    values = named("hilbert.hilbert_value")
    dups = [s for s in values if s["dup"]]
    m["hilbert.hilbert_value.calls"] = (len(values), "count")
    m["hilbert.hilbert_value.s"] = (total(values), "s")
    m["hilbert.hilbert_value.dup_calls"] = (len(dups), "count")
    m["hilbert.hilbert_value.dup_s"] = (total(dups), "s")

    for layer in ("hilbert.regularity_index", "kconfig.generate", "kconfig.count_lines"):
        items = named(layer)
        m[f"{layer}.calls"] = (len(items), "count")
        m[f"{layer}.s"] = (total(items), "s")
    for layer in ("cht.F_upper", "scheme.reduction_vector"):
        m[f"{layer}.calls"] = (len(named(layer)), "count")

    mains = [s for s in named("cli.main") if s["cmd"] in pass_cmds]
    checks = [s for s in spans if s["cmd"] in pass_cmds
              and s["name"] in ("verify.verify_main", "verify.hilbert_family")]
    m["cli.overhead_s"] = (total(mains) - total(checks), "s")

    selfs = self_times(spans)
    for layer in ("hilbert.conditions_matrix", "hilbert.hilbert_value", "linalg.rank",
                  "linalg.bareiss_rank", "linalg.has_full_row_rank", "cli.main",
                  ANNOTATE):
        m[f"{layer}.self_s"] = (
            sum(own for s, own in zip(spans, selfs) if s["name"] == layer), "s")
    return m
