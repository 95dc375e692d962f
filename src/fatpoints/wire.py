"""The JSON wire format: every JSON byte the package reads or writes, as
UTF-8 JSON of these shapes.

- integer: a JSON integer, or a string of ASCII digits after an optional
  ``-`` (:func:`json_int`), the syntax of the CLI's integer arguments too.
- triple: an array of three integers, a point's coordinates or a line's
  coefficients, written as decimal strings and read into canonical form.
- configuration: ``{"type": [d_1, ..., d_s], "subsets": [[triple, ...],
  ...], "lines": [triple, ...]}``, the type written as JSON integers.
- scheme: ``{"points": [triple, ...], "mults": [integer, ...]}``, by position.
- line list: an array of triples (``--lines``, ``count-lines``'s ``"lines"``).
- report: a report dataclass is an object with one key per field, named
  after the field except ``ktype`` (``"type"``) and ``delta_value``
  (``"delta"``); nested dataclasses are objects, tuples and lists arrays,
  map keys strings.  Printed indented by two spaces, keys sorted.
- config id: the first 12 hex digits of the SHA-256 of a configuration's
  JSON with sorted keys and the default separators.
- refusal: a reader meets any other shape, or a file nested past the
  decoder's recursion limit, with a ValueError naming what it expected.
"""

from __future__ import annotations

import dataclasses
import json

from .geom import ProjLine, ProjPoint
from .kconfig import KConfiguration, KType
from .scheme import FatPointScheme

# The interpreter's built-in SHA-256: hashlib would load OpenSSL's libcrypto.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # a build without the built-in SHA-2 module
        from hashlib import sha256


def load(path: str):
    """The JSON value of the file; ValueError also for one nested too deeply."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def json_int(value) -> int:
    """A JSON integer, or a string of ASCII digits after an optional ``-``;
    ``int`` alone would also read "1_0", " 1 ", "+1" and non-ASCII digits."""
    if isinstance(value, str):
        digits = value.removeprefix("-")
        if digits.isascii() and digits.isdigit():
            return int(value)
    elif isinstance(value, int) and not isinstance(value, bool):  # JSON true is not 1
        return value
    raise ValueError(f"expected an integer, got {value!r}")


def _array(data, what: str) -> list:
    """``data`` if it is a JSON array, else ValueError naming ``what``."""
    if not isinstance(data, list):
        raise ValueError(f"expected {what} as a JSON array, got {data!r}")
    return data


def _field(data, key: str) -> list:
    """The array under ``key`` of a JSON object, else ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with {key!r}, got {data!r}")
    if key not in data:
        raise ValueError(f"missing key {key!r} in the JSON object")
    return _array(data[key], repr(key))


def _triple(cls, data):
    """The :class:`ProjPoint` or :class:`ProjLine` ``cls`` of a triple."""
    if not isinstance(data, (list, tuple)) or len(data) != 3:
        raise ValueError(f"expected a triple of integers, got {data!r}")
    return cls(tuple(json_int(v) for v in data))


def kconfig_from_json(data: dict) -> KConfiguration:
    ktype = KType(json_int(v) for v in _field(data, "type"))
    subsets = tuple(
        tuple(_triple(ProjPoint, p) for p in _array(sub, "a subset"))
        for sub in _field(data, "subsets")
    )
    lines = tuple(_triple(ProjLine, l) for l in _field(data, "lines"))
    return KConfiguration(ktype, subsets, lines)


def scheme_from_json(data: dict) -> FatPointScheme:
    points = [_triple(ProjPoint, t) for t in _field(data, "points")]
    mults = [json_int(m) for m in _field(data, "mults")]
    return FatPointScheme.from_points(points, mults)


def lines_from_json(data) -> list[ProjLine]:
    return [_triple(ProjLine, t) for t in _array(data, "lines")]


def triple_to_json(triple) -> list[str]:
    return [str(v) for v in triple]


def lines_to_json(lines) -> list[list[str]]:
    return [triple_to_json(l) for l in lines]


def kconfig_to_json(x: KConfiguration) -> dict:
    return {
        "type": list(x.ktype),
        "subsets": [[triple_to_json(p) for p in sub] for sub in x.subsets],
        "lines": lines_to_json(x.lines),
    }


def config_id(x: KConfiguration) -> str:
    """The id reports carry: the CLI digests and ``perfbench/expected.json`` pin it."""
    payload = json.dumps(kconfig_to_json(x), sort_keys=True)
    return sha256(payload.encode()).hexdigest()[:12]


_KEYS = {"ktype": "type", "delta_value": "delta"}  # keys other than the field name


def _wire(value):
    """``value`` as JSON data: dataclass fields in declaration order under
    their :data:`_KEYS` names, tuples as lists, map keys as strings."""
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [v if isinstance(v, int) else _wire(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _wire(v) for k, v in value.items()}
    return {
        _KEYS.get(f.name, f.name): _wire(getattr(value, f.name))
        for f in dataclasses.fields(value)
    }


def dumps(value) -> str:
    """The printed JSON of ``value``: a report dataclass, a list of them or
    JSON-ready data such as :func:`kconfig_to_json`, indented, keys sorted."""
    return json.dumps(_wire(value), indent=2, sort_keys=True)
