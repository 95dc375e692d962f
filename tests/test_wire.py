"""The JSON wire format of ``fatpoints.wire``: round trips and the config id."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from corpus import LADDER, config_1345, full_corpus, scheme_to_json
from fatpoints.geom import ProjLine, ProjPoint
from fatpoints.kconfig import KType, fatten, generate_generic
from fatpoints.wire import (
    _triple,
    config_id,
    kconfig_from_json,
    kconfig_to_json,
    lines_from_json,
    scheme_from_json,
    triple_to_json,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_triple_round_trip():
    p = ProjPoint((10**40, -3, 7))
    data = triple_to_json(p)
    assert data == [str(10**40), "-3", "7"]
    assert _triple(ProjPoint, data) == p
    l = ProjLine((0, -6, 4))
    assert _triple(ProjLine, triple_to_json(l)) == l
    # non-canonical input is canonicalized on read
    assert _triple(ProjPoint, ["2", "4", "6"]) == ProjPoint((1, 2, 3))
    assert _triple(ProjLine, [0, -6, 4]) == ProjLine((0, 3, -2))


def test_kconfig_round_trip():
    for x, _, _ in full_corpus():
        data = kconfig_to_json(x)
        assert kconfig_from_json(data) == x


def test_scheme_round_trip():
    x = config_1345()
    z = fatten(x, 2)
    data = scheme_to_json(z)
    assert scheme_from_json(data) == z
    lines = lines_from_json([["0", "1", "0"], [1, -1, 0]])
    assert lines == [ProjLine((0, 1, 0)), ProjLine((1, -1, 0))]


def _ladder_json():
    return [kconfig_to_json(generate_generic(KType(dvec), seed=0, bound=50))
            for dvec, _ in LADDER]


def _hashlib_id(data) -> str:
    payload = json.dumps(data, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def test_config_id_is_hashlib_sha256():
    for data in _ladder_json():
        assert config_id(kconfig_from_json(data)) == _hashlib_id(data)


_NO_BUILTIN_SHA2 = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from fatpoints import wire

ids = [wire.config_id(wire.kconfig_from_json(d)) for d in json.load(sys.stdin)]
print(json.dumps({"ids": ids, "hashlib": wire.sha256 is hashlib.sha256}))
"""


def test_config_id_without_builtin_sha2():
    # a CPython build without the built-in SHA-2 module hashes through hashlib
    data = _ladder_json()
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-c", _NO_BUILTIN_SHA2], input=json.dumps(data),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"ids": [_hashlib_id(d) for d in data], "hashlib": True}
