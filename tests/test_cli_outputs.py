"""Golden outputs: the exit code and stdout of a fixed set of commands.

Each command runs through ``cli.main`` in both formats, text and JSON; the
sha256 of ``"<exit code>\\n<stdout>"`` must equal the digest recorded for
it, so any change to a report's text or JSON keys shows here.  The set
covers every report-printing subcommand, including ``family --s 2``, whose
report has a non-empty ``infeasible`` map.
"""

import hashlib
import json

import pytest

from corpus import (
    config_123_one, config_123_star, config_1234, config_1345, scheme_to_json,
)
from fatpoints.cli import main
from fatpoints.kconfig import fatten, kconfig_to_json

CONFIGS = {
    "a": config_123_one,
    "b": config_1345,
    "c": config_1234,
    "s": config_123_star,
}

COMMANDS = (
    "hilbert --config a --m 2 --t-max 6",
    "hilbert --config b --m 1 --t-max 5",
    "hilbert --scheme za --t-max 7",
    "bounds --config a --m 2 --t 4",
    "bounds --config s --m 3 --strategy star --t 7",
    "bounds --config c --m 2 --strategy augmented --t 6",
    "count-lines --config a",
    "count-lines --config b --k 2",
    "verify --config a --m-sweep 1:4 --ri",
    "verify --config b --m-sweep 1:3 --ri",
    "verify --config c --m 2",
    "reduce --config a --m 2",
    "reduce --config s --m 2 --strategy star",
    "reduce --config c --m 2 --strategy augmented",
    "family --s 2 --m 3 --seed 0 --coord-bound 20",
    "family --s 3 --m 4 --seed 1 --coord-bound 20",
)
FORMATS = ("text", "json")

# Recorded at 9aa0729, where each report dataclass still wrote its own JSON.
DIGESTS = {
    "hilbert --config a --m 2 --t-max 6 --format text":
        "f7d99f6cfc9a15ff693408e085571c2613e7f0c8436f6f3096d75bbfd5d18685",
    "hilbert --config a --m 2 --t-max 6 --format json":
        "bd68f0348707cbb54d0c87609924665270210570ecbfded90181d817fee06522",
    "hilbert --config b --m 1 --t-max 5 --format text":
        "bccad37326c8e31c15c3a07dfe2f238431197bd5525e1fe3843d417d832c3955",
    "hilbert --config b --m 1 --t-max 5 --format json":
        "f8c0e3e49715b8e705f75cee08c9a7be8276339976bc30c89815237156704370",
    "hilbert --scheme za --t-max 7 --format text":
        "53743d6a924a16b03070b738902abb314694c9f2b8da29cee2035005882f43ce",
    "hilbert --scheme za --t-max 7 --format json":
        "3c08474593d84add06931522b79bb09790164f111855b0e0f8cfb97ded7683d4",
    "bounds --config a --m 2 --t 4 --format text":
        "b81a09fcbb189ede11000f22cbc5a3b1a90eb3cf3b3c5be1b454e0273b5c7ee3",
    "bounds --config a --m 2 --t 4 --format json":
        "3777a812904e9b16f2d25c3840ccaf59aed81420059123bb73e7f5496443d88d",
    "bounds --config s --m 3 --strategy star --t 7 --format text":
        "d708766aa81c4365e0a2d2efec53151fb2230a18cbe40c6e455d93bdd9eec650",
    "bounds --config s --m 3 --strategy star --t 7 --format json":
        "2ce3144da22c46878f7219377e1ae4053e7195477db519dc54732af5b288e99f",
    "bounds --config c --m 2 --strategy augmented --t 6 --format text":
        "fe24fbbab43a3d927894d44310785c5a8d14338b728640fe44ca95858ed7f8f1",
    "bounds --config c --m 2 --strategy augmented --t 6 --format json":
        "35b2825df5778e69c23124ae1694d39cc9b5724ecc82d41543500392c375f83c",
    "count-lines --config a --format text":
        "0cde25f38b04e759acee5990bf00d3260c2a7dad7ac6f5672d5f26d163cdb9b8",
    "count-lines --config a --format json":
        "664f033144e3c7fa0dec8a9f2e60a3196536297cb93b4492372b9c8678773987",
    "count-lines --config b --k 2 --format text":
        "9d7a019007ffa7dbc2ad2b9ff5e1923660cdeeae2534e75c6c43001a4ab3b81d",
    "count-lines --config b --k 2 --format json":
        "557f8c94e6c99896ade207329b69adbee80d02bb8c30a88aa84636989accc92d",
    "verify --config a --m-sweep 1:4 --ri --format text":
        "ec616adecb53ccb1384c1f5f30111e0a154f3b6791f13ca618e92d2802743d38",
    # Recorded when a JSON sweep became one array of its reports.
    "verify --config a --m-sweep 1:4 --ri --format json":
        "2b23a7bb94b2fbf0f0654adf1ff39384ce40e252927a7b07b350209e8db31125",
    "verify --config b --m-sweep 1:3 --ri --format text":
        "b1b8cbc11ffc801d3f71de5502958d8f13614acc09f04cc6ae9a92b0a269ede7",
    # Recorded when a JSON sweep became one array of its reports.
    "verify --config b --m-sweep 1:3 --ri --format json":
        "1eae471bdf7483b3611a456d7ff1a28da2c5bc9f801b12da03e94d8850b2d7e4",
    "verify --config c --m 2 --format text":
        "74ed9c8e51683d0178eefc889bb04b6f92e659296cdbbba9993e4c4080d0ccb2",
    # Recorded when every report came to carry its regularity index.
    "verify --config c --m 2 --format json":
        "714ac249872a214f98f5892805f3290da149efe7b953a3c900e5ae303ff34ce1",
    "reduce --config a --m 2 --format text":
        "bdb8b488cb9007736e8cbe0acd454bd3c8596533702deb23634243771259efe4",
    "reduce --config a --m 2 --format json":
        "0dc05c3a654ec29c8cb91e67bf4a07ef390fac3cb288e93920ec25e4eb6b2557",
    "reduce --config s --m 2 --strategy star --format text":
        "dc073bddcdfa1573323ba00db3b0def6799bfe1944de277c11a369ff3b62e4d6",
    "reduce --config s --m 2 --strategy star --format json":
        "2017a4bc1694e31ae4b0e72e05b0dc6489255211abb888efb39911fd438681a6",
    # Recorded when the augmented tail became the first line of a fixed
    # pencil through each leftover private point.
    "reduce --config c --m 2 --strategy augmented --format text":
        "9316b8a7539f8abc697c12f93d1841611979a6c831b2347ecdc59e756c083574",
    "reduce --config c --m 2 --strategy augmented --format json":
        "6ca3a88917df406923e02edbfc75418b68950825fc0013fdea3036fd47defdbe",
    "family --s 2 --m 3 --seed 0 --coord-bound 20 --format text":
        "ad46c9a4ae70218369c6d5a39e350c4232f29fdfb3b783a7a6c7cbd3c816cc1b",
    "family --s 2 --m 3 --seed 0 --coord-bound 20 --format json":
        "6a3f7c62266c1ffa04011938f893844f3f82260ae917a845735b29154858a84e",
    "family --s 3 --m 4 --seed 1 --coord-bound 20 --format text":
        "fdafe88d17c4f15b2dceaaaa1cbde742fe85425d8707a54e2589972fdee5ad70",
    "family --s 3 --m 4 --seed 1 --coord-bound 20 --format json":
        "cf0f117a649cd0797e1e3fa3a9a106325c9d15649e43dd2589a9d5c459fcecfb",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, make in CONFIGS.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(kconfig_to_json(make())))
    paths["za"] = root / "za.json"
    paths["za"].write_text(json.dumps(scheme_to_json(fatten(config_123_one(), 3))))
    return {name: str(path) for name, path in paths.items()}


def _run(command, fmt, inputs, capsys):
    argv = [inputs.get(word, word) for word in command.split()]
    rc = main(argv + ["--format", fmt])
    out = capsys.readouterr().out
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_output_is_pinned(command, fmt, inputs, capsys):
    assert _run(command, fmt, inputs, capsys) == DIGESTS[f"{command} --format {fmt}"]
