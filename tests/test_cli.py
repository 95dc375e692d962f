import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import LADDER, config_123_one, config_1234, config_1345, scheme_to_json
from fatpoints.cli import main
from fatpoints.kconfig import KType, generate_generic, kconfig_from_json, kconfig_to_json, validate
from fatpoints.verify import config_id, m0


def _write_config(tmp_path, x, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(kconfig_to_json(x)))
    return str(path)


def test_generate_round_trip(tmp_path, capsys):
    out = tmp_path / "gen.json"
    rc = main(["generate", "--type", "1,2,3", "--seed", "5",
               "--coord-bound", "12", "-o", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    x = kconfig_from_json(data)
    assert validate(x) == []
    # byte-identical reproduction with the same seed
    out2 = tmp_path / "gen2.json"
    main(["generate", "--type", "1,2,3", "--seed", "5",
          "--coord-bound", "12", "-o", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_generate_with_r(tmp_path):
    out = tmp_path / "star.json"
    rc = main(["generate", "--type", "1,2,3", "--r", "4", "--seed", "1",
               "--coord-bound", "12", "-o", str(out)])
    assert rc == 0
    x = kconfig_from_json(json.loads(out.read_text()))
    assert validate(x) == []


def test_hilbert_text_display(tmp_path, capsys):
    cfg = _write_config(tmp_path, config_123_one())
    rc = main(["hilbert", "--config", cfg, "--m", "2", "--t-max", "6"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out == "1 3 6 10 15 18 18 →"
    # the arrow marks a table that reached deg Z = 18; at t <= 4 it has not
    assert main(["hilbert", "--config", cfg, "--m", "2", "--t-max", "4"]) == 0
    assert capsys.readouterr().out == "1 3 6 10 15\n"


def test_hilbert_json_matches_text(tmp_path, capsys):
    cfg = _write_config(tmp_path, config_123_one())
    main(["hilbert", "--config", cfg, "--m", "2", "--t-max", "6",
          "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"] == [1, 3, 6, 10, 15, 18, 18]
    assert payload["stabilized_at"] == 5


def test_bounds_walkthrough(tmp_path, capsys):
    cfg = _write_config(tmp_path, config_1345())
    rc = main(["bounds", "--config", cfg, "--m", "2", "--strategy", "repeat",
               "--t", "8", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"t": 8, "f_lower": 36, "F_upper": 36, "exact": 36,
                       "tight": True}


def test_bounds_text(tmp_path, capsys):
    cfg = _write_config(tmp_path, config_1345())
    main(["bounds", "--config", cfg, "--m", "2", "--t", "8"])
    out = capsys.readouterr().out.strip()
    assert out == "t=8 f=36 F=36 H=36 tight"


def test_count_lines_cmd(tmp_path, capsys):
    cfg = _write_config(tmp_path, config_1345())
    rc = main(["count-lines", "--config", cfg, "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 3 and payload["k"] == 5


@pytest.mark.parametrize("k", ["1", "0", "-1"])
def test_count_lines_k_below_two_is_a_usage_error(k, tmp_path, capsys):
    cfg = _write_config(tmp_path, config_1345())
    with pytest.raises(SystemExit) as err:
        main(["count-lines", "--config", cfg, "--k", k])
    assert err.value.code == 2
    assert "--k" in capsys.readouterr().err


def test_verify_cmd_match(tmp_path, capsys):
    cfg = _write_config(tmp_path, config_1345())
    rc = main(["verify", "--config", cfg, "--m", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta=3" in out and "lines=3" in out and "MATCH" in out


def test_verify_cmd_informational_below_threshold(tmp_path, capsys):
    cfg = _write_config(tmp_path, config_123_one())
    rc = main(["verify", "--config", cfg, "--m", "2"])
    assert rc == 0  # mismatch below the threshold is not an error
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "informational" in out


def test_verify_sweep(tmp_path, capsys):
    cfg = _write_config(tmp_path, config_123_one())
    rc = main(["verify", "--config", cfg, "--m-sweep", "2:4"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3


def test_verify_json_sweep_is_one_array(tmp_path, capsys):
    cfg = _write_config(tmp_path, config_123_one())
    assert main(["verify", "--config", cfg, "--m-sweep", "2:4", "--format", "json"]) == 0
    sweep = json.loads(capsys.readouterr().out)
    assert isinstance(sweep, list) and len(sweep) == 3
    for m, report in zip(range(2, 5), sweep):
        assert main(["verify", "--config", cfg, "--m", str(m), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("dvec", [dvec for dvec, _ in LADDER])
def test_verify_sweep_entries_are_the_single_m_reports(dvec, seed, tmp_path, capsys):
    # one pass over m = 1 .. m0 + 1 reports what one call per m reports
    x = generate_generic(KType(dvec), seed=seed, bound=50)
    cfg = _write_config(tmp_path, x)
    top = m0(x.ktype) + 1
    assert main(["verify", "--config", cfg, "--m-sweep", f"1:{top}", "--format", "json"]) == 0
    sweep = json.loads(capsys.readouterr().out)
    singles = []
    for m in range(1, top + 1):
        assert main(["verify", "--config", cfg, "--m", str(m), "--format", "json"]) == 0
        singles.append(json.loads(capsys.readouterr().out))
    assert sweep == singles


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("ms", [["--m", "4"], ["--m-sweep", "1:4"]])
def test_verify_ri_flag_is_ignored(ms, fmt, tmp_path, capsys):
    # every report carries ri; --ri still parses and changes no byte
    cfg = _write_config(tmp_path, config_123_one())
    outs = []
    for ri in ([], ["--ri"]):
        assert main(["verify", "--config", cfg, *ms, *ri, "--format", fmt]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    if fmt == "json":
        reports = json.loads(outs[0])
        for report in reports if isinstance(reports, list) else [reports]:
            assert report["ri"] == 3 * report["m"] - 1


def test_verify_fails_when_the_identity_fails(tmp_path, capsys, monkeypatch):
    # a line count one too many breaks the asserted identity at m = m0 = 4
    from fatpoints import verify

    real = verify.count_lines
    monkeypatch.setattr(verify, "count_lines", lambda x, k: real(x, k) + [None])
    cfg = _write_config(tmp_path, config_123_one())
    assert main(["verify", "--config", cfg, "--m", "4", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["matches"] is False
    assert main(["verify", "--config", cfg, "--m-sweep", "1:4"]) == 1


def test_family_cmd(capsys):
    rc = main(["family", "--s", "2", "--m", "3", "--seed", "0",
               "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["supports_ok"] and payload["pairwise_distinct"]


def test_reduce_cmd(tmp_path, capsys):
    cfg = _write_config(tmp_path, config_1345())
    rc = main(["reduce", "--config", cfg, "--m", "2", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reduction_vector"] == [10, 9, 8, 3, 3, 3, 2, 1]
    assert payload["complete"]
    assert len(payload["chain"]) == 9
    # the final residual is empty
    assert payload["chain"][-1]["points"] == {}


def test_reduce_text_and_json_agree(tmp_path, capsys):
    cfg = _write_config(tmp_path, config_1234())
    main(["reduce", "--config", cfg, "--m", "2"])
    text = capsys.readouterr().out
    assert "(8, 7, 6, 5, 1, 1, 1, 1)" in text
    assert "complete = True" in text


def _invalid_configs():
    """One violation of each condition that kconfig.validate checks, keyed
    by the message it prints."""
    off, short, twice, repeat, shared = (kconfig_to_json(config_123_one()) for _ in range(5))
    off["subsets"][0] = [["1", "0", "0"]]
    short["subsets"].pop()
    twice["lines"][2] = twice["lines"][1]
    repeat["subsets"][2][1] = repeat["subsets"][2][0]
    shared["subsets"][2][0] = shared["subsets"][1][0]
    return {
        "is off its line": off,
        "expected 3 subsets and lines, got 2 and 3": short,
        "defining lines are not pairwise distinct": twice,
        "subset 3 repeats a point": repeat,
        "subsets are not pairwise disjoint": shared,
    }


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for problem, data in _invalid_configs().items():
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as err:
            main(["count-lines", "--config", str(path)])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert problem in captured.err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["hilbert", "--t-max", "3"])
    assert err.value.code == 2


def test_generate_has_no_format_option(capsys):
    # generate always writes JSON; a --format it would ignore is refused.
    with pytest.raises(SystemExit) as err:
        main(["generate", "--type", "1,2,3", "--format", "json"])
    assert err.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["bounds", "--t", "6"], ["reduce"]], ids=["bounds", "reduce"])
def test_peels_take_no_seed(argv, tmp_path, capsys):
    # the augmented tail is fixed, so a seed would change nothing
    cfg = _write_config(tmp_path, config_1234())
    with pytest.raises(SystemExit) as err:
        main(argv + ["--config", cfg, "--m", "2", "--strategy", "augmented", "--seed", "1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "unrecognized arguments: --seed 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    ["hilbert --config CFG --t-max 3", "bounds --config CFG --t 3", "count-lines --config CFG",
     "verify --config CFG --m 2", "family --s 2 --m 3", "reduce --config CFG"],
    ids=lambda argv: argv.split()[0],
)
def test_csv_is_not_a_format(argv, tmp_path, capsys):
    # JSON is the one machine format
    cfg = _write_config(tmp_path, config_1345())
    with pytest.raises(SystemExit) as err:
        main([cfg if a == "CFG" else a for a in argv.split()] + ["--format", "csv"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "argument --format: invalid choice: 'csv'" in captured.err


def test_generation_failure_is_an_error_not_a_traceback(capsys):
    rc = main(["generate", "--type", "1,2,3,4,5,6,7,8", "--coord-bound", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    # bound 0 draws no line at all; bound 1 has 13 lines, the star needs 14
    ["generate --type 1,2,3 --r 2 --coord-bound 0",
     "family --s 13 --m 14 --coord-bound 1"],
    ids=["no-lines", "too-few-lines"],
)
def test_tiny_coordinate_bound_is_an_error(argv, capsys):
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# nested past the JSON decoder's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command, flag, data",
    [("hilbert", "--scheme", []),
     ("hilbert", "--scheme", {"points": 5, "mults": []}),
     ("count-lines", "--config", {"type": [1, 2], "subsets": 3, "lines": []}),
     ("hilbert", "--scheme", {"points": [["1", "0"]], "mults": [1]}),
     ("hilbert", "--scheme", {"points": [["1", "0", "0"], ["0", "1", "0"]], "mults": [1]}),
     ("verify", "--config", DEEP),
     ("hilbert", "--scheme", DEEP),
     ("reduce", "--lines", DEEP)],
    ids=["scheme-array", "points-number", "subsets-number", "pair", "points-over-mults",
         "deep-config", "deep-scheme", "deep-lines"],
)
def test_malformed_json_is_an_error(command, flag, data, tmp_path, capsys):
    path = tmp_path / "bad.json"
    # a string is the file text as is
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    argv = [command, flag, str(path)]
    if command == "hilbert":
        argv += ["--t-max", "3"]
    elif command == "verify":
        argv += ["--m", "2"]
    elif command == "reduce":  # --lines peels a valid one-point scheme
        scheme = tmp_path / "z.json"
        scheme.write_text(json.dumps({"points": [["1", "0", "0"]], "mults": [1]}))
        argv += ["--scheme", str(scheme)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, data, key",
    [(["verify", "--m", "2", "--config"], {"type": [1, 2]}, "subsets"),
     (["hilbert", "--t-max", "3", "--scheme"], {"points": [["1", "0", "0"]]}, "mults")],
    ids=["config-subsets", "scheme-mults"],
)
def test_missing_json_key_is_named(argv, data, key, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(argv + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: missing key '{key}' in the JSON object\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "data, bad",
    [({"points": [["1", "0", "0"]], "mults": [True]}, True),
     ({"points": [["1", True, "0"]], "mults": ["1"]}, True),
     ({"points": [["1_0", "1", "1"]], "mults": [2]}, "1_0"),
     ({"points": [[" 1 ", "1", "1"]], "mults": [2]}, " 1 "),
     ({"points": [["\u0663", "1", "1"]], "mults": [2]}, "\u0663"),
     ({"points": [["0", "1", "1"]], "mults": ["+1"]}, "+1")],
    ids=["multiplicity", "coordinate", "underscore", "spaces", "arabic-indic-digit",
         "plus-sign"],
)
def test_json_integers_are_ints_or_decimal_strings(data, bad, tmp_path, capsys):
    # ``int`` reads each of these strings; the wire format's decimal strings
    # are ASCII digits after an optional minus sign, and JSON true is not an int.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["hilbert", "--t-max", "3", "--scheme", str(path)]) == 1
    assert capsys.readouterr().err == f"error: expected an integer, got {bad!r}\n"


# The input files of the refusals below, by the name that stands for their
# path in an argv.  TYPE1 is a one-point configuration, which has no line
# through two points; C1345 has d_s > s, and C123_ONE one full line.
_REFUSED_INPUTS = {
    "TWICE": {"points": [["1", "2", "3"], ["2", "4", "6"]], "mults": [1, 2]},
    "MULT0": {"points": [["1", "2", "3"]], "mults": [0]},
    "ZERO_POINT": {"points": [["0", "0", "0"]], "mults": [1]},
    "ZERO_SUBSET": {"type": [1], "subsets": [[["0", "0", "0"]]], "lines": [["1", "0", "0"]]},
    "ZERO_LINE": [["0", "0", "0"]],
    "NO_LINES": [],
    "TYPE1": lambda: kconfig_to_json(generate_generic(KType((1,)), 1, 50)),
    "C1345": lambda: kconfig_to_json(config_1345()),
    "C123_ONE": lambda: kconfig_to_json(config_123_one()),
}


@pytest.mark.parametrize(
    "argv, message",
    [("hilbert --t-max 3 --scheme TWICE", "point ProjPoint((1:2:3)) listed twice"),
     ("hilbert --t-max 3 --scheme MULT0", "multiplicity 0 for ProjPoint((1:2:3))"),
     ("hilbert --t-max 3 --scheme ZERO_POINT", "homogeneous triple must not be (0, 0, 0)"),
     ("count-lines --config ZERO_SUBSET", "homogeneous triple must not be (0, 0, 0)"),
     ("bounds --config C1345 --lines ZERO_LINE --t 2",
      "homogeneous triple must not be (0, 0, 0)"),
     ("bounds --config C1345 --lines NO_LINES --t 2",
      "the supplied line sequence does not reduce the scheme to empty"),
     ("verify --config TYPE1 --m 2", "verification needs at least two points"),
     ("family --s 3 --m 2", "the family statement needs m >= s + 1"),
     ("reduce --config TYPE1 --strategy star", "star peeling needs type (1, ..., s)"),
     ("bounds --config C1345 --m 2 --t 3 --strategy star",
      "star peeling needs type (1, ..., s)"),
     ("bounds --config C123_ONE --m 2 --t 3 --strategy star",
      "star peeling needs s + 1 full lines"),
     ("reduce --config C123_ONE --m 2 --strategy augmented",
      "augmented peeling needs exactly s full lines"),
     ("reduce --config C123_ONE --strategy augmented", "the augmented peeling needs m >= 2")],
    ids=["repeated-point", "multiplicity-zero", "zero-point", "zero-config-point",
         "zero-line", "empty-lines", "verify-one-point", "family-below-threshold",
         "star-on-one-point", "star-on-1345", "star-without-s+1-lines",
         "augmented-without-s-lines", "augmented-m1"],
)
def test_refused_input_is_one_error_line(argv, message, tmp_path, capsys):
    # each is a ValueError of the package: exit 1, its message, no traceback
    names = {}
    for name, data in _REFUSED_INPUTS.items():
        names[name] = tmp_path / f"{name}.json"
        names[name].write_text(json.dumps(data() if callable(data) else data))
    code, out, err = _run_main([str(names.get(a, a)) for a in argv.split()], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("sweep", ["3", "5:3", "0:2"], ids=["no-colon", "empty", "zero"])
def test_bad_sweep_is_a_usage_error(sweep, tmp_path, capsys):
    cfg = _write_config(tmp_path, config_123_one())
    with pytest.raises(SystemExit) as err:
        main(["verify", "--config", cfg, "--m-sweep", sweep])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "argument --m-sweep: expected a nonempty range lo:hi" in stderr
    assert "Traceback" not in stderr


# the arguments each command needs besides --m; CFG is the configuration
_M_COMMANDS = {
    "hilbert": ["--config", "CFG", "--t-max", "3"],
    "bounds": ["--config", "CFG", "--t", "3"],
    "reduce": ["--config", "CFG"],
    "verify": ["--config", "CFG"],
    "family": ["--s", "2"],
}


@pytest.mark.parametrize("m", ["0", "-1", "abc"])
@pytest.mark.parametrize("command", sorted(_M_COMMANDS))
def test_multiplicity_below_one_is_a_usage_error(command, m, tmp_path, capsys):
    cfg = _write_config(tmp_path, config_1345())
    argv = [command] + [cfg if a == "CFG" else a for a in _M_COMMANDS[command]]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--m", m])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --m: expected an integer >= 1" in captured.err
    assert "Traceback" not in captured.err


def test_verify_m_with_m_sweep_is_a_usage_error(tmp_path, capsys):
    # --m used to be dropped silently in favour of the sweep
    cfg = _write_config(tmp_path, config_1345())
    with pytest.raises(SystemExit) as err:
        main(["verify", "--config", cfg, "--m", "5", "--m-sweep", "1:2"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --m-sweep: not allowed with argument --m" in captured.err


# --- --config | --scheme with --lines | --strategy: one input path ----------

@pytest.mark.parametrize("source", ["config", "scheme"])
def test_bounds_and_reduce_read_lines(source, tmp_path, capsys):
    from fatpoints.cht import bound_check
    from fatpoints.kconfig import fatten
    from fatpoints.scheme import lines_to_json, reduction_vector

    x = config_1345()
    cfg = _write_config(tmp_path, x)
    # ascending line order, which no --strategy gives
    lines, z = list(x.lines) * 2, fatten(x, 2)
    lines_path, z_path = tmp_path / "lines.json", tmp_path / "z.json"
    lines_path.write_text(json.dumps(lines_to_json(lines)))
    z_path.write_text(json.dumps(scheme_to_json(z)))
    src = ["--config", cfg, "--m", "2"] if source == "config" else ["--scheme", str(z_path)]
    for t in (3, 8):
        assert main(["bounds", *src, "--lines", str(lines_path), "--t", str(t),
                     "--format", "json"]) == 0
        report = bound_check(z, lines, t)
        assert json.loads(capsys.readouterr().out) == {
            "t": t, "f_lower": report.f_lower, "F_upper": report.F_upper,
            "exact": report.exact, "tight": report.tight}
    assert main(["reduce", *src, "--lines", str(lines_path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    v = reduction_vector(z, lines)
    assert payload["reduction_vector"] == list(v.values) != [10, 9, 8, 3, 3, 3, 2, 1]
    assert payload["complete"] is v.complete is True
    assert [step["removed"] for step in payload["chain"]] == [None, *v.values]


def test_reduce_walks_the_residual_chain_once(tmp_path, monkeypatch, capsys):
    from fatpoints.scheme import FatPointScheme

    calls = []
    real = FatPointScheme.residual
    monkeypatch.setattr(FatPointScheme, "residual",
                        lambda z, line: calls.append(line) or real(z, line))
    cfg = _write_config(tmp_path, config_1345())
    assert main(["reduce", "--config", cfg, "--m", "2", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["chain"]) == 9
    assert len(calls) == 8  # one residual per line, not one per line per walk


def test_bounds_loads_the_configuration_once(tmp_path, monkeypatch, capsys):
    from fatpoints import kconfig

    seen = []
    for name in ("kconfig_from_json", "validate"):
        real = getattr(kconfig, name)
        monkeypatch.setattr(kconfig, name,
                            lambda data, name=name, real=real: seen.append(name) or real(data))
    cfg = _write_config(tmp_path, config_1345())
    argv = ["bounds", "--config", cfg, "--m", "2", "--strategy", "repeat", "--t", "8"]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == "t=8 f=36 F=36 H=36 tight"
    assert seen == ["kconfig_from_json", "validate"]


# Each input path names a missing file: a usage error must exit before any
# file is opened, or the run would exit 1 on the missing file instead.
@pytest.mark.parametrize(
    "argv, flags",
    [("hilbert --scheme missing.json --m 2 --t-max 3", ["--m", "--scheme"]),
     ("bounds --scheme missing.json --m 2 --lines missing.json --t 3", ["--m", "--scheme"]),
     ("reduce --scheme missing.json --m 2 --lines missing.json", ["--m", "--scheme"]),
     ("bounds --config missing.json --lines missing.json --strategy star --t 3",
      ["--strategy", "--lines"]),
     ("reduce --config missing.json --lines missing.json --strategy repeat",
      ["--strategy", "--lines"]),
     ("bounds --scheme missing.json --t 3", ["--scheme", "--lines"]),
     ("reduce --scheme missing.json", ["--scheme", "--lines"]),
     ("generate --type 3,2", ["--type"]),
     ("generate --type abc", ["--type"]),
     ("generate --type 1,3 --r 2 -o missing/out.json", ["--r", "--type"]),
     ("hilbert --config missing.json --t-max -1", ["--t-max"]),
     ("generate --type 1,2,3 --r 0 -o missing/out.json", ["--r"]),
     ("generate --type 1,2,3 --r 5 -o missing/out.json", ["--r"]),
     ("generate --type 1 --r 1 -o missing/out.json", ["--r", "--type"]),
     ("family --s 1 --m 2", ["--s"]),
     ("generate --type 1,2,3 --coord-bound -3 -o missing/out.json", ["--coord-bound"]),
     ("family --s 2 --m 3 --coord-bound -3", ["--coord-bound"])],
    ids=["hilbert-m-scheme", "bounds-m-scheme", "reduce-m-scheme",
         "bounds-strategy-lines", "reduce-strategy-lines", "bounds-scheme-no-lines",
         "reduce-scheme-no-lines", "type-decreasing", "type-letters", "r-on-1-3",
         "t-max-negative", "r-zero", "r-above-star", "r-on-1", "family-s-one",
         "generate-coord-bound-negative", "family-coord-bound-negative"],
)
def test_flag_clashes_are_usage_errors(argv, flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run_main(argv.split(), capsys)
    assert code == 2
    assert out == ""
    assert all(flag in err.splitlines()[-1] for flag in flags), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [(["generate", "--type", "1_0"], "--type"),
     (["generate", "--type", "1,+2"], "--type"),
     (["generate", "--type", "1,2,3", "--seed", "1_0"], "--seed"),
     (["generate", "--type", "1,2,3", "--r", " 2"], "--r"),
     (["verify", "--config", "missing.json", "--m", "\u0661"], "--m"),
     (["verify", "--config", "missing.json", "--m-sweep", "1:\u0662"], "--m-sweep"),
     (["count-lines", "--config", "missing.json", "--k", "0x3"], "--k"),
     (["bounds", "--config", "missing.json", "--t", "+3"], "--t"),
     (["family", "--s", "+3", "--m", "4"], "--s"),
     (["family", "--s", "3", "--m", "4", "--coord-bound", " 20"], "--coord-bound")],
    ids=["type-underscore", "type-plus", "seed-underscore", "r-space", "m-arabic-indic",
         "m-sweep-arabic-indic", "k-hex", "t-plus", "s-plus", "coord-bound-space"],
)
def test_integers_follow_the_json_syntax(argv, flag, tmp_path, monkeypatch, capsys):
    # int() alone would read every one of these
    monkeypatch.chdir(tmp_path)
    code, out, err = _run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"argument {flag}: expected " in err.splitlines()[-1], err
    assert "Traceback" not in err


def test_family_coord_bound_sources(monkeypatch, capsys):
    from fatpoints import verify

    seen = []
    real = verify.hilbert_family

    def spy(s, m, seed, bound):
        seen.append(bound)
        return real(s, m, seed, bound)

    monkeypatch.setattr(verify, "hilbert_family", spy)
    argv = ["family", "--s", "2", "--m", "3", "--format", "json"]
    assert main(argv) == 0  # no flag: family's own default
    assert main(argv + ["--coord-bound", "7"]) == 0
    assert seen == [20, 7]
    capsys.readouterr()


# --- every Hilbert value pinned: no span certificate, no Bareiss run ---------

_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


@pytest.fixture
def no_certificates(monkeypatch):
    from fatpoints import linalg

    def refuse(*args, **kwargs):
        raise AssertionError("every value of this command is pinned")

    monkeypatch.setattr(linalg, "_span_certificate", refuse)
    monkeypatch.setattr(linalg, "bareiss_rank", refuse)


def test_hilbert_large_rung_is_pinned(tmp_path, capsys, no_certificates):
    cfg = tmp_path / "cfg.json"
    assert main(["generate", "--type", "1,2,3,4,5", "--seed", "0",
                 "--coord-bound", "50", "-o", str(cfg)]) == 0
    rc = main(["hilbert", "--config", str(cfg), "--m", "6", "--t-max", "30",
               "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stabilized_at"] == 6 * 5 - 1
    assert payload["values"][-1] == 15 * 21


def test_family_s4_is_pinned(capsys, no_certificates):
    cmd = "family --s 4 --m 5 --seed 0 --coord-bound 20 --format json"
    assert main(cmd.split()) == 0
    expected = json.loads(_EXPECTED.read_text())[cmd]
    assert json.loads(capsys.readouterr().out) == expected


# --- one parser per process, ``python -m fatpoints``, a cold start ----------

def _run_main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cached_parser_matches_fresh_parsers(tmp_path, capsys):
    from fatpoints.cli import build_parser

    cfg = _write_config(tmp_path, config_1345())
    commands = [
        ["verify", "--config", cfg],  # no --m: a usage error
        ["verify", "--config", cfg, "--m", "2", "--ri", "--format", "json"],
        ["family", "--s", "2", "--m", "3", "--format", "json"],
    ]
    build_parser.cache_clear()
    cached = [_run_main(argv, capsys) for argv in commands]
    assert build_parser.cache_info().misses == 1  # one parser served all three
    fresh = []
    for argv in commands:
        build_parser.cache_clear()
        fresh.append(_run_main(argv, capsys))
    assert [code for code, _, _ in cached] == [2, 0, 0]
    assert "one of the arguments --m --m-sweep is required" in cached[0][2]
    assert cached == fresh


def _src_env(*extra):
    import fatpoints

    src = str(Path(fatpoints.__file__).resolve().parents[1])
    paths = [src, *extra, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_python_m_fatpoints_exit_code(tmp_path):
    cfg = _write_config(tmp_path, config_1345())
    proc = subprocess.run(
        [sys.executable, "-m", "fatpoints", "verify", "--config", cfg],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: fatpoints verify")  # the subcommand's usage
    assert "one of the arguments --m --m-sweep is required" in proc.stderr
    assert "Traceback" not in proc.stderr


_COLD = """
import contextlib, io, json, os, sys, tempfile
import fatpoints.cli
from fatpoints.cli import main

seen = {"after_import": "numpy" in sys.modules}
cfg = os.path.join(tempfile.mkdtemp(), "cfg.json")
codes = [main(["generate", "--type", "1,2,3", "--seed", "0", "-o", cfg])]
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(main(["verify", "--config", cfg, "--m", "4"]))
    codes.append(main(["family", "--s", "3", "--m", "4"]))
seen["after_commands"] = "numpy" in sys.modules
seen["eager"] = ["fatpoints.linalg" in sys.modules, "fatpoints.hilbert" in sys.modules]
seen["mpz"] = sys.modules["fatpoints.linalg"].mpz(7) == 7

from corpus import config_1345
from fatpoints.hilbert import hilbert_value
from fatpoints.kconfig import fatten

seen["loose"] = hilbert_value(fatten(config_1345(), 2), 6)
seen["after_rank"] = "numpy" in sys.modules
seen["codes"] = codes
print(json.dumps(seen))
"""


def test_cold_start_loads_numpy_only_for_a_rank():
    # pytest itself has numpy loaded, so the start is checked in a child
    tests = str(Path(__file__).resolve().parent)
    proc = subprocess.run([sys.executable, "-c", _COLD], capture_output=True,
                          text=True, env=_src_env(tests), timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["codes"] == [0, 0, 0]
    assert not seen["after_import"] and not seen["after_commands"]
    assert seen["eager"] == [True, True] and seen["mpz"]
    # the one value of config_1345 at m = 2 that f_v < F_v leaves open
    assert seen["loose"] == 28 and seen["after_rank"]


_FOOTPRINT = """
import contextlib, io, json, sys
from fatpoints.cli import main

cfg = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["family", "--s", "3", "--m", "4", "--format", "json"]),
             main(["generate", "--type", "1,2,3", "--seed", "0", "-o", cfg]),
             main(["verify", "--config", cfg, "--m", "4", "--format", "json"])]
unused = ["_hashlib", "hashlib", "csv", "fractions", "decimal", "numpy"]
print(json.dumps({"codes": codes, "loaded": [m for m in unused if m in sys.modules]}))
"""


def test_commands_import_only_what_they_run(tmp_path):
    # -S keeps the imports of site and its .pth files out of the child
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT, str(tmp_path / "cfg.json")],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0], "loaded": []}


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
from fatpoints import verify
from fatpoints.kconfig import kconfig_from_json

ids = [verify.config_id(kconfig_from_json(d)) for d in json.load(sys.stdin)]
print(json.dumps({"ids": ids, "hashlib": verify.sha256 is hashlib.sha256}))
"""


def test_config_id_without_builtin_sha2():
    # a CPython build without the built-in SHA-2 module hashes through hashlib
    data = _ladder_json()
    proc = subprocess.run([sys.executable, "-c", _NO_BUILTIN_SHA2], input=json.dumps(data),
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"ids": [_hashlib_id(d) for d in data], "hashlib": True}
