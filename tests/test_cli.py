import json
from pathlib import Path

import pytest

from corpus import config_123_one, config_1234, config_1345
from fatpoints.cli import main
from fatpoints.kconfig import kconfig_from_json, kconfig_to_json, validate


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


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    x = config_123_one()
    data = kconfig_to_json(x)
    data["subsets"][0] = [["1", "0", "0"]]  # off-line point
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as err:
        main(["count-lines", "--config", str(path)])
    assert err.value.code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["hilbert", "--t-max", "3"])
    assert err.value.code == 2


def test_csv_format(tmp_path, capsys):
    cfg = _write_config(tmp_path, config_1345())
    main(["bounds", "--config", cfg, "--m", "2", "--t", "8", "--format", "csv"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",") == ["t", "f_lower", "F_upper", "exact", "tight"]
    assert lines[1].split(",") == ["8", "36", "36", "36", "True"]


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


@pytest.mark.parametrize(
    "command, flag, data",
    [("hilbert", "--scheme", []),
     ("hilbert", "--scheme", {"points": 5, "mults": []}),
     ("count-lines", "--config", {"type": [1, 2], "subsets": 3, "lines": []})],
    ids=["scheme-array", "points-number", "subsets-number"],
)
def test_malformed_json_is_an_error(command, flag, data, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    argv = [command, flag, str(path)] + (["--t-max", "3"] if command == "hilbert" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("sweep", ["3", "5:3"], ids=["no-colon", "empty"])
def test_bad_sweep_is_a_usage_error(sweep, tmp_path, capsys):
    cfg = _write_config(tmp_path, config_123_one())
    with pytest.raises(SystemExit) as err:
        main(["verify", "--config", cfg, "--m-sweep", sweep])
    assert err.value.code == 2
    assert "--m-sweep" in capsys.readouterr().err


def test_family_coord_bound_sources(monkeypatch, capsys):
    from fatpoints import verify

    seen = []
    real = verify.hilbert_family

    def spy(s, m, seed, bound):
        seen.append(bound)
        return real(s, m, seed, bound)

    monkeypatch.setattr(verify, "hilbert_family", spy)
    argv = ["family", "--s", "2", "--m", "3", "--format", "json"]
    monkeypatch.delenv("KCONFIG_COORD_BOUND", raising=False)
    assert main(argv) == 0  # neither flag nor variable: family's own default
    monkeypatch.setenv("KCONFIG_COORD_BOUND", "9")
    assert main(argv) == 0  # the variable applies
    assert main(argv + ["--coord-bound", "7"]) == 0  # the flag wins
    assert seen == [20, 9, 7]
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
