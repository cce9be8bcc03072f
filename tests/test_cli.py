from __future__ import annotations

import json

import pytest

from ecuchain.cli import main

CONFIG = """
n_vehicles = 3
n_rsus = 2
n_rounds = 2
ecus_per_vehicle = 4
seed = 12
attack = replay,1,2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(CONFIG, encoding="utf-8")
    return str(path)


def test_init_then_run_produces_event_log(config_path, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["init", "--config", config_path]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["blocks"] == 3
    assert summary["ledgers_valid"]
    log_path = tmp_path / "run.log"
    assert main(["run", "--config", config_path, "--out", str(log_path)]) == 0
    assert log_path.exists()
    rows = [l.split("\t") for l in log_path.read_text().strip().split("\n")]
    assert all(len(r) == 4 for r in rows)
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdicts"]["StaleTimestamp"] == 1
    assert summary["revoked"] == ["v1"]


def test_run_is_deterministic_across_invocations(config_path, tmp_path):
    a, b = tmp_path / "a.log", tmp_path / "b.log"
    assert main(["run", "--config", config_path, "--out", str(a)]) == 0
    assert main(["run", "--config", config_path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_override_accepted(config_path, tmp_path):
    # key material and challenge subsets derive from the seed; the log schema
    # stays the same, so just check the override parses and runs cleanly
    out = tmp_path / "s.log"
    assert main(["run", "--config", config_path, "--seed", "777", "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bench-merkle", "--seed", "-1"],
        ["bench-create", "--seed", str(2**64)],
        ["run", "--seed", str(2**64)],
        ["init", "--seed", "-1"],
    ],
)
def test_seed_outside_u64_exits_one(argv, config_path, tmp_path, capsys):
    if argv[0] in ("init", "run"):
        argv = [*argv, "--config", config_path]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "seed must be in [0, 18446744073709551615]" in err
    assert "internal error" not in err
    assert not out.exists()


def test_config_seed_outside_u64_exits_one(tmp_path, capsys):
    path = tmp_path / "big-seed.cfg"
    path.write_text(CONFIG.replace("seed = 12", f"seed = {2**64}"), encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "s.log")]) == 1
    assert "seed must be in [0, 18446744073709551615]" in capsys.readouterr().err


def test_config_ecus_past_the_limit_exits_one(tmp_path, capsys):
    path = tmp_path / "many-ecus.cfg"
    path.write_text(
        CONFIG.replace("ecus_per_vehicle = 4", "ecus_per_vehicle = 65536"), encoding="utf-8"
    )
    out = tmp_path / "s.log"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert "ecus_per_vehicle must be <= 65535" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_path_exits_one(capsys):
    assert main(["run", "--config", "/nonexistent/path.cfg"]) == 1
    assert "ecuchain:" in capsys.readouterr().err


def test_malformed_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_vehicles = frog\n", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 1
    assert "integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["init", "run"])
def test_config_with_a_latency_key_exits_one(command, tmp_path, capsys):
    path = tmp_path / "latency.cfg"
    path.write_text(CONFIG + "link_latency_ms = 0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert "unknown key 'link_latency_ms'" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_exits_one_with_usage(capsys):
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err


@pytest.mark.parametrize(
    "command, option",
    [
        ("init", ["--threads", "2"]),
        ("run", ["--threads", "2"]),
        ("run", ["--format", "json"]),
    ],
)
def test_unread_option_exits_one_with_usage(config_path, tmp_path, capsys, command, option):
    # options that init and run do not read are usage errors; bench-create
    # still takes --format json (test_bench_create_json_format)
    out = tmp_path / "out"
    assert main([command, "--config", config_path, "--out", str(out), *option]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"unrecognized arguments: {' '.join(option)}" in err
    assert not out.exists()


def test_no_subcommand_exits_one(capsys):
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().err


def test_bench_merkle_csv_contract(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["bench-merkle", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "ecus,mean_ms,stddev_ms"
    assert len(lines) > 1


def test_bench_create_json_format(tmp_path):
    out = tmp_path / "c.json"
    assert main(["bench-create", "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["benchmark"] == "block-creation"
    assert payload["runs"] == 10
    assert [p["vehicles"] for p in payload["series"]] == [10, 50, 100, 150, 200]
