"""Command-line interface: exit codes, reports, chain export and import."""
import json

import pytest

from portchain import analysis
from portchain.cli import DEFAULT_CHECKS, chi_square_critical, main, run_scenario
from portchain.core import decode_chain, encode_chain


def _scenario(tmp_path, name="scenario.json", **overrides):
    doc = {
        "config": {
            "seed": 6,
            "node_count": 15,
            "voter_count": 3,
            "creator_redundancy": 2,
            "run_height": 12,
            "latency_min": 1,
            "latency_max": 2,
        }
    }
    doc["config"].update(overrides.pop("config", {}))
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_run_benign_scenario(tmp_path, capsys):
    path = _scenario(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    for check in DEFAULT_CHECKS:
        assert f"check_{check}=pass" in out
    assert "committed_head=" in out
    assert "transcript_digest=" in out
    assert '"exit_code": 0' in out


def test_run_report_is_reproducible(tmp_path, capsys):
    path = _scenario(tmp_path)
    main(["run", "--config", str(path)])
    first = capsys.readouterr().out
    main(["run", "--config", str(path)])
    assert capsys.readouterr().out == first
    # a seed override changes the transcript
    main(["run", "--config", str(path), "--seed", "7"])
    assert capsys.readouterr().out != first


def test_run_writes_report_file(tmp_path, capsys):
    path = _scenario(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
    assert (out_dir / "report.txt").read_text() == capsys.readouterr().out


def test_export_import_round_trip(tmp_path, capsys):
    path = _scenario(tmp_path)
    chain_path = tmp_path / "chain.bin"
    assert main(["run", "--config", str(path), "--export-chain", str(chain_path)]) == 0
    capsys.readouterr()
    assert main(["import", "--chain", str(chain_path), "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verified" in out


def test_import_rejects_corruption(tmp_path, capsys):
    path = _scenario(tmp_path)
    chain_path = tmp_path / "chain.bin"
    main(["run", "--config", str(path), "--export-chain", str(chain_path)])
    capsys.readouterr()
    # corrupt one byte inside a decodable block body
    chain = decode_chain(chain_path.read_bytes())
    import dataclasses

    h = len(chain) // 2
    chain[h] = dataclasses.replace(
        chain[h],
        header=dataclasses.replace(chain[h].header, state_root=b"\x01" * 32),
    )
    chain_path.write_bytes(encode_chain(chain))
    assert main(["import", "--chain", str(chain_path), "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"height {h}" in err


def test_import_undecodable_and_empty(tmp_path, capsys):
    path = _scenario(tmp_path)
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"\xff" * 40)
    assert main(["import", "--chain", str(garbage), "--config", str(path)]) == 1
    assert "undecodable" in capsys.readouterr().err
    empty = tmp_path / "empty.bin"
    empty.write_bytes(encode_chain([]))
    assert main(["import", "--chain", str(empty), "--config", str(path)]) == 0
    assert main(["import", "--chain", str(tmp_path / "missing.bin"),
                 "--config", str(path)]) == 2


def test_bad_inputs_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["run", "--config", str(bad_json)]) == 2
    bad_schema = tmp_path / "schema.json"
    bad_schema.write_text(json.dumps({"config": {"node_count": "tiny"}}))
    assert main(["run", "--config", str(bad_schema)]) == 2
    infeasible = _scenario(tmp_path, "small.json", config={"node_count": 14, "voter_count": 4})
    assert main(["run", "--config", str(infeasible)]) == 2
    ok = _scenario(tmp_path)
    assert main(["run", "--config", str(ok), "--check", "nonsense"]) == 2
    capsys.readouterr()


def test_failed_check_exits_1(tmp_path, capsys):
    # all five voter slots withholding stalls the run; without allow_stall
    # the liveness check fails
    path = _scenario(
        tmp_path,
        "stall.json",
        config={
            "run_height": 6,
            "max_ticks": 3000,
            "stall_patience": 400,
            "adversaries": [
                {"kind": "vote_withhold", "voter_slot": s} for s in range(3)
            ],
        },
    )
    code = main(["run", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "check_liveness=fail" in out
    # the same scenario with stalling allowed and liveness unchecked passes
    doc = json.loads(path.read_text())
    doc["allow_stall"] = True
    doc["checks"] = ["single_chain", "schedule", "conservation"]
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 0
    capsys.readouterr()


def test_tail_subcommand(capsys):
    assert main(["tail", "--n", "300", "--p", "1/3", "--m", "100"]) == 0
    out = capsys.readouterr().out
    assert "exact_binomial_tail=0.5217" in out
    assert "coefficient_free_sum=2.3477" in out
    assert main(["tail", "--n", "5", "--p", "3/2", "--m", "1"]) == 2
    capsys.readouterr()


def test_chi_square_critical_reference_points():
    # one percent upper-tail quantiles, reference values to ~0.1%
    assert chi_square_critical(49) == pytest.approx(74.919, rel=2e-3)
    assert chi_square_critical(10) == pytest.approx(23.209, rel=2e-3)
    assert chi_square_critical(1) == pytest.approx(6.635, rel=2e-2)


ALL_CHECKS = ["single_chain", "schedule", "conservation", "fairness", "liveness"]


def test_run_replays_the_chain_once(tmp_path, monkeypatch):
    calls = []
    real = analysis.replay_chain

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "replay_chain", counting)
    doc = json.loads(_scenario(tmp_path).read_text())
    report, code = run_scenario(doc, checks=ALL_CHECKS)
    assert code == 0
    assert "check_conservation=pass" in report and "check_fairness=pass" in report
    assert "gini_final=" in report
    assert len(calls) == 1


def test_invalid_replay_fails_conservation_and_fairness(tmp_path, monkeypatch):
    def invalid(*args, **kwargs):
        raise analysis.ChainInvalid(5, "forged for the test")

    monkeypatch.setattr(analysis, "replay_chain", invalid)
    doc = json.loads(_scenario(tmp_path).read_text())
    report, code = run_scenario(doc, checks=ALL_CHECKS)
    assert code == 1
    lines = report.splitlines()
    start = lines.index("check_schedule=pass") + 1
    # recorded with three separate replays, before the single replay
    assert lines[start:start + 4] == [
        "check_conservation=fail:height 5: forged for the test",
        "fairness_error=height 5: forged for the test",
        "check_fairness=fail",
        "check_liveness=pass",
    ]
    assert lines[start + 4] == "stall_allowed=0"
    assert "gini" not in report


@pytest.mark.parametrize("field,value", [
    ("seed", -1),
    ("seed", 2**64),
    ("tax_rate_denominator", 0),
    ("tx_interval", 0),
    ("sync_interval", 0),
    ("tx_value_min", -5),
    ("genesis_balance", 2**65),
])
def test_out_of_range_config_exits_2(tmp_path, capsys, field, value):
    # each of these used to raise (OverflowError, ZeroDivisionError) or,
    # for tx_interval 0 and sync_interval 0, never reach run_height
    path = _scenario(tmp_path, config={field: value})
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("config,named", [
    # overflowed the 8-byte selection weight total
    ({"genesis_tax_min": 2**62, "genesis_tax_max": 2**62}, "genesis_tax_max"),
    # raised IndexError
    ({"adversaries": [{"kind": "crash", "node": 99, "start_tick": 5}]}, "node 99"),
    # silently accepted
    ({"adversaries": [{"kind": "vote_withhold", "voter_slot": 99}]}, "voter_slot 99"),
    ({"adversaries": [{"kind": "vote_withhold", "node": 99}]}, "node 99"),
], ids=["genesis-tax-2**62", "crash-node-99", "voter-slot-99", "withhold-node-99"])
def test_hostile_config_exits_2(tmp_path, capsys, config, named):
    path = _scenario(tmp_path, config=config)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err
