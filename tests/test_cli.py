"""Command-line interface: exit codes, reports, chain export and import."""
import concurrent.futures
import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import portchain
from portchain import analysis, cli, netsim
from portchain.analysis import KNOWN_CHECKS, chi_square_critical
from portchain.cli import (
    DEFAULT_CHECKS,
    ScenarioError,
    main,
    run_scenario,
    scenario_from_doc,
)
from portchain.core import (
    decode_chain,
    encode_block,
    encode_chain,
    encode_header,
    encode_vote,
)
from portchain.crypto import ADDRESS_SIZE, HASH_SIZE
from portchain.adversary import KINDS
from portchain.netsim import AdversarySpec, SimConfig, SimConfigError

from conftest import pad_nested_blob
from test_analysis import foreign_genesis_chain
from test_golden import README_SCENARIO


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
    # another seed in the file gives another report
    main(["run", "--config", str(_scenario(tmp_path, "other.json", config={"seed": 7}))])
    assert capsys.readouterr().out != first


def test_readme_workflow_reruns_from_the_file_alone(tmp_path, capsys, monkeypatch):
    # README's commands, with the seed in the scenario file
    path = _scenario(tmp_path, config={"seed": 7})
    out_dir, chain_path = tmp_path / "report_dir", tmp_path / "chain.bin"
    assert main(["run", "--config", str(path), "--out", str(out_dir),
                 "--export-chain", str(chain_path)]) == 0
    report = capsys.readouterr().out
    assert (out_dir / "report.txt").read_text() == report
    assert main(["import", "--chain", str(chain_path), "--config", str(path)]) == 0
    head = len(decode_chain(chain_path.read_bytes())) - 1
    assert f"committed_head={head}\n" in report
    assert capsys.readouterr().out == f"verified {head + 1} blocks up to height {head}\n"
    # the seed has no second source: argparse refuses --seed before any simulation
    monkeypatch.setattr(cli, "run_scenario", lambda *a: pytest.fail("simulated"))
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(path), "--seed", "7"])
    assert exit_info.value.code == 2


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
    # the scenario of another seed has another genesis
    other = _scenario(tmp_path, "other.json", config={"seed": 7})
    assert main(["import", "--chain", str(chain_path), "--config", str(other)]) == 1
    assert "genesis does not match the scenario config" in capsys.readouterr().err


def test_import_refuses_a_foreign_genesis_body(tmp_path, capsys, monkeypatch):
    cfg, _, chain = foreign_genesis_chain(monkeypatch)
    path = _scenario(tmp_path, config=dataclasses.asdict(cfg))
    chain_path = tmp_path / "chain.bin"
    chain_path.write_bytes(encode_chain(chain))
    assert main(["import", "--chain", str(chain_path), "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "invalid chain: height 0: genesis does not match the scenario config\n"
    )


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
    # a file with no blocks has no genesis, so the genesis check refuses it
    empty = tmp_path / "empty.bin"
    empty.write_bytes(encode_chain([]))
    assert main(["import", "--chain", str(empty), "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("invalid chain: height 0: ")
    assert main(["import", "--chain", str(tmp_path / "missing.bin"),
                 "--config", str(path)]) == 2


def _exported(tmp_path, capsys):
    path = _scenario(tmp_path)
    chain_path = tmp_path / "chain.bin"
    assert main(["run", "--config", str(path), "--export-chain", str(chain_path)]) == 0
    capsys.readouterr()
    data = chain_path.read_bytes()
    block = next(b for b in decode_chain(data) if b.header.prev_certificate.votes)
    return path, chain_path, data, block


def test_import_refuses_a_flipped_vote_signature(tmp_path, capsys):
    # the run signed every vote of the chain in this process, and its
    # signature memo is warm; a flipped signature is one it did not make
    path, chain_path, data, block = _exported(tmp_path, capsys)
    cert = block.header.prev_certificate
    vote = cert.votes[0]
    sig = vote.signature
    flipped = dataclasses.replace(vote, signature=bytes([sig[0] ^ 1]) + sig[1:])
    cert = dataclasses.replace(cert, votes=(flipped, *cert.votes[1:]))
    chain = decode_chain(data)
    h = block.header.height
    header = dataclasses.replace(block.header, prev_certificate=cert)
    chain[h] = dataclasses.replace(block, header=header)
    chain_path.write_bytes(encode_chain(chain))
    assert main(["import", "--chain", str(chain_path), "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"invalid chain: height {h}:")


def _approve_7(data, block):
    at = data.index(encode_vote(block.header.prev_certificate.votes[0])) + ADDRESS_SIZE + HASH_SIZE
    return data[:at] + b"\x07" + data[at + 1:]


def _padded_header(data, block):
    return pad_nested_blob(data, (encode_block(block), encode_header(block.header)))


@pytest.mark.parametrize("mutate", [_approve_7, _padded_header],
                         ids=["approve-byte-7", "padded-header-blob"])
def test_import_rejects_non_canonical_encoding(tmp_path, capsys, mutate):
    # both decoded to a block equal to the original and were reported as
    # verified, though the file does not re-encode to itself
    path, chain_path, data, block = _exported(tmp_path, capsys)
    chain_path.write_bytes(mutate(data, block))
    assert main(["import", "--chain", str(chain_path), "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid chain: ") and "undecodable chain file" in err


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
    # each tick of this workload would sign and broadcast 100,000 transfers
    flood = _scenario(tmp_path, "flood.json", config={
        "node_count": 16, "tx_interval": 1, "txs_per_interval": 100_000, "run_height": 5})
    assert main(["run", "--config", str(flood)]) == 2
    ok = _scenario(tmp_path)
    # checks are chosen in the scenario file only
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(ok), "--check", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    # each raised out of load_scenario (UnicodeDecodeError, RecursionError,
    # and ValueError past Python's limit on integer-string conversion)
    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(b"\xff\xfe" + '{"config": {}}'.encode("utf-16-le"))
    too_deep = tmp_path / "deep.json"
    too_deep.write_text('{"config": ' + "[" * 200_000 + "}")
    long_int = tmp_path / "long-int.json"
    long_int.write_text('{"config": {"seed": ' + "9" * 5_000 + "}}")
    for path, named in ((not_utf8, "not UTF-8"), (too_deep, "nests too deeply"),
                        (long_int, "number too long")):
        for argv in (["run", "--config", str(path)],
                     ["import", "--chain", str(tmp_path / "chain.bin"), "--config", str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err and "Traceback" not in err


@pytest.mark.parametrize("option,target", [
    ("--export-chain", lambda tmp_path: tmp_path / "missing-dir" / "c.bin"),
    ("--out", lambda tmp_path: tmp_path / "scenario.json"),
], ids=["export-chain-in-missing-dir", "out-is-a-file"])
def test_unwritable_output_exits_2(tmp_path, monkeypatch, capsys, option, target):
    # FileNotFoundError from open and FileExistsError from mkdir, both
    # before the simulation: it once ran first, and the report of a failed
    # run was already on stdout
    path = _scenario(tmp_path)

    def no_run(config):
        raise AssertionError("simulated before the outputs were opened")

    monkeypatch.setattr(cli, "run", no_run)
    assert main(["run", "--config", str(path), option, str(target(tmp_path))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write ") and "Traceback" not in err


def test_invalid_config_exits_2_before_any_output(tmp_path, capsys):
    # the config is built, and so validated, when the scenario is loaded,
    # before the report directory or the chain file is made
    path = _scenario(tmp_path, config={"node_count": 5})
    out_dir, chain_path = tmp_path / "outdir", tmp_path / "out.bin"
    assert main(["run", "--config", str(path), "--out", str(out_dir),
                 "--export-chain", str(chain_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: node_count 5 ") and "Traceback" not in err
    assert not out_dir.exists() and not chain_path.exists()


def test_failed_stdout_write_exits_2(tmp_path, monkeypatch, capsys):
    class Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    path = _scenario(tmp_path)
    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["run", "--config", str(path)]) == 2
    assert main(["tail", "--n", "5", "--p", "1/3", "--m", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: cannot write output: ") == 2 and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "import", "tail"])
def test_closed_stdout_exits_2(tmp_path, capsys, monkeypatch, command):
    # started with fd 1 closed, Python sets sys.stdout to None: run once
    # raised AttributeError after simulating, and import and tail printed
    # nothing and exited 0
    path = _scenario(tmp_path)
    empty = tmp_path / "empty.bin"
    empty.write_bytes(encode_chain([]))
    argv = {"run": ["run", "--config", str(path)],
            "import": ["import", "--chain", str(empty), "--config", str(path)],
            "tail": ["tail", "--n", "5", "--p", "1/3", "--m", "1"]}[command]

    def no_run(config):
        raise AssertionError("simulated with nowhere to write the report")

    monkeypatch.setattr(cli, "run", no_run)
    monkeypatch.setattr(sys, "stdout", None)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: cannot write output: standard output is closed\n"


def test_zero_balance_report_has_no_genesis_gini(tmp_path):
    # every genesis balance is zero, so the Gini coefficient of genesis is
    # undefined; the refunds of the run make the final one defined
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(
        {"config": {"seed": 1, "node_count": 16, "run_height": 5, "genesis_balance": 0}}))
    done = _python(f"import sys; from portchain.cli import main; "
                   f"sys.exit(main(['run', '--config', {str(path)!r}]))")
    assert done.returncode == 0 and "Traceback" not in done.stderr
    lines = done.stdout.splitlines()
    assert "gini_genesis=undefined" in lines
    [final] = [line for line in lines if line.startswith("gini_final=")]
    assert 0 < float(final.removeprefix("gini_final=")) < 1


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
    # a zero denominator is an argument error, not a ZeroDivisionError
    with pytest.raises(SystemExit) as exit_info:
        main(["tail", "--n", "5", "--p", "1/0", "--m", "1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--p" in err and "Traceback" not in err
    # with mpmath as the printer, -5 raised IndexError and 0 printed
    # ".0e+0" and exited 0
    for digits in ("-5", "0"):
        assert main(["tail", "--n", "5", "--p", "1/3", "--m", "1", "--digits", digits]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "digits" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,named", [
    # with the old sum, n = 32,000 at p = 1/3 ran for over two minutes
    (["--n", "100000", "--p", "1/3", "--m", "0"], "--n 100000"),
    (["--n", "40001", "--p", "1/3", "--m", "0"], "--n 40001"),
    # a 33-bit denominator makes every term 16 times longer
    (["--n", "2425", "--p", "2147483647/4294967296", "--m", "0"], "--n 2425"),
    # one decimal division per line at 10**7 places, time and memory
    # growing with digits: 10**6 took 0.22 s and 78 MiB
    (["--n", "5", "--p", "1/3", "--m", "1", "--digits", "10000000"], "digits 10000000"),
], ids=["n-100000", "n-40001", "wide-denominator", "digits-10**7"])
def test_tail_work_is_bounded(monkeypatch, capsys, argv, named):
    def never(*args, **kwargs):
        raise AssertionError("the tail computation started")

    monkeypatch.setattr(analysis, "byzantine_tail", never)
    assert main(["tail", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err


@pytest.mark.parametrize("p", ["1e-3", "1E3", "2.5e-1"])
def test_tail_refuses_an_exponent_in_p(monkeypatch, capsys, p):
    # Fraction accepts an exponent and builds its power of ten, so
    # 1e-100000000 would work far past the bound before it could exit 2
    def never(*args, **kwargs):
        raise AssertionError("the tail computation started")

    monkeypatch.setattr(analysis, "byzantine_tail", never)
    with pytest.raises(SystemExit) as exit_info:
        main(["tail", "--n", "5", "--p", p, "--m", "1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--p" in err and p in err and "Traceback" not in err


def test_tail_bounds_admit_their_edge(monkeypatch, capsys):
    calls = []
    real = analysis.byzantine_tail

    def small(n, p, m):
        calls.append(n)
        return real(5, p, 1)

    monkeypatch.setattr(analysis, "byzantine_tail", small)
    for argv in (["--n", "40000", "--p", "1/3", "--m", "0", "--digits", "1000"],
                 ["--n", "2424", "--p", "2147483647/4294967296", "--m", "0"]):
        assert main(["tail", *argv]) == 0
    capsys.readouterr()
    assert calls == [40000, 2424]


@pytest.mark.parametrize("node_count", [1025, 10**9])
def test_node_count_above_bound_exits_2_before_any_key(monkeypatch, tmp_path, capsys, node_count):
    # one Ed25519 key per node is derived before the first tick, so a
    # billion nodes would exhaust memory instead of exiting 2
    def never(seed):
        raise AssertionError("a node key was derived")

    monkeypatch.setattr(portchain.netsim, "keypair_from_seed", never)
    path = _scenario(tmp_path, config={"node_count": node_count})
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"node_count {node_count}" in err
    assert "Traceback" not in err


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
    report, code = run_scenario(scenario_from_doc({**doc, "checks": ALL_CHECKS}))
    assert code == 0
    assert "check_conservation=pass" in report and "check_fairness=pass" in report
    assert "gini_final=" in report
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["run", "import"])
def test_each_command_builds_one_context(tmp_path, monkeypatch, capsys, command):
    # `run` audits with the context its simulation built; `import` builds
    # its own from the scenario config, through the CLI's binding
    path = _scenario(tmp_path)
    chain_path = tmp_path / "chain.bin"
    if command == "import":
        assert main(["run", "--config", str(path), "--export-chain", str(chain_path)]) == 0
    calls = []
    real = netsim.build_context

    def counting(binding):
        def build_context(config):
            calls.append(binding)
            return real(config)
        return build_context

    for module in (netsim, cli):
        monkeypatch.setattr(module, "build_context", counting(module.__name__))
    argv = ["--chain", str(chain_path)] if command == "import" else []
    assert main([command, "--config", str(path), *argv]) == 0
    capsys.readouterr()
    assert calls == ["portchain.netsim" if command == "run" else "portchain.cli"]


@pytest.mark.parametrize("command", ["run", "import"])
def test_each_command_validates_its_config_once(tmp_path, monkeypatch, capsys, command):
    # the scenario is loaded once, and its SimConfig validates itself when
    # built; neither the run nor the import's context validates it again
    path = _scenario(tmp_path)
    chain_path = tmp_path / "chain.bin"
    if command == "import":
        assert main(["run", "--config", str(path), "--export-chain", str(chain_path)]) == 0
    calls = []
    real = SimConfig.validate

    def counting(config):
        calls.append(config)
        return real(config)

    monkeypatch.setattr(SimConfig, "validate", counting)
    argv = ["--chain", str(chain_path)] if command == "import" else []
    assert main([command, "--config", str(path), *argv]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def _audit(config):
    # module level, so that a spawned worker can unpickle it
    return analysis.audit(netsim.run(config), analysis.KNOWN_CHECKS)


def test_audit_builds_a_report_in_a_worker(tmp_path):
    # the audit is a value with no text I/O: a worker process builds it and
    # returns it, and the CLI's report renders its fields in order
    doc = json.loads(_scenario(tmp_path).read_text())
    scenario = scenario_from_doc({**doc, "checks": ALL_CHECKS})
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=spawn) as pool:
        report = pool.submit(_audit, scenario.config).result(timeout=120)
    assert report == _audit(scenario.config)
    assert report.verdicts == dict.fromkeys(ALL_CHECKS, True)
    text, code = run_scenario(scenario)
    assert code == 0
    assert text.startswith("".join(f"{key}={value}\n" for key, value in report.fields.items()))


def test_invalid_replay_fails_conservation_and_fairness(tmp_path, monkeypatch):
    def invalid(*args, **kwargs):
        raise analysis.ChainInvalid(5, "forged for the test")

    monkeypatch.setattr(analysis, "replay_chain", invalid)
    doc = json.loads(_scenario(tmp_path).read_text())
    report, code = run_scenario(scenario_from_doc({**doc, "checks": ALL_CHECKS}))
    assert code == 1
    lines = report.splitlines()
    start = lines.index("check_schedule=pass") + 1
    # the one replay failed: conservation and fairness both fail with its
    # error, liveness is judged without it, and no Gini line is printed
    assert lines[start:start + 4] == [
        "check_conservation=fail:height 5: forged for the test",
        "fairness_error=height 5: forged for the test",
        "check_fairness=fail",
        "check_liveness=pass",
    ]
    assert lines[start + 4] == "stall_allowed=0"
    assert "gini" not in report


def test_a_chain_with_no_draws_fails_fairness(tmp_path):
    # every node is down from tick 0: the chain is its genesis block alone,
    # which replays, and the fairness window (1, 1) holds no draw
    crashed = [{"kind": "crash", "node": i} for i in range(15)]
    doc = json.loads(_scenario(tmp_path, config={"adversaries": crashed}).read_text())
    report, code = run_scenario(scenario_from_doc({**doc, "checks": ALL_CHECKS}))
    assert code == 1
    lines = report.splitlines()
    assert "committed_head=0" in lines and "gini_final=0.000000" in lines
    at = lines.index("check_conservation=pass")
    assert lines[at + 1:at + 5] == [
        "issued=0",
        "fairness_error=no selection draws in window (1, 1)",
        "check_fairness=fail",
        "check_liveness=fail:head=0",
    ]


@pytest.mark.parametrize("field,value", [
    ("seed", -1),
    ("seed", 2**64),
    ("tax_rate_denominator", 0),
    ("tx_interval", 0),
    ("sync_interval", 0),
    ("tx_value_min", -5),
    ("genesis_balance", 2**65),
    ("voter_count", 0),
    ("creator_redundancy", 0),
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
    # integral floats in integer fields: a TypeError traceback in
    # build_context, and a run with the float in its config digest
    ({"node_count": 16.0, "run_height": 3}, "node_count"),
    ({"run_height": 3.0}, "run_height"),
    # refused by the SimConfig that scenario_from_doc builds
    ({"drop_probability": math.nan}, "drop_probability"),
    # a run whose own replay refused it, exit 1
    ({"max_txs": -1}, "max_txs"),
    # silently ran, exit 0
    ({"txs_per_interval": -2}, "txs_per_interval"),
    ({"proposal_delay": -5}, "proposal_delay"),
    # reported as stalls, exit 1
    ({"max_ticks": -1}, "max_ticks"),
    ({"stall_patience": -1}, "stall_patience"),
    # a header's one-byte creator_index overflowed at the first proposal
    ({"node_count": 774, "voter_count": 1, "creator_redundancy": 257}, "creator_redundancy"),
    # ran with the field ignored (the withholding began at tick 0)
    ({"adversaries": [{"kind": "vote_withhold", "voter_slot": 1, "start_tick": 500}]},
     "takes no start_tick"),
    ({"adversaries": [{"kind": "crash", "node": 3, "voter_slot": 1}]}, "no voter_slot"),
    ({"adversaries": [{"kind": "vote_withhold", "node": 3, "voter_slot": 1}]}, "not both"),
    # ran with the last behavior on the node
    ({"adversaries": [{"kind": "vote_withhold", "node": 3},
                      {"kind": "forge_assignment", "node": 3}]}, "two behaviors on node 3"),
], ids=["genesis-tax-2**62", "crash-node-99", "voter-slot-99", "withhold-node-99",
        "node-count-16.0", "run-height-3.0", "drop-probability-nan", "max-txs--1",
        "txs-per-interval--2", "proposal-delay--5", "max-ticks--1", "stall-patience--1",
        "creator-redundancy-257", "withhold-start-tick", "crash-voter-slot",
        "withhold-node-and-slot", "two-behaviors-on-a-node"])
def test_hostile_config_exits_2(tmp_path, capsys, config, named):
    path = _scenario(tmp_path, config=config)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


# The jsonschema document that checked scenario files before scenario_from_doc
# took over, kept as the reference scenario_from_doc must agree with.
_OLD_ADVERSARY_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["crash", *KINDS]},
        "node": {"type": ["integer", "null"]},
        "voter_slot": {"type": ["integer", "null"]},
        "start_tick": {"type": "integer", "minimum": 0},
        "recover_tick": {"type": ["integer", "null"]},
    },
    "required": ["kind"],
    "additionalProperties": False,
}
_OLD_INT_FIELDS = [f.name for f in dataclasses.fields(SimConfig) if f.type == "int"]
_OLD_SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "config": {
            "type": "object",
            "properties": {
                **{name: {"type": "integer"} for name in _OLD_INT_FIELDS},
                "drop_probability": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "proposal_delay": {"type": ["integer", "null"]},
                "adversaries": {"type": "array", "items": _OLD_ADVERSARY_SCHEMA},
            },
            "additionalProperties": False,
        },
        "checks": {
            "type": "array",
            "items": {"enum": ["single_chain", "schedule", "conservation", "fairness", "liveness"]},
        },
        "fairness_window": {
            "type": "array",
            "items": {"type": "integer"},
            "minItems": 2,
            "maxItems": 2,
        },
        "allow_stall": {"type": "boolean"},
    },
    "required": ["config"],
    "additionalProperties": False,
}


def _tightened(doc) -> bool:
    """True if a document the old schema accepts has one of the values
    scenario_from_doc rejects on purpose: an integral float such as 16.0
    where an integer belongs (the old "integer" type took it), a NaN
    drop_probability (which passes the old range and fails
    SimConfig.validate), or a "fairness_window" key (the window is now
    fixed, so the key is unknown)."""
    config = doc["config"]
    ints = [v for k, v in config.items() if k not in ("drop_probability", "adversaries")]
    ints += [v for adv in config.get("adversaries", []) for k, v in adv.items() if k != "kind"]
    return (any(isinstance(v, float) for v in ints) or math.isnan(config.get("drop_probability", 0))
            or "fairness_window" in doc)


_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def _one_in(n: int, rare, common):
    """Draws from `common`, and one time in n from `rare` instead."""
    return st.integers(0, n - 1).flatmap(lambda i: common if i else rare)


def _mostly(valid):
    return _one_in(8, _junk, valid)


# integers, and the near misses the old "integer" type took (16.0) or refused (true)
_ints = _one_in(4, st.integers(-3, 40).map(float) | st.booleans(), st.integers(-3, 2**65))


def _objects(values: dict, required=()):
    """JSON objects over up to three keys of `values`, each valued by its
    strategy; one time in sixteen the required keys are left out, and one
    in sixteen an unknown key is added."""
    drawn = st.tuples(st.lists(st.sampled_from(sorted(values)), max_size=3, unique=True),
                      st.integers(0, 15), st.integers(0, 15))

    def build(d):
        keys, keep_required, known_only = d
        obj = {k: values[k] for k in sorted({*keys, *(required if keep_required else ())})}
        if not known_only:
            obj["bogus"] = _junk
        return st.fixed_dictionaries(obj)

    return drawn.flatmap(build)


_adversaries = _objects({
    "kind": _mostly(st.sampled_from(["crash", *KINDS, "bogus"])),
    "node": _mostly(_ints | st.none()),
    "voter_slot": _mostly(_ints | st.none()),
    "start_tick": _mostly(_ints),
    "recover_tick": _mostly(_ints | st.none()),
}, required=("kind",))
_config_values = {
    **{name: _mostly(_ints) for name in _OLD_INT_FIELDS},
    "drop_probability": _mostly(st.floats(-0.5, 1.5) | st.floats() | st.integers(-1, 2)
                                | st.booleans()),
    "proposal_delay": _mostly(_ints | st.none()),
    "adversaries": _mostly(st.lists(_mostly(_adversaries), min_size=1, max_size=2)),
}
_scenarios = _mostly(_objects({
    # every other config draws only from the fields that are not plain integers
    "config": _mostly(_objects(_config_values) | st.fixed_dictionaries({}, optional={
        k: _config_values[k] for k in ("drop_probability", "proposal_delay", "adversaries")})),
    "checks": _mostly(st.lists(_mostly(st.sampled_from([*KNOWN_CHECKS, "nonsense"])), max_size=3)),
    "fairness_window": _mostly(st.lists(_mostly(_ints), max_size=3)),
    "allow_stall": _mostly(st.booleans()),
}, required=("config",)))


def _refusal(build):
    """None if build() returns, else the text of the SimConfigError it raises."""
    try:
        build()
    except SimConfigError as exc:
        return str(exc)
    return None


def test_scenario_files_agree_with_the_old_schema():
    jsonschema = pytest.importorskip("jsonschema")
    # the validator class jsonschema.validate picks for this schema
    old_accepts = jsonschema.validators.validator_for(_OLD_SCENARIO_SCHEMA)(
        _OLD_SCENARIO_SCHEMA).is_valid

    @settings(max_examples=600)
    @given(_scenarios)
    @example(README_SCENARIO)
    @example({"config": {"drop_probability": 0, "proposal_delay": None}})
    @example({"config": {"node_count": 16.0, "run_height": 3}})
    @example({"config": {"drop_probability": math.nan}})
    @example({"config": {"adversaries": [{"kind": "crash", "start_tick": -1}]}})
    @example({"config": {}, "fairness_window": [1, 2.0]})
    def agree(doc):
        if not old_accepts(doc) or _tightened(doc):
            with pytest.raises((ScenarioError, SimConfigError)):
                scenario_from_doc(doc)
            return
        # the old schema took every value's type, so a SimConfig built
        # straight from the values must judge the file as scenario_from_doc
        # does; a ScenarioError here fails the test
        rest = dict(doc["config"])
        advs = tuple(AdversarySpec(**a) for a in rest.pop("adversaries", []))
        assert (_refusal(lambda: scenario_from_doc(doc))
                == _refusal(lambda: SimConfig(adversaries=advs, **rest)))

    agree()


def _python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(portchain.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


def test_cli_import_loads_neither_jsonschema_nor_mpmath():
    probe = "import sys, portchain.cli; print(sorted({'jsonschema', 'mpmath'} & set(sys.modules)))"
    assert _python(probe).stdout == "[]\n"


def test_tail_runs_without_mpmath():
    # a None entry in sys.modules makes `import mpmath` raise ImportError
    probe = ("import sys; sys.modules['mpmath'] = None; from portchain.cli import main; "
             "sys.exit(main(['tail', '--n', '300', '--p', '1/3', '--m', '100']))")
    done = _python(probe)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == ("n=300 m=100 p=1/3\n"
                           "exact_binomial_tail=0.521702591093824221647907881901\n"
                           "coefficient_free_sum=2.34775466714218875474692897385e-83\n")
