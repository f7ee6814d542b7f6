"""Command-line interface: exit codes, reports, chain export and import."""
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import portchain
from portchain import analysis
from portchain.cli import (
    DEFAULT_CHECKS,
    KNOWN_CHECKS,
    ScenarioError,
    check_scenario,
    chi_square_critical,
    main,
    run_scenario,
)
from portchain.core import (
    decode_chain,
    encode_block,
    encode_chain,
    encode_header,
    encode_vote,
)
from portchain.crypto import ADDRESS_SIZE, HASH_SIZE
from portchain.netsim import NODE_BEHAVIOR_KINDS, SimConfig

from conftest import pad_nested_blob
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


def _exported(tmp_path, capsys):
    path = _scenario(tmp_path)
    chain_path = tmp_path / "chain.bin"
    assert main(["run", "--config", str(path), "--export-chain", str(chain_path)]) == 0
    capsys.readouterr()
    data = chain_path.read_bytes()
    block = next(b for b in decode_chain(data) if b.header.prev_certificate.votes)
    return path, chain_path, data, block


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
    # integral floats in integer fields: a TypeError traceback in
    # build_context, and a run with the float in its config digest
    ({"node_count": 16.0, "run_height": 3}, "node_count"),
    ({"run_height": 3.0}, "run_height"),
    # refused by SimConfig.validate before, by check_scenario now
    ({"drop_probability": math.nan}, "drop_probability"),
    # a run whose own replay refused it, exit 1
    ({"max_txs": -1}, "max_txs"),
    # silently ran, exit 0
    ({"txs_per_interval": -2}, "txs_per_interval"),
    ({"proposal_delay": -5}, "proposal_delay"),
    # reported as stalls, exit 1
    ({"max_ticks": -1}, "max_ticks"),
    ({"stall_patience": -1}, "stall_patience"),
], ids=["genesis-tax-2**62", "crash-node-99", "voter-slot-99", "withhold-node-99",
        "node-count-16.0", "run-height-3.0", "drop-probability-nan", "max-txs--1",
        "txs-per-interval--2", "proposal-delay--5", "max-ticks--1", "stall-patience--1"])
def test_hostile_config_exits_2(tmp_path, capsys, config, named):
    path = _scenario(tmp_path, config=config)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


# The jsonschema document that checked scenario files before check_scenario
# replaced it, kept as the reference the checker must agree with.
_OLD_ADVERSARY_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["crash", *NODE_BEHAVIOR_KINDS]},
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
    """True if a document the old schema accepts has one of the two
    values check_scenario rejects on purpose: an integral float such as
    16.0 where an integer belongs (the old "integer" type took it), or a
    NaN drop_probability (which passed the old range and then failed
    SimConfig.validate)."""
    config = doc["config"]
    ints = [v for k, v in config.items() if k not in ("drop_probability", "adversaries")]
    ints += [v for adv in config.get("adversaries", []) for k, v in adv.items() if k != "kind"]
    ints += doc.get("fairness_window", [])
    return any(isinstance(v, float) for v in ints) or math.isnan(config.get("drop_probability", 0))


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
    "kind": _mostly(st.sampled_from(["crash", *NODE_BEHAVIOR_KINDS, "bogus"])),
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


def test_check_scenario_agrees_with_the_old_schema():
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
        try:
            check_scenario(doc)
            accepted = True
        except ScenarioError:
            accepted = False
        old = old_accepts(doc)
        assert accepted == (old and not _tightened(doc))

    agree()


def test_cli_import_loads_neither_jsonschema_nor_mpmath():
    src = str(Path(portchain.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, portchain.cli; print(sorted({'jsonschema', 'mpmath'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"
