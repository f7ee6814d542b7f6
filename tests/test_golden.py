"""Pinned transcript and report digests.

Each transcript digest was recorded before the build-once and idle-wake
changes to the engine (the last four before the tick-bucket event queue,
the two node-scoped vote adversaries before the Node's consensus
state was cut to one copy of each fact, and the two mixed-kind runs
before Byzantine behaviour moved out of the Node), and the README scenario's
report digest before the single-replay and integer chi-square changes to
the audits; a change that
alters any simulated event, counter, block or report line shows up here.
A change that alters a digest on purpose says why in CHANGES.md and
re-records it.
"""
import hashlib
import json
import re
from pathlib import Path

import pytest

from portchain.cli import run_scenario, scenario_from_doc
from portchain.netsim import AdversarySpec, SimConfig, run

from conftest import adversary_config, criterion_9_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _crash_twice_config(*spans):
    # node 3 crashes once per (start, recover) span; None recovers never
    return SimConfig(seed=4, node_count=16, run_height=40, drop_probability=0.05,
                     adversaries=tuple(
                         AdversarySpec(kind="crash", node=3, start_tick=start, recover_tick=end)
                         for start, end in spans
                     ))


def _mixed_config(*adversaries):
    # the adversary_config run with more than one kind
    return SimConfig(seed=1, node_count=24, voter_count=4, run_height=60,
                     adversaries=adversaries)


GOLDEN = [
    (criterion_9_config(0), "27d7b7742389bc76aa9bca34e675f94ebdb46f0d351010c2d754019aa8125742"),
    (criterion_9_config(1), "ad8a30e1f5372bc11157707b9f3b0d0e916794e96b08e8efe616f2b6849a0cb1"),
    (criterion_9_config(2), "a18c44ada14a79fd854ab824d3996a018c0a69a1da5ce7dc79ba851ec9f1cd38"),
    (criterion_9_config(3), "a852a162df90fdd858740b88c642194fda7291884012ece317ea0dde5ec15ff0"),
    (criterion_9_config(4), "fcdc9e1ed29532e8ad25d69893492112fbf19263348caa4959b1af447c321374"),
    (criterion_9_config(5), "0d1a34d2ba198a97a8cc340318097c4313c3237432caabfa35b2646625b55c6d"),
    (criterion_9_config(6), "cb403511daf134ec415ba4b3e7b98af2c3c61b6acef81862c476ba470eb94d89"),
    (criterion_9_config(7), "02104f79ccd8d73a1fde5618d1555ecf361079f5d7599e09cf654d2bc42fb30e"),
    (criterion_9_config(8), "2d2d04a33e8b547b114c1f8ba73416da013454930a99856355308cbbb5232c54"),
    (criterion_9_config(9), "1c5e0e19e9db8be3b6b4950dd3257fd342c8caa623975b7d12a3bb5234d290d5"),
    (adversary_config("equivocate_creator"),
     "2715abdde8b26cebf0d74e9f500e4dec370cbb3d896f1e1b6269e05eb02edd20"),
    (adversary_config("forge_assignment"),
     "8eb9d26d11b79cd33787a37705a557970f72c8d9a532b1c866b06391e03da4b6"),
    # node 19 holds voter slot 0 at height 1 (it votes on genesis)
    (adversary_config("vote_withhold", node=19),
     "6c2c5ad9ad36094bea1d2ad62dea385278b4856ea52c7dbf79e4c7d66d036a26"),
    (adversary_config("vote_disapprove_all", node=19),
     "4585c2959c5177794244411515fbd9c712faf14bd9277031addeebe300ca145d"),
    # crash recovery on a lossy network
    (SimConfig(seed=4, node_count=16, run_height=30, drop_probability=0.05,
               adversaries=(
                   AdversarySpec(kind="crash", node=3, start_tick=10, recover_tick=120),
                   AdversarySpec(kind="crash", node=7, start_tick=40, recover_tick=200),
               )),
     "21f6c1e0a347ab7e5ff0395870b2c07b53bbbe019acf23a85501b44189cdcea5"),
    # zero minimum latency: deliveries land on the tick they were sent
    (SimConfig(seed=11, node_count=16, run_height=30, latency_min=0, latency_max=1,
               drop_probability=0.02),
     "6c44c1204cf64b5abf1aac99d43607a507d79b9846ac040fd5d29090b08b5a60"),
    # two of three voter slots disapprove everything: stall by patience
    (SimConfig(seed=12, run_height=30, stall_patience=200,
               adversaries=(AdversarySpec(kind="vote_disapprove_all", voter_slot=0),
                            AdversarySpec(kind="vote_disapprove_all", voter_slot=1))),
     "a00810a0f20c43537a6ab6f4df668067e412e6b479fb1def41893b2d6cec2837"),
    # the run stops at max_ticks before reaching run_height
    (SimConfig(seed=13, run_height=400, max_ticks=600),
     "00b5ade41f12705fb349036373ae25a08811149bb8751f2e59a975a6fbc1b21b"),
    # more transactions than blocks take: stale mempool entries are rejected
    (SimConfig(seed=14, tx_interval=3, txs_per_interval=4, latency_max=2, run_height=30),
     "744efb6ffc3b399476fe1f88dbf905c1eef712fead813ccef3ee975a742d457c"),
    # one node crashed twice: nested recovering crashes (the node stays
    # down until the outer one ends), a recovery and then a permanent
    # crash, and two permanent crashes
    (_crash_twice_config((60, 300), (150, 200)),
     "300f270c0c4274b8953dad3821befeef11963b17444cb1f0708ccf0fe2faa49e"),
    (_crash_twice_config((60, 150), (250, None)),
     "da8d2b12335ca3532a12d2dca493afd808a53a3b35fe641e94f2ec79d67497aa"),
    (_crash_twice_config((60, None), (90, None)),
     "64496bb6d761517ecb359afc1aa1aaa1f1cda169ac516769c3fda1ac8ead343b"),
    # a node-scoped proposal kind with a voter-slot vote kind: the slot's
    # kind also rewrites the votes of the node that plays the proposal kind
    # (node 2 holds voter slot 0 at three committed heights)
    (_mixed_config(AdversarySpec(kind="forge_assignment", node=2),
                   AdversarySpec(kind="vote_disapprove_all", voter_slot=0)),
     "0f4d52ddba22705e4df3da4a24638c7631a5d3942af90b06a2bc9d10bc5bf921"),
    (_mixed_config(AdversarySpec(kind="equivocate_creator", node=2),
                   AdversarySpec(kind="vote_withhold", voter_slot=1)),
     "042fd1719730ce8c1e4298880a648115a150a7959a0afa051a09391dc69b3e5a"),
]


@pytest.mark.parametrize(
    "cfg,expected", GOLDEN,
    ids=[f"c9-{s}" for s in range(10)]
    + ["equivocate", "forge", "withhold-node", "disapprove-node", "crash-drops", "same-tick", "stall-patience", "max-ticks",
       "stale-mempool", "crash-nested", "crash-recover-then-permanent", "crash-two-permanent",
       "forge-node-disapprove-slot", "equivocate-node-withhold-slot"],
)
def test_transcript_digest_pinned(cfg, expected):
    assert run(cfg).digest_hex() == expected


# the scenario file shown in README.md, with all five checks
README_SCENARIO = {
    "config": {
        "seed": 6, "node_count": 21, "voter_count": 5, "creator_redundancy": 2,
        "run_height": 200, "latency_min": 1, "latency_max": 3, "drop_probability": 0.05,
        "adversaries": [
            {"kind": "crash", "node": 3, "start_tick": 100, "recover_tick": 400},
            {"kind": "vote_withhold", "voter_slot": 1},
        ],
    },
    "checks": ["single_chain", "schedule", "conservation", "fairness", "liveness"],
    "allow_stall": False,
}


def test_readme_scenario_report_pinned():
    report, code = run_scenario(scenario_from_doc(README_SCENARIO))
    assert code == 0
    assert "committed_head=200\n" in report
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "e0344534237b4461f938326ee251eb350f1505e1e2bb88c7ee8a84148b6e1972"
    )


def test_readme_shows_the_pinned_scenario_file():
    # the report pinned above is that of the scenario file README.md shows
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    assert json.loads(blocks[0]) == README_SCENARIO


@pytest.mark.xfail(strict=True, reason="lock-split deadlock: the voters' locked parents "
                   "split between two siblings and no lock is ever released (ROADMAP item 1)")
@pytest.mark.parametrize("seed", [146968, 313267])
def test_readme_scenario_is_live_on_lock_split_seeds(seed):
    config = {**README_SCENARIO["config"], "seed": seed}
    report, _ = run_scenario(scenario_from_doc({**README_SCENARIO, "config": config}))
    assert "check_liveness=pass" in report


@pytest.mark.xfail(strict=True, reason="no approvable candidate: the only honest creator "
                   "linked the lower-ranked qualified sibling and the twins are refused, "
                   "so nothing proposes at the height again (ROADMAP item 1)")
def test_equivocation_run_is_live_with_a_one_height_blacklist():
    cfg = SimConfig(seed=5, node_count=18, voter_count=3, run_height=120, blacklist_duration=1,
                    drop_probability=0.04,
                    adversaries=(AdversarySpec(kind="equivocate_creator", node=5),))
    t = run(cfg)
    assert not t.stalled and t.chain[-1].header.height >= cfg.run_height
