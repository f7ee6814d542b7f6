"""Statistical and audit tooling against enumeration oracles."""
import dataclasses
import random
from fractions import Fraction

import pytest

from portchain.analysis import (
    AnalysisError,
    ChainInvalid,
    _assignment_draws,
    assert_single_chain,
    byzantine_tail,
    conservation_audit,
    fairness_from_draws,
    gini,
    render_fraction,
    replay_chain,
    replay_run,
    schedule_audit,
    steps_fairness,
)
from portchain.core import block_digest
from portchain.netsim import SimConfig, build_context, run
from portchain.selection import eligible_total_weight, weighted_descend
from portchain.trie import AccountState, StateTrie

from conftest import addr_of


def _tail_by_enumeration(n, p, m):
    """Brute force over all 2**n outcome vectors via popcount weights."""
    p = Fraction(p)
    q = 1 - p
    total = Fraction(0)
    for mask in range(2**n):
        k = mask.bit_count()
        if k >= m:
            total += p**k * q ** (n - k)
    return total


@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)])
def test_byzantine_tail_matches_enumeration(p):
    for n in (1, 2, 5, 9, 13):
        for m in range(0, n + 1):
            assert byzantine_tail(n, p, m).exact == _tail_by_enumeration(n, p, m)


def test_byzantine_tail_complement_is_exact():
    for n in (7, 40, 121):
        for m in (0, 1, n // 3, n):
            r = byzantine_tail(n, Fraction(1, 3), m)
            # lower tail P[X < m] computed independently
            low = sum(
                Fraction(1, 3) ** i * Fraction(2, 3) ** (n - i) * _comb(n, i)
                for i in range(m)
            )
            assert r.exact + low == 1


def _comb(n, k):
    import math

    return math.comb(n, k)


def test_byzantine_tail_edges_and_errors():
    r = byzantine_tail(10, Fraction(1, 3), 0)
    assert r.exact == 1
    assert byzantine_tail(10, 0, 1).exact == 0
    assert byzantine_tail(10, 1, 10).exact == 1
    with pytest.raises(AnalysisError):
        byzantine_tail(10, Fraction(3, 2), 1)
    with pytest.raises(AnalysisError):
        byzantine_tail(10, Fraction(1, 3), 11)


def test_coefficient_free_variant_is_smaller():
    r = byzantine_tail(30, Fraction(1, 3), 10)
    assert 0 < r.coefficient_free < r.exact
    # decimal renderings agree with the rationals they describe
    assert float(r.exact_str) == pytest.approx(float(r.exact))
    assert float(r.coefficient_free_str) == pytest.approx(float(r.coefficient_free))


def test_render_fraction():
    assert render_fraction(Fraction(1, 2), digits=5).startswith("0.5")
    assert "e-" in render_fraction(Fraction(1, 10**40), digits=5)


def test_gini_known_values():
    assert gini([5, 5, 5, 5]) == 0.0
    # maximal concentration on one holder gives (n-1)/n
    assert gini([0, 10]) == pytest.approx(0.5)
    assert gini([0, 0, 0, 12]) == pytest.approx(0.75)
    assert gini([1, 3]) == pytest.approx(0.25)
    # scale invariance
    assert gini([3, 9, 30]) == pytest.approx(gini([1, 3, 10]))
    with pytest.raises(AnalysisError):
        gini([])
    with pytest.raises(AnalysisError):
        gini([0, 0])
    with pytest.raises(AnalysisError):
        gini([-1, 2])


def test_fairness_expected_counts_sum_to_draws():
    a, b, c = addr_of("a"), addr_of("b"), addr_of("c")
    records = [({a: 6, b: 3, c: 1}, a), ({a: 6, b: 3}, b), ({b: 3, c: 1}, c)]
    rep = fairness_from_draws(records)
    assert rep.draws == 3
    assert sum(rep.expected_share.values()) == 1
    assert sum(rep.observed_count.values()) == 3
    assert rep.chi_square >= 0.0
    assert rep.degrees_of_freedom == 2
    with pytest.raises(AnalysisError):
        fairness_from_draws([])


def test_fairness_flags_rigged_draws():
    # weight says a wins 6/10 of the time; a rigged picker always takes c
    a, b, c = addr_of("a"), addr_of("b"), addr_of("c")
    weights = {a: 6, b: 3, c: 1}
    fair_exp = fairness_from_draws([(weights, a)] * 60 + [(weights, b)] * 30 + [(weights, c)] * 10)
    rigged = fairness_from_draws([(weights, c)] * 100)
    assert rigged.chi_square > 50 * max(fair_exp.chi_square, 0.1)


# --- end-to-end audits over a real run --------------------------------------


@pytest.fixture(scope="module")
def sim():
    cfg = SimConfig(seed=3, node_count=18, voter_count=4, creator_redundancy=2,
                    run_height=30, drop_probability=0.05)
    return cfg, build_context(cfg), run(cfg)


def test_replay_chain_accepts_committed_chain(sim):
    cfg, ctx, t = sim
    steps = replay_chain(t.chain, ctx.genesis_trie, ctx.genesis_assignments, ctx.engine_cfg)
    assert len(steps) == len(t.chain)
    assert steps[-1].post_trie.root_commitment() == t.chain[-1].header.state_root


def test_replay_chain_rejects_mutation(sim):
    cfg, ctx, t = sim
    bad = list(t.chain)
    h = len(bad) // 2
    # a doctored state root invalidates the block itself
    bad[h] = dataclasses.replace(
        bad[h], header=dataclasses.replace(bad[h].header, state_root=b"\x00" * 32)
    )
    with pytest.raises(ChainInvalid) as e:
        replay_chain(bad, ctx.genesis_trie, ctx.genesis_assignments, ctx.engine_cfg)
    assert e.value.height == h
    # a timestamp edit keeps the block self-consistent but breaks the
    # backward link of its successor
    bad = list(t.chain)
    bad[h] = dataclasses.replace(
        bad[h], header=dataclasses.replace(bad[h].header, timestamp=bad[h].header.timestamp + 1)
    )
    with pytest.raises(ChainInvalid) as e:
        replay_chain(bad, ctx.genesis_trie, ctx.genesis_assignments, ctx.engine_cfg)
    assert e.value.height == h + 1


def test_single_chain_and_mutation_detection(sim):
    cfg, ctx, t = sim
    ok, violation = assert_single_chain(t)
    assert ok and violation is None
    forged = list(list(c) for c in t.commits)
    h, _ = forged[0][3]
    forged[0][3] = (h, "ff" * 32)
    bad = dataclasses.replace(t, commits=tuple(tuple(c) for c in forged))
    ok, violation = assert_single_chain(bad)
    assert not ok
    assert violation[0] == h


def test_schedule_audit_clean_and_dirty(sim):
    cfg, ctx, t = sim
    assert schedule_audit(t.chain, ctx.genesis_assignments) == []
    # rewiring a creator must surface as a violation
    h = len(t.chain) - 1
    bad = list(t.chain)
    bad[h] = dataclasses.replace(
        bad[h], header=dataclasses.replace(bad[h].header, creator=addr_of("intruder"))
    )
    found = schedule_audit(bad, ctx.genesis_assignments)
    assert any(v[0] == h for v in found)


def test_schedule_audit_checks_the_last_recorded_pair(sim):
    # block len-2 records the assignment of height len(chain), which no
    # block uses yet; repeating height len-1's maintainers there still
    # makes them serve two heights in a row
    cfg, ctx, t = sim
    n = len(t.chain)
    bad = list(t.chain)
    repeat = dataclasses.replace(bad[-3].assignment, block_height=n)
    bad[-2] = dataclasses.replace(bad[-2], assignment=repeat)
    members = len(repeat.members())
    assert schedule_audit(bad, ctx.genesis_assignments) == [
        (n - 1, f"{members} address(es) serve heights {n - 1} and {n}")
    ]


def test_conservation_audit_balances(sim):
    cfg, ctx, t = sim
    audit = conservation_audit(t, ctx)
    assert audit["drift"] == 0
    assert audit["issued"] >= 0
    assert audit["total_end"] == audit["total_start"] + audit["issued"] - audit["confiscated"]


def test_selection_fairness_over_chain(sim):
    cfg, ctx, t = sim
    top = t.chain[-1].header.height
    rep = steps_fairness(replay_run(t, ctx), (1, top))
    assert rep.draws > 0
    assert sum(rep.expected_share.values()) == pytest.approx(1.0)
    assert rep.chi_square < 10 * max(rep.degrees_of_freedom, 1)


# --- integer chi-square against the per-draw Fraction loop -------------------


def _reference_fairness(draw_records):
    """The per-draw exact-Fraction accumulation that fairness_from_draws
    replaced; kept here as the bit-identity oracle."""
    expected = {}
    observed = {}
    draws = 0
    for weights, chosen in draw_records:
        total = sum(weights.values())
        if total <= 0:
            raise AnalysisError("draw with no eligible weight")
        for addr, w in weights.items():
            if w:
                expected[addr] = expected.get(addr, Fraction(0)) + Fraction(w, total)
        observed[chosen] = observed.get(chosen, 0) + 1
        draws += 1
    if draws == 0:
        raise AnalysisError("no draws in window")
    chi = 0.0
    for addr, exp in expected.items():
        obs = observed.get(addr, 0)
        chi += (obs - exp) ** 2 / exp
    share = {addr: exp / draws for addr, exp in expected.items()}
    return share, observed, float(chi), len(expected) - 1, draws


def _assert_same_as_reference(records):
    share, observed, chi, dof, draws = _reference_fairness(records)
    rep = fairness_from_draws(records)
    assert rep.chi_square == chi
    assert list(rep.expected_share.items()) == list(share.items())
    assert list(rep.observed_count.items()) == list(observed.items())
    assert (rep.degrees_of_freedom, rep.draws) == (dof, draws)
    return rep


def test_fairness_matches_reference_on_fixed_weights():
    # criterion-7 style: 50 accounts, one weight table, descent draws
    rng = random.Random(707)
    trie = StateTrie()
    addrs = [addr_of(f"fair{i}") for i in range(50)]
    for addr in addrs:
        trie = trie.upsert_account(addr, AccountState(balance=1, tax=rng.randint(0, 200)))
    weights = {a: trie.get_account(a).tax + 1 for a in addrs}
    total = eligible_total_weight(trie, set(), 0)
    records = [(weights, weighted_descend(trie, rng.randrange(total), set(), 0))
               for _ in range(2000)]
    assert _assert_same_as_reference(records).degrees_of_freedom == 49


def test_fairness_matches_reference_on_chain_draws(sim):
    # eligibility and taxes change from block to block
    cfg, ctx, t = sim
    steps = replay_chain(t.chain, ctx.genesis_trie, ctx.genesis_assignments, ctx.engine_cfg)
    records = []
    for i in range(1, len(steps)):
        records.extend(_assignment_draws(steps[i], steps[i - 1]))
    assert len({sum(w.values()) for w, _ in records}) > 1
    _assert_same_as_reference(records)


def test_fairness_matches_reference_with_zero_weights():
    a, b, c, d = (addr_of(x) for x in "abcd")
    # b first carries weight in the second draw and c in the third, whose
    # total equals the first draw's; d never carries weight
    records = [
        ({a: 4, b: 0, c: 0, d: 0}, a),
        ({b: 3, a: 0, d: 0}, b),
        ({a: 2, c: 2}, c),
        ({c: 1, b: 5, a: 4, d: 0}, a),
        ({a: 1, b: 1, c: 1, d: 0}, d),
    ]
    rep = _assert_same_as_reference(records)
    assert list(rep.expected_share) == [a, b, c]
    assert d in rep.observed_count and d not in rep.expected_share


def test_fairness_errors_match_reference():
    a, b = addr_of("a"), addr_of("b")
    for records in ([], [({a: 1}, a), ({a: 0, b: 0}, b)]):
        with pytest.raises(AnalysisError) as ref:
            _reference_fairness(records)
        with pytest.raises(AnalysisError) as new:
            fairness_from_draws(records)
        assert str(new.value) == str(ref.value)
