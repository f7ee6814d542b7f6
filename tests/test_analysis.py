"""Statistical and audit tooling against enumeration oracles."""
import dataclasses
import decimal
import math
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from portchain import netsim
from portchain.analysis import (
    AnalysisError,
    ChainDraws,
    ChainInvalid,
    DrawTally,
    _assignment_draws,
    assert_single_chain,
    byzantine_tail,
    conservation_audit,
    fairness_from_draws,
    gini,
    render_fraction,
    replay_chain,
    schedule_audit,
)
from portchain.core import block_digest, schedule_for
from portchain.netsim import SimConfig, build_context, run
from portchain.selection import weighted_descend
from portchain.trie import AccountState, StateTrie

from conftest import addr_of, eligible_total_weight, replayed_steps


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


def _tail_by_fraction_terms(n, p, m):
    """The per-term Fraction sums that byzantine_tail replaced by integer
    steps; kept as the reference for both results."""
    p = Fraction(p)
    q = 1 - p
    exact = bare = Fraction(0)
    for i in range(m, n + 1):
        term = p**i * q ** (n - i)
        bare += term
        exact += _comb(n, i) * term
    return exact, bare


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 7),
                               Fraction(1, 2), Fraction(123, 1001)])
def test_byzantine_tail_matches_the_fraction_terms(p):
    for n in (0, 1, 2, 6, 57, 300):
        for m in sorted({m for m in (0, 1, n // 3, n // 2, n - 1, n) if 0 <= m <= n}):
            r = byzantine_tail(n, p, m)
            assert (r.exact, r.coefficient_free) == _tail_by_fraction_terms(n, p, m)


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
    assert float(render_fraction(r.exact)) == pytest.approx(float(r.exact))
    assert float(render_fraction(r.coefficient_free)) == pytest.approx(float(r.coefficient_free))


def test_render_fraction():
    assert render_fraction(Fraction(1, 2), digits=5).startswith("0.5")
    assert "e-" in render_fraction(Fraction(1, 10**40), digits=5)


@pytest.mark.parametrize("x,digits,text", [
    # exact decimal ties round half up; mpmath rounded its binary
    # approximation and printed 0.1, 0.112, 0.999 and 6.2e+35 for the
    # first three and the last
    (Fraction(3, 20), 1, "0.2"),
    (Fraction(9, 80), 3, "0.113"),
    (Fraction(1999, 2000), 3, "1.00"),
    (Fraction(1, 8), 2, "0.13"),
    (Fraction(-1, 8), 2, "-0.13"),
    (Fraction(625 * 10**33), 2, "6.3e+35"),
    # the layout: a lone point, the fixed-notation window, zero
    (Fraction(1), 1, "1."),
    (Fraction(3, 10**32), 1, "3.e-32"),
    (Fraction(123456), 6, "123456."),
    (Fraction(1234567), 6, "1.23457e+6"),
    (Fraction(-1, 10**4), 3, "-0.000100"),
    (Fraction(-1, 10**5), 3, "-1.00e-5"),
    (Fraction(1, 10**10), 33, "0.000000000100000000000000000000000000000000"),
    (Fraction(1, 10**11), 33, "1.00000000000000000000000000000000e-11"),
    (Fraction(0), 5, "0"),
])
def test_render_fraction_pinned(x, digits, text):
    assert render_fraction(x, digits) == text


def _mpmath_render(x: Fraction, digits: int) -> str:
    """The mpmath body render_fraction had before it used decimal."""
    import mpmath

    if x == 0:
        return "0"
    with mpmath.workdps(digits + 15):
        v = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
        return mpmath.nstr(v, digits, strip_zeros=False)


def _rounded_half_up(x: Fraction, digits: int):
    """x rounded half away from zero to `digits` significant digits in
    exact rational arithmetic, and whether x lies exactly halfway."""
    a = abs(x)
    # the power of ten of the leading digit: a bit-length estimate, then
    # corrected exactly
    e = math.floor((a.numerator.bit_length() - a.denominator.bit_length()) * math.log10(2))
    while Fraction(10) ** e > a:
        e -= 1
    while Fraction(10) ** (e + 1) <= a:
        e += 1
    unit = Fraction(10) ** (e + 1 - digits)
    scaled = a / unit
    rest = scaled - math.floor(scaled)
    rounded = (math.floor(scaled) + (rest >= Fraction(1, 2))) * unit
    return (rounded if x > 0 else -rounded), rest == Fraction(1, 2)


def _render_corpus():
    rng = random.Random(18)

    def digits():
        return rng.choice([rng.randint(1, 6), rng.randint(1, 40), rng.randint(1, 1000)])

    def sign():
        return rng.choice([1, -1])

    cases = []
    for _ in range(1600):
        num, den = rng.randint(1, 10 ** rng.randint(1, 40)), rng.randint(1, 10 ** rng.randint(1, 40))
        cases.append((Fraction(sign() * num, den), digits()))
    for _ in range(1600):
        cases.append((Fraction(sign() * rng.randint(1, 2**40), 2 ** rng.randint(0, 80)), digits()))
    for _ in range(600):
        cases.append((sign() * rng.randint(1, 999) * Fraction(10) ** rng.randint(-40, 40),
                      rng.randint(1, 4)))
    # exact ties, dyadic or not: a last significant digit 5 dropped
    for _ in range(600):
        tie = 10 * rng.randint(1, 10 ** rng.randint(1, 30)) + 5
        cases.append((sign() * tie * Fraction(10) ** rng.randint(-40, 40), len(str(tie)) - 1))
    for n in range(1, 301, 3):
        for p in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 20), Fraction(9, 80)):
            r = byzantine_tail(n, p, rng.randint(0, n))
            cases += [(r.exact, digits()), (r.coefficient_free, digits())]
    big = byzantine_tail(40_000, Fraction(1, 3), 13_334)
    cases += [(x, d) for x in (big.exact, big.coefficient_free) for d in (1, 30, 1000)]
    return cases


def test_render_fraction_matches_mpmath_off_ties():
    pytest.importorskip("mpmath")
    ties = 0
    for x, digits in _render_corpus():
        text = render_fraction(x, digits)
        value, tie = _rounded_half_up(x, digits)
        assert Fraction(decimal.Decimal(text)) == value, (x, digits, text)
        if tie:
            ties += 1
        else:
            assert text == _mpmath_render(x, digits), (x, digits, text)
    # the corpus holds ties, where render_fraction rounds exactly and
    # mpmath need not
    assert ties > 100


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
    steps = replayed_steps(t.chain, ctx)
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
        replay_chain(bad, ctx)
    assert e.value.height == h
    # a timestamp edit keeps the block self-consistent but breaks the
    # backward link of its successor
    bad = list(t.chain)
    bad[h] = dataclasses.replace(
        bad[h], header=dataclasses.replace(bad[h].header, timestamp=bad[h].header.timestamp + 1)
    )
    with pytest.raises(ChainInvalid) as e:
        replay_chain(bad, ctx)
    assert e.value.height == h + 1
    # a chain without its genesis block, and one missing a height
    for bad, height, reason in [(t.chain[1:], 1, "chain does not start at genesis"),
                                (t.chain[:h] + t.chain[h + 1:], h + 1, f"expected height {h}")]:
        with pytest.raises(ChainInvalid) as e:
            replay_chain(bad, ctx)
        assert (e.value.height, e.value.reason) == (height, reason)


def test_replay_keeps_no_result_two_heights_back(sim):
    # a height's result is still the parent of the next one, and gone
    # once the replay has validated the height after that
    cfg, ctx, t = sim
    refs, gone = [], []

    def visit(step, parent):
        refs.append(weakref.ref(step))
        if len(refs) >= 3:
            gone.append(refs[-3]() is None)
        if len(refs) >= 2:
            assert refs[-2]() is parent

    head = replay_chain(t.chain, ctx, visit)
    assert refs[-1]() is head
    assert gone == [True] * (len(t.chain) - 3)


def test_replay_memory_does_not_grow_with_the_chain():
    # a 100-height prefix of a 400-height chain against the whole chain:
    # the replay holds the parent's post-state only, not one per height
    cfg = SimConfig(seed=1, node_count=16, voter_count=3, run_height=400)
    chain, ctx = run(cfg).chain, build_context(cfg)
    replay_chain(chain[:5], ctx)  # first-use allocations outside the measurement
    peaks = {}
    tracemalloc.start()
    try:
        for heights in (100, 400):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            head = replay_chain(chain[:heights + 1], ctx)
            peaks[heights] = tracemalloc.get_traced_memory()[1] - base
            assert head.block.header.height == heights
    finally:
        tracemalloc.stop()
    assert abs(peaks[400] - peaks[100]) < 0.25 * 2**20


def foreign_genesis_chain(monkeypatch):
    """(config, the scenario's context, a chain run on a genesis with the
    scenario's header over a body whose height-2 creators are reversed)."""
    cfg = SimConfig(seed=3, node_count=18, voter_count=4, run_height=12)
    ctx = build_context(cfg)
    genesis = ctx.genesis_block
    swapped = dataclasses.replace(genesis.assignment, creators=genesis.assignment.creators[::-1])
    foreign = dataclasses.replace(ctx, genesis_block=dataclasses.replace(genesis, assignment=swapped))
    with monkeypatch.context() as m:
        m.setattr(netsim, "build_context", lambda config: foreign)
        chain = run(cfg).chain
    assert chain[0].header == genesis.header and chain[0] != genesis
    return cfg, ctx, chain


def test_replay_chain_refuses_a_foreign_genesis_body(monkeypatch):
    # the body's assignment serves height 2, so the header alone does not
    # fix where the chain starts
    _, ctx, chain = foreign_genesis_chain(monkeypatch)
    assert len(chain) == 13
    with pytest.raises(ChainInvalid) as e:
        replay_chain(chain, ctx)
    assert (e.value.height, e.value.reason) == (0, "genesis does not match the scenario config")


def test_single_chain_and_mutation_detection(sim):
    cfg, ctx, t = sim
    ok, violation = assert_single_chain(t)
    assert ok and violation is None
    # forge node 0's fourth commit record with another digest that shares
    # its first 8 bytes, all that a 16-hex-digit label shows
    records = list(t.records)
    i = [k for k, rec in enumerate(records) if rec[1] == 0 and rec[2] == "commit"][3]
    tick, node, kind, h, d = records[i]
    forged = d[:8] + bytes(x ^ 0xFF for x in d[8:])
    records[i] = (tick, node, kind, h, forged)
    bad = dataclasses.replace(t, records=tuple(records))
    ok, violation = assert_single_chain(bad)
    assert not ok
    assert violation[0] == h and forged.hex() in violation[1] and d.hex() in violation[1]
    # a node that commits a height again
    again = dataclasses.replace(t, records=t.records + (t.records[i],))
    assert assert_single_chain(again) == (False, (h, f"node 0 committed height {h} twice"))


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


def _tamper_certificate(blk, **changes):
    cert = dataclasses.replace(blk.header.prev_certificate, **changes)
    return dataclasses.replace(blk, header=dataclasses.replace(blk.header, prev_certificate=cert))


@pytest.mark.parametrize("tamper,reason", [
    (lambda blk: _tamper_certificate(blk, target_hash=b"\x00" * 32),
     "certificate does not cover the previous block"),
    (lambda blk: _tamper_certificate(blk, votes=(
        dataclasses.replace(blk.header.prev_certificate.votes[0], voter=addr_of("intruder")),
        *blk.header.prev_certificate.votes[1:])),
     "certificate signed by a non-scheduled voter"),
    (lambda blk: _tamper_certificate(blk, votes=blk.header.prev_certificate.votes[:1]),
     "certificate below the 2/3 quorum"),
], ids=["wrong-target", "non-scheduled-voter", "below-quorum"])
def test_schedule_audit_names_a_tampered_certificate(sim, tamper, reason):
    cfg, ctx, t = sim
    h = len(t.chain) - 1  # no block certifies the last one
    assert schedule_audit(t.chain[:h] + (tamper(t.chain[h]),), ctx.genesis_assignments) == [
        (h, reason)
    ]


def test_schedule_audit_names_a_missing_or_mislabeled_schedule(sim):
    cfg, ctx, t = sim
    # without a genesis assignment for height 1, nothing schedules it
    assert schedule_audit(t.chain, {2: ctx.genesis_assignments[2]}) == [
        (1, "no schedule recorded two heights earlier")
    ]
    bad = list(t.chain)
    asg = bad[3].assignment
    bad[3] = dataclasses.replace(bad[3], assignment=dataclasses.replace(
        asg, block_height=asg.block_height + 1))
    assert schedule_audit(bad, ctx.genesis_assignments) == [
        (5, "recorded assignment labeled for a different height")
    ]


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
    assert audit["total_end"] == audit["total_start"] + audit["issued"]


def test_selection_fairness_over_chain(sim):
    cfg, ctx, t = sim
    top = t.chain[-1].header.height
    draws = ChainDraws(t.chain, ctx.genesis_assignments, (1, top))
    replay_chain(t.chain, ctx, draws)
    rep = draws.report()
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
    steps = replayed_steps(t.chain, ctx)
    records = []
    for i in range(1, len(steps)):
        serving = schedule_for(t.chain, ctx.genesis_assignments, i)
        records.extend(_assignment_draws(steps[i], steps[i - 1], serving))
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


def test_fairness_matches_reference_on_runs_of_shared_tables():
    # runs of records that share one weights object, of lengths 1 to 40,
    # between tables with equal contents in distinct dicts, a table that
    # comes back after another, and two tables with one total
    rng = random.Random(11)
    addrs = [addr_of(f"run{i}") for i in range(12)]
    tables = [{a: rng.randint(0, 9) for a in addrs} for _ in range(4)]
    tables.append(dict(tables[0]))
    tables.append({a: w for a, w in reversed(list(tables[1].items()))})
    records = []
    for _ in range(60):
        weights = rng.choice(tables)
        records.extend((weights, rng.choice(addrs)) for _ in range(rng.randint(1, 40)))
    _assert_same_as_reference(records)


def test_fairness_errors_match_reference():
    a, b = addr_of("a"), addr_of("b")
    for records in ([], [({a: 1}, a), ({a: 0, b: 0}, b)]):
        with pytest.raises(AnalysisError) as ref:
            _reference_fairness(records)
        with pytest.raises(AnalysisError) as new:
            fairness_from_draws(records)
        assert str(new.value) == str(ref.value)


def test_fairness_folds_a_one_shot_generator(sim):
    # the tally reads its records once, in any batches: a generator, the
    # equal list, and the chain's draws folded during the replay agree
    cfg, ctx, t = sim
    top = t.chain[-1].header.height
    steps = replayed_steps(t.chain, ctx)
    chain_records = [
        record for h in range(1, len(steps))
        for record in _assignment_draws(steps[h], steps[h - 1],
                                        schedule_for(t.chain, ctx.genesis_assignments, h))
    ]
    rng = random.Random(5)
    addrs = [addr_of(f"gen{i}") for i in range(20)]
    weights = {a: rng.randint(1, 9) for a in addrs}
    shared = [(weights, rng.choice(addrs)) for _ in range(500)]
    for records in (chain_records, shared):
        from_list = fairness_from_draws(records)
        from_generator = fairness_from_draws(record for record in records)
        assert from_generator == from_list
        assert repr(from_generator.chi_square) == repr(from_list.chi_square)
        # a run of one weights object spans two batches
        tally = DrawTally()
        tally.extend(records[:7])
        tally.extend(iter(records[7:]))
        assert tally.report() == from_list
    draws = ChainDraws(t.chain, ctx.genesis_assignments, (1, top))
    replay_chain(t.chain, ctx, draws)
    assert draws.report() == fairness_from_draws(chain_records)
