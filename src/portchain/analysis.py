"""Quantitative verification over simulation output.

Four families of checks live here: exact quorum-failure probabilities
(big binomial tails in rational arithmetic), selection-fairness
statistics (Pearson chi-square against per-draw expected shares), wealth
metrics (Gini), and transcript audits (single-chain, schedule wiring,
and conservation of balance plus tax under explicit issuance).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Block, VoteCertificate, block_digest
from .crypto import Address
from .engine import BlockExecutor, EngineConfig, quorum_threshold
from .trie import StateTrie


class AnalysisError(ValueError):
    """Raised for arguments outside a metric's domain."""


# ---------------------------------------------------------------------------
# quorum-failure tail


@dataclass(frozen=True)
class TailResult:
    """Probability that at least m of n independent trials succeed.

    exact is the true binomial tail; coefficient_free drops the binomial
    coefficient from every term (a much smaller number that some
    back-of-envelope treatments quote).  Both are exact rationals with
    decimal renderings to `digits` significant digits.
    """

    n: int
    m: int
    p: Fraction
    exact: Fraction
    coefficient_free: Fraction
    digits: int = 30

    @property
    def exact_str(self) -> str:
        return render_fraction(self.exact, self.digits)

    @property
    def coefficient_free_str(self) -> str:
        return render_fraction(self.coefficient_free, self.digits)


def render_fraction(x: Fraction, digits: int = 30) -> str:
    """Decimal string of an exact rational to `digits` significant digits."""
    # imported here: tail is its only caller, and run and import then
    # start without it
    import mpmath

    if x == 0:
        return "0"
    # work at a precision comfortably beyond the requested digits so the
    # two big-int -> float conversions cannot eat into them
    with mpmath.workdps(digits + 15):
        v = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
        return mpmath.nstr(v, digits, strip_zeros=False)


def byzantine_tail(n: int, p, m: int, digits: int = 30) -> TailResult:
    """Exact P[X >= m] for X ~ Binomial(n, p), plus the coefficient-free
    variant sum_{i=m}^{n} p^i (1-p)^(n-i)."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise AnalysisError(f"probability {p} outside [0, 1]")
    if not 0 <= m <= n:
        raise AnalysisError(f"threshold m={m} outside [0, {n}]")
    q = 1 - p
    exact = Fraction(0)
    bare = Fraction(0)
    for i in range(m, n + 1):
        term = p**i * q ** (n - i)
        bare += term
        exact += math.comb(n, i) * term
    return TailResult(n=n, m=m, p=p, exact=exact, coefficient_free=bare, digits=digits)


# ---------------------------------------------------------------------------
# wealth distribution


def gini(balances) -> float:
    """Gini coefficient by mean absolute difference, exact until the
    final division."""
    values = sorted(balances)
    n = len(values)
    if n == 0:
        raise AnalysisError("empty balance list")
    if any(v < 0 for v in values):
        raise AnalysisError("negative balance")
    total = sum(values)
    if total == 0:
        raise AnalysisError("all balances zero")
    # sorted form: sum_i (2i - n + 1) * x_i equals the pairwise
    # absolute-difference sum
    weighted = sum((2 * i - n + 1) * v for i, v in enumerate(values))
    return float(Fraction(weighted, n * total))


# ---------------------------------------------------------------------------
# selection fairness


@dataclass
class FairnessReport:
    expected_share: dict
    observed_count: dict
    chi_square: float
    degrees_of_freedom: int
    draws: int


def fairness_from_draws(draw_records) -> FairnessReport:
    """Pearson chi-square over selection draws.

    Each record is (weights, chosen): the eligible weight of every
    candidate at that draw (exclusions already applied as zero or
    absent), and the address selected.  Expected counts accumulate the
    per-draw probabilities, so changing eligibility between draws is
    handled exactly.

    Weights are summed as integers per (draw total, address), and one
    Fraction is built per distinct total: the same exact rationals as
    adding w/total draw by draw.  Addresses keep the order in which they
    first carry weight, so the float chi-square sums its terms in that
    order too.
    """
    expected: dict[Address, Fraction] = {}
    sums_by_total: dict[int, dict[Address, int]] = {}
    observed: dict[Address, int] = {}
    draws = 0
    for weights, chosen in draw_records:
        total = sum(weights.values())
        if total <= 0:
            raise AnalysisError("draw with no eligible weight")
        sums = sums_by_total.get(total)
        if sums is None:
            sums = sums_by_total[total] = {}
        for addr, w in weights.items():
            if w:
                s = sums.get(addr)
                if s is None:
                    sums[addr] = w
                    expected.setdefault(addr, Fraction(0))
                else:
                    sums[addr] = s + w
        observed[chosen] = observed.get(chosen, 0) + 1
        draws += 1
    if draws == 0:
        raise AnalysisError("no draws in window")
    for total, sums in sums_by_total.items():
        for addr, s in sums.items():
            expected[addr] += Fraction(s, total)
    chi = 0.0
    for addr, exp in expected.items():
        obs = observed.get(addr, 0)
        chi += (obs - exp) ** 2 / exp
    share = {addr: exp / draws for addr, exp in expected.items()}
    return FairnessReport(
        expected_share=share,
        observed_count=observed,
        chi_square=float(chi),
        degrees_of_freedom=len(expected) - 1,
        draws=draws,
    )


# ---------------------------------------------------------------------------
# chain replay and audits


class ChainInvalid(ValueError):
    def __init__(self, height: int, reason: str):
        super().__init__(f"height {height}: {reason}")
        self.height = height
        self.reason = reason


@dataclass
class ReplayStep:
    block: Block
    pre_trie: StateTrie
    post_trie: StateTrie
    issued: int
    confiscated: int
    schedule: object  # MaintainerAssignment serving this height


def schedule_for(chain, genesis_assignments: dict, h: int):
    """The assignment serving height h: the one recorded in block h-2 of
    the chain, or for heights below 2 the genesis assignment, if any."""
    if 2 <= h <= len(chain) + 1:
        return chain[h - 2].assignment
    return genesis_assignments.get(h)


def replay_chain(chain, genesis_trie: StateTrie, genesis_assignments: dict, engine_cfg: EngineConfig):
    """Re-execute a committed chain from genesis, verifying every block.

    Checks per height: the creator occupies an assigned slot, the
    backward link matches, the embedded certificate covers the parent
    and clears the 2/3 quorum of the scheduled voters, and the block's
    state root, transaction root, and recorded assignment all equal the
    independent re-computation.  Raises ChainInvalid at the first
    offending height, else returns the list of ReplayStep.
    """
    if not chain:
        return []
    if chain[0].header.height != 0:
        raise ChainInvalid(chain[0].header.height, "chain does not start at genesis")
    executor = BlockExecutor(engine_cfg)
    steps = [
        ReplayStep(
            block=chain[0],
            pre_trie=genesis_trie,
            post_trie=genesis_trie,
            issued=0,
            confiscated=0,
            schedule=chain[0].assignment,
        )
    ]
    trie = genesis_trie
    for h in range(1, len(chain)):
        blk = chain[h]
        if blk.header.height != h:
            raise ChainInvalid(blk.header.height, f"expected height {h}")
        schedule = schedule_for(chain, genesis_assignments, h)
        if schedule is None or schedule.block_height != h:
            raise ChainInvalid(h, "no schedule recorded for this height")
        prev_sched = schedule_for(chain, genesis_assignments, h - 1)
        clear_members = prev_sched.members() if prev_sched is not None else ()
        result = executor.validate(blk, chain[h - 1], trie, schedule, clear_members)
        if not result.valid:
            raise ChainInvalid(h, result.reason)
        steps.append(
            ReplayStep(
                block=blk,
                pre_trie=trie,
                post_trie=result.post_trie,
                issued=result.issued,
                confiscated=result.confiscated,
                schedule=schedule,
            )
        )
        trie = result.post_trie
    return steps


def replay_run(transcript, context):
    """replay_chain over a simulation's committed chain, from the genesis
    state of the run's context."""
    return replay_chain(
        transcript.chain, context.genesis_trie, context.genesis_assignments, context.engine_cfg
    )


def steps_fairness(steps, window) -> FairnessReport:
    """Fairness of the maintainer draws recorded in a replayed chain.

    steps are the ReplaySteps of `replay_chain`, which carry the post-block
    states the per-draw weights come from; window is an inclusive (first,
    last) height range of the blocks whose embedded assignments are
    tallied.
    """
    lo, hi = window
    records = []
    for i, step in enumerate(steps):
        h = step.block.header.height
        # genesis carries a hand-built assignment, not a weighted draw
        if h < 1 or not lo <= h <= hi:
            continue
        records.extend(_assignment_draws(step, steps[i - 1]))
    if not records:
        raise AnalysisError(f"no selection draws in window {window}")
    return fairness_from_draws(records)


def _assignment_draws(step: ReplayStep, prev_step: ReplayStep):
    """Per-slot (weights, chosen) records for the selection a block performed.

    The exclusion set mirrors the selection routine: the maintainers
    serving this height, the already-assigned maintainers of the next
    height (the parent block's recorded assignment), active blacklist
    entries, and each pick in slot order.
    """
    trie = step.post_trie
    h = step.block.header.height
    excluded = set(step.schedule.members())
    excluded.update(prev_step.block.assignment.members())
    excluded.update(trie.active_blacklist(h))
    records = []
    for chosen in step.block.assignment.members():
        weights = {}
        for addr, state in trie.accounts():
            if addr in excluded:
                continue
            weights[addr] = state.weight
        records.append((weights, chosen))
        excluded.add(chosen)
    return records


def assert_single_chain(transcript):
    """True iff all nodes committed identical digests at every height and
    no node committed a height twice.  Returns (ok, first_violation)."""
    by_height: dict[int, str] = {}
    for node_idx, commits in enumerate(transcript.commits):
        seen_heights = set()
        for h, dhex in commits:
            if h in seen_heights:
                return False, (h, f"node {node_idx} committed height {h} twice")
            seen_heights.add(h)
            other = by_height.get(h)
            if other is None:
                by_height[h] = dhex
            elif other != dhex:
                return False, (h, f"conflicting digests at height {h}: {other} vs {dhex}")
    return True, None


def schedule_audit(chain, genesis_assignments: dict):
    """Wiring checks on a committed chain: every block's creator and
    certificate voters belong to the assignment recorded two heights
    earlier, and no address serves two consecutive heights.  Returns a
    list of (height, description) violations."""
    violations = []
    for h in range(1, len(chain)):
        blk = chain[h]
        sched = schedule_for(chain, genesis_assignments, h)
        if sched is None:
            violations.append((h, "no schedule recorded two heights earlier"))
            continue
        if sched.block_height != h:
            violations.append((h, "recorded assignment labeled for a different height"))
        if blk.header.creator not in sched.creators:
            violations.append((h, "creator not drawn from the height's assignment"))
        cert = blk.header.prev_certificate
        if cert.target_hash != block_digest(chain[h - 1].header):
            violations.append((h, "certificate does not cover the previous block"))
        voters = set(sched.voters)
        cert_voters = [v.voter for v in cert.votes]
        if any(v not in voters for v in cert_voters):
            violations.append((h, "certificate signed by a non-scheduled voter"))
        if len(set(cert_voters)) < quorum_threshold(len(sched.voters)):
            violations.append((h, "certificate below the 2/3 quorum"))
    # block h-2 records the assignment of height h, so the chain fixes
    # heights 1 to len(chain) + 1
    for h in range(1, len(chain) + 1):
        a = schedule_for(chain, genesis_assignments, h)
        b = schedule_for(chain, genesis_assignments, h + 1)
        if a is None or b is None:
            continue
        overlap = set(a.members()) & set(b.members())
        if overlap:
            violations.append((h, f"{len(overlap)} address(es) serve heights {h} and {h + 1}"))
    return violations


def conservation_audit(transcript, context) -> dict:
    """Exact accounting of balance + tax over a run.

    The end-of-chain total must equal the genesis total plus logged
    issuance (refund clamps mint the shortfall; rewards are minted on
    refund) minus confiscations.  Returns the totals and the drift,
    which is zero iff the books balance.
    """
    return steps_conservation(replay_run(transcript, context), context.genesis_trie)


def steps_conservation(steps, genesis_trie: StateTrie) -> dict:
    """conservation_audit over the ReplaySteps of an already replayed chain."""
    start = _money_total(genesis_trie)
    issued = sum(s.issued for s in steps)
    confiscated = sum(s.confiscated for s in steps)
    end = _money_total(steps[-1].post_trie) if steps else start
    return {
        "total_start": start,
        "total_end": end,
        "issued": issued,
        "confiscated": confiscated,
        "drift": end - (start + issued - confiscated),
    }


def _money_total(trie: StateTrie) -> int:
    return sum(state.balance + state.tax for _, state in trie.accounts())
