"""Quantitative verification over simulation output.

Four families of checks live here: exact quorum-failure probabilities
(big binomial tails in rational arithmetic), selection-fairness
statistics (Pearson chi-square against per-draw expected shares), wealth
metrics (Gini), and transcript audits (single-chain, schedule wiring,
and conservation of balance plus tax under explicit issuance).
"""
from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import block_digest, duty_ended, schedule_for
from .crypto import Address
from .engine import BlockExecutor, ExecResult, quorum_threshold
from .selection import draw_exclusions
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
    back-of-envelope treatments quote).  Both are exact rationals;
    render_fraction prints them.
    """

    n: int
    m: int
    p: Fraction
    exact: Fraction
    coefficient_free: Fraction


def render_fraction(x: Fraction, digits: int = 30) -> str:
    """x correctly rounded, half up, to `digits` >= 1 significant digits:
    fixed notation for a leading digit at 10**e with
    min(-(digits // 3), -5) < e < digits, otherwise d.ddde+N or d.ddde-N."""
    if x == 0:
        return "0"
    context = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_UP,
                              Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
    q = context.divide(x.numerator, x.denominator)
    negative, digit_tuple, _ = q.as_tuple()
    sign, coefficient = "-" * negative, "".join(map(str, digit_tuple)).ljust(digits, "0")
    e = q.adjusted()
    if min(-(digits // 3), -5) < e < digits:
        body, split = "0" * -e + coefficient, max(e, 0) + 1  # no zeros for e >= 0
        return f"{sign}{body[:split]}.{body[split:]}"
    return f"{sign}{coefficient[0]}.{coefficient[1:]}e{e:+d}"


def byzantine_tail(n: int, p, m: int) -> TailResult:
    """Exact P[X >= m] for X ~ Binomial(n, p), plus the coefficient-free
    variant sum_{i=m}^{n} p^i (1-p)^(n-i)."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise AnalysisError(f"probability {p} outside [0, 1]")
    if not 0 <= m <= n:
        raise AnalysisError(f"threshold m={m} outside [0, {n}]")
    # with p = a/b and c = b - a, term i is the integer a**i * c**(n-i)
    # over b**n, times C(n, i) in the exact tail.  Each term follows from
    # the one before by small factors and an exact division by c (and
    # by i + 1 for the coefficient), so a term costs time linear in its
    # size and one Fraction is built per sum.  For p = 1 (c = 0) every
    # term below i = n is zero.
    a, b = p.numerator, p.denominator
    c = b - a
    first = n if c == 0 else m
    bare = a**first * c ** (n - first)
    term = math.comb(n, first) * bare
    exact_sum, bare_sum = term, bare
    for i in range(first, n):
        bare = bare * a // c
        term = term * (a * (n - i)) // (c * (i + 1))
        exact_sum += term
        bare_sum += bare
    denominator = b**n
    return TailResult(
        n=n, m=m, p=p, exact=Fraction(exact_sum, denominator),
        coefficient_free=Fraction(bare_sum, denominator),
    )


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
    adding w/total draw by draw.  A run of consecutive records that share
    one weights object adds w * (run length) once, so a caller must not
    change a weights dict after passing it in a record.  Addresses keep
    the order in which they first carry weight, so the float chi-square
    sums its terms in that order too.
    """
    expected: dict[Address, Fraction] = {}
    sums_by_total: dict[int, dict[Address, int]] = {}
    observed: dict[Address, int] = {}
    draws = 0
    # [weights, count] per run of consecutive records sharing one weights
    # object, in record order
    runs: list[list] = []
    for weights, chosen in draw_records:
        if runs and runs[-1][0] is weights:
            runs[-1][1] += 1
        else:
            runs.append([weights, 1])
        observed[chosen] = observed.get(chosen, 0) + 1
    for weights, count in runs:
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
                    sums[addr] = w * count
                    expected.setdefault(addr, Fraction(0))
                else:
                    sums[addr] = s + w * count
        draws += count
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


def replay_chain(chain, context):
    """Re-execute a committed chain from the genesis block of context (a
    `netsim.SimContext`), verifying every block.

    The chain must start with that genesis block, header and body: the
    body records the assignment that serves height 2.  Checks per height
    above it: the creator occupies an assigned slot, the backward link
    matches, the embedded certificate covers the parent and clears the
    2/3 quorum of the scheduled voters, and the block's state root,
    transaction root, and recorded assignment all equal the independent
    re-computation.  Raises ChainInvalid at the first offending height,
    else returns one `engine.ExecResult` per height, genesis first.
    """
    if chain and chain[0].header.height != 0:
        raise ChainInvalid(chain[0].header.height, "chain does not start at genesis")
    # a chain with no blocks has no genesis either
    if not chain or chain[0] != context.genesis_block:
        raise ChainInvalid(0, "genesis does not match the scenario config")
    executor = BlockExecutor(context.engine_cfg)
    results = [ExecResult(chain[0], context.genesis_trie)]
    for h in range(1, len(chain)):
        blk = chain[h]
        if blk.header.height != h:
            raise ChainInvalid(blk.header.height, f"expected height {h}")
        schedule = schedule_for(chain, context.genesis_assignments, h)
        if schedule is None or schedule.block_height != h:
            raise ChainInvalid(h, "no schedule recorded for this height")
        result = executor.validate(blk, chain[h - 1], results[-1].post_trie, schedule,
                                   duty_ended(chain, context.genesis_assignments, h))
        if not result.valid:
            raise ChainInvalid(h, result.reason)
        results.append(result)
    return results


def steps_fairness(steps, genesis_assignments: dict, window) -> FairnessReport:
    """Fairness of the maintainer draws recorded in a replayed chain.

    steps are the results of `replay_chain`, which carry the post-block
    states the per-draw weights come from; genesis_assignments are the
    run's, which with the replayed blocks give each height's serving
    schedule (`core.schedule_for`); window is an inclusive (first, last)
    height range of the blocks whose embedded assignments are tallied.
    """
    lo, hi = window
    blocks = [step.block for step in steps]
    records = []
    for i, step in enumerate(steps):
        h = step.block.header.height
        # genesis carries a hand-built assignment, not a weighted draw
        if h < 1 or not lo <= h <= hi:
            continue
        serving = schedule_for(blocks, genesis_assignments, h)
        records.extend(_assignment_draws(step, steps[i - 1], serving))
    if not records:
        raise AnalysisError(f"no selection draws in window {window}")
    return fairness_from_draws(records)


def _assignment_draws(step: ExecResult, prev_step: ExecResult, serving):
    """Per-slot (weights, chosen) records for the selection a block
    performed: the draw of `select_assignment` on the maintainers serving
    the height (serving) and, as its extra exclusions, the parent block's
    recorded assignment, with each pick excluded from the later slots."""
    trie = step.post_trie
    h = step.block.header.height
    next_members = prev_step.block.assignment.members()
    excluded = draw_exclusions(trie, serving.members() + next_members, h)
    accounts = [(addr, state.weight) for addr, state in trie.accounts()]
    records = []
    for chosen in step.block.assignment.members():
        weights = {addr: w for addr, w in accounts if addr not in excluded}
        records.append((weights, chosen))
        excluded.add(chosen)
    return records


def assert_single_chain(transcript):
    """True iff all nodes committed identical full digests at every height
    and no node committed a height twice, judged on the transcript's
    commit records.  Returns (ok, first_violation)."""
    by_height: dict[int, bytes] = {}
    committed = set()
    for _, node, kind, *rest in transcript.records:
        if kind != "commit":
            continue
        h, d = rest
        if (node, h) in committed:
            return False, (h, f"node {node} committed height {h} twice")
        committed.add((node, h))
        other = by_height.setdefault(h, d)
        if other != d:
            return False, (h, f"conflicting digests at height {h}: {other.hex()} vs {d.hex()}")
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
    issuance (refund clamps mint the shortfall; reporter rewards are
    minted).  Returns the totals and the drift, which is zero iff the
    books balance.
    """
    return steps_conservation(replay_chain(transcript.chain, context), context.genesis_trie)


def steps_conservation(steps, genesis_trie: StateTrie) -> dict:
    """conservation_audit over the results of an already replayed chain."""
    start = _money_total(genesis_trie)
    issued = sum(s.issued for s in steps)
    end = _money_total(steps[-1].post_trie) if steps else start
    return {
        "total_start": start,
        "total_end": end,
        "issued": issued,
        "drift": end - start - issued,
    }


def _money_total(trie: StateTrie) -> int:
    return sum(state.balance + state.tax for _, state in trie.accounts())
