"""Quantitative verification over simulation output.

Four families of checks live here: exact quorum-failure probabilities
(big binomial tails in rational arithmetic), selection-fairness
statistics (Pearson chi-square against per-draw expected shares), wealth
metrics (Gini), and transcript audits (single-chain, schedule wiring,
and conservation of balance plus tax under explicit issuance).

A chain replay hands each height's result to the caller's fold and
keeps only the parent's, so the audits that read post-states (issuance,
the head's state, the maintainer draws) are folds over one pass, and a
replay holds one post-state at a time.
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


class DrawTally:
    """Pearson chi-square over selection draws, folded one batch of
    records at a time (`extend`), so no caller holds every draw.

    Each record is (weights, chosen): the eligible weight of every
    candidate at that draw (exclusions already applied as zero or
    absent), and the address selected.  Expected counts accumulate the
    per-draw probabilities, so changing eligibility between draws is
    handled exactly.

    Weights are summed as integers per (draw total, address), and one
    Fraction is built per distinct total: the same exact rationals as
    adding w/total draw by draw.  A run of consecutive records that share
    one weights object, also across `extend` calls, adds w * (run length)
    once, so a caller must not change a weights dict after passing it in
    a record.  Addresses keep the order in which they first carry
    weight, so the float chi-square sums its terms in that order too.
    """

    def __init__(self):
        # chosen address -> times drawn, in the order first drawn
        self.observed: dict[Address, int] = {}
        # draw total -> address -> integer weight sum
        self._sums_by_total: dict[int, dict[Address, int]] = {}
        # addresses in the order they first carry weight
        self._carried: dict[Address, None] = {}
        # the open run: its weights object and its length
        self._weights = None
        self._count = 0

    def extend(self, draw_records) -> None:
        weights, count, observed = self._weights, self._count, self.observed
        for w, chosen in draw_records:
            if w is not weights:
                if count:
                    self._close_run(weights, count)
                weights, count = w, 0
            count += 1
            observed[chosen] = observed.get(chosen, 0) + 1
        self._weights, self._count = weights, count

    def _close_run(self, weights: dict, count: int) -> None:
        total = sum(weights.values())
        if total <= 0:
            raise AnalysisError("draw with no eligible weight")
        sums = self._sums_by_total.get(total)
        if sums is None:
            sums = self._sums_by_total[total] = {}
        for addr, w in weights.items():
            if w:
                s = sums.get(addr)
                if s is None:
                    sums[addr] = w * count
                    self._carried.setdefault(addr)
                else:
                    sums[addr] = s + w * count

    def report(self) -> FairnessReport:
        if self._count:
            self._close_run(self._weights, self._count)
            self._weights, self._count = None, 0
        draws = sum(self.observed.values())
        if draws == 0:
            raise AnalysisError("no draws in window")
        expected = dict.fromkeys(self._carried, Fraction(0))
        for total, sums in self._sums_by_total.items():
            for addr, s in sums.items():
                expected[addr] += Fraction(s, total)
        chi = 0.0
        observed = self.observed
        for addr, exp in expected.items():
            obs = observed.get(addr, 0)
            chi += (obs - exp) ** 2 / exp
        share = {addr: exp / draws for addr, exp in expected.items()}
        return FairnessReport(
            expected_share=share,
            observed_count=dict(observed),
            chi_square=float(chi),
            degrees_of_freedom=len(expected) - 1,
            draws=draws,
        )


def fairness_from_draws(draw_records) -> FairnessReport:
    """The `DrawTally` report of draw_records, any iterable of (weights,
    chosen) records, read once."""
    tally = DrawTally()
    tally.extend(draw_records)
    return tally.report()


# 0.01 upper-tail chi-square quantile by the Wilson-Hilferty cube
# approximation; at 49 degrees of freedom this gives 74.9
_Z_99 = 2.3263478740408408


def chi_square_critical(dof: int) -> float:
    if dof < 1:
        raise ValueError("degrees of freedom must be positive")
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + _Z_99 * c**0.5) ** 3


# ---------------------------------------------------------------------------
# chain replay and audits


class ChainInvalid(ValueError):
    def __init__(self, height: int, reason: str):
        super().__init__(f"height {height}: {reason}")
        self.height = height
        self.reason = reason


def replay_chain(chain, context, visit=None) -> ExecResult:
    """Re-execute a committed chain from the genesis block of context (a
    `netsim.SimContext`), verifying every block.

    The chain must start with that genesis block, header and body: the
    body records the assignment that serves height 2.  Checks per height
    above it: the creator occupies an assigned slot, the backward link
    matches, the embedded certificate covers the parent and clears the
    2/3 quorum of the scheduled voters, and the block's state root,
    transaction root, and recorded assignment all equal the independent
    re-computation.  Raises ChainInvalid at the first offending height.

    Each height's `engine.ExecResult` goes to visit(step, parent), with
    its parent's (genesis's first), in height order, and the head's is
    returned.  The replay keeps the parent's result only, and its
    executor forgets each height once the next has validated, so the
    caller's fold decides what outlives a height: memory does not grow
    with the chain beyond the chain itself.
    """
    if chain and chain[0].header.height != 0:
        raise ChainInvalid(chain[0].header.height, "chain does not start at genesis")
    # a chain with no blocks has no genesis either
    if not chain or chain[0] != context.genesis_block:
        raise ChainInvalid(0, "genesis does not match the scenario config")
    executor = BlockExecutor(context)
    parent = ExecResult(chain[0], context.genesis_trie)
    for h in range(1, len(chain)):
        blk = chain[h]
        if blk.header.height != h:
            raise ChainInvalid(blk.header.height, f"expected height {h}")
        schedule = schedule_for(chain, context.genesis_assignments, h)
        if schedule is None or schedule.block_height != h:
            raise ChainInvalid(h, "no schedule recorded for this height")
        result = executor.validate(blk, chain[h - 1], parent.post_trie, schedule,
                                   duty_ended(chain, context.genesis_assignments, h))
        if not result.valid:
            raise ChainInvalid(h, result.reason)
        # validating h + 1 reads no memo entry below it
        executor.forget_below(h)
        if visit is not None:
            visit(result, parent)
        parent = result
    return parent


def verify_chain(chain, context) -> int:
    """The head height of chain, once `replay_chain` has verified every
    block of it from the genesis block of context."""
    return replay_chain(chain, context).block.header.height


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
    commit records.  Returns (ok, first_violation).  A node commits in
    height order, so only each node's last committed height is kept."""
    by_height: dict[int, bytes] = {}
    last: dict[int, int] = {}
    for _, node, kind, *rest in transcript.records:
        if kind != "commit":
            continue
        h, d = rest
        if h <= last.get(node, 0):
            return False, (h, f"node {node} committed height {h} twice")
        last[node] = h
        other = by_height.setdefault(h, d)
        if other != d:
            return False, (h, f"conflicting digests at height {h}: {other.hex()} vs {d.hex()}")
    return True, None


def schedule_audit(chain, genesis_assignments: dict):
    """Wiring checks on a committed chain: every block's creator and
    certificate voters belong to the assignment recorded two heights
    earlier, and no address serves two consecutive heights.  Returns a
    list of (height, description) violations.  The replay checks most of
    this again; this is the independent check, which reads no signature
    and re-derives nothing."""
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
    issued = 0

    def add_issuance(step, parent):
        nonlocal issued
        issued += step.issued

    head = replay_chain(transcript.chain, context, add_issuance)
    return conservation(context.genesis_trie, head.post_trie, issued)


def conservation(genesis_trie: StateTrie, head_trie: StateTrie, issued: int) -> dict:
    """conservation_audit's totals, from the genesis and head states of an
    already replayed chain and the issuance its blocks logged."""
    start = _money_total(genesis_trie)
    end = _money_total(head_trie)
    return {
        "total_start": start,
        "total_end": end,
        "issued": issued,
        "drift": end - start - issued,
    }


def _money_total(trie: StateTrie) -> int:
    return sum(state.balance + state.tax for _, state in trie.accounts())


# in report order
KNOWN_CHECKS = ("single_chain", "schedule", "conservation", "fairness", "liveness")


@dataclass(frozen=True)
class Report:
    """What `audit` found: the report's key/value fields in report order,
    and each enabled check's verdict (True for a pass)."""

    fields: dict
    verdicts: dict


def audit(transcript, checks) -> Report:
    """The enabled checks (any of KNOWN_CHECKS) on a run: a header of its
    digests, head, ticks and stall, each check's figures and verdict, and
    the Gini coefficients of genesis and the head's state.  Liveness asks
    for an unstalled run whose head reached its config's run_height."""
    context, chain = transcript.context, transcript.chain
    head = len(chain) - 1
    fields = {
        "config_digest": transcript.config_digest,
        "transcript_digest": transcript.digest_hex(),
        "committed_head": head,
        "ticks": transcript.ticks,
        "stalled": int(transcript.stalled),
    }
    verdicts = {}

    def judge(check: str, outcome: str) -> None:
        # outcome is the check's report value: "pass", or "fail" and why
        verdicts[check] = outcome == "pass"
        fields[f"check_{check}"] = outcome

    if "single_chain" in checks:
        ok, violation = assert_single_chain(transcript)
        judge("single_chain", "pass" if ok else f"fail:{violation}")
    if "schedule" in checks:
        violations = schedule_audit(chain, context.genesis_assignments)
        judge("schedule", f"fail:{violations[0]}" if violations else "pass")

    # one replay serves conservation, fairness and Gini: each folds what it
    # needs as the replay passes a height, and a chain the replay refuses
    # fails both checks and has no Gini lines
    window = (1, max(head - 2, 1))
    tally = DrawTally()
    issued = 0

    def visit(step, parent):
        nonlocal issued
        issued += step.issued
        h = step.block.header.height
        if "fairness" in checks and window[0] <= h <= window[1]:
            serving = schedule_for(chain, context.genesis_assignments, h)
            tally.extend(_assignment_draws(step, parent, serving))

    try:
        last, error = replay_chain(chain, context, visit), None
    except ChainInvalid as exc:
        last, error = None, exc

    if "conservation" in checks:
        if last is None:
            judge("conservation", f"fail:{error}")
        else:
            books = conservation(context.genesis_trie, last.post_trie, issued)
            judge("conservation", f"fail:drift={books['drift']}" if books["drift"] else "pass")
            fields["issued"] = books["issued"]
    if "fairness" in checks:
        if last is not None and not tally.observed:
            error = AnalysisError(f"no selection draws in window {window}")
        if error is None:
            # each draw of a block the replay validated had eligible weight
            fr = tally.report()
            critical = chi_square_critical(fr.degrees_of_freedom)
            fields["fairness_chi_square"] = f"{fr.chi_square:.6f}"
            fields["fairness_dof"] = fr.degrees_of_freedom
            fields["fairness_critical_0p01"] = f"{critical:.6f}"
            judge("fairness", "pass" if fr.chi_square < critical else "fail")
        else:
            fields["fairness_error"] = str(error)
            judge("fairness", "fail")
    if "liveness" in checks:
        live = not transcript.stalled and head >= context.config.run_height
        judge("liveness", "pass" if live else f"fail:head={head}")

    if last is not None:
        for key, trie in (("gini_genesis", context.genesis_trie), ("gini_final", last.post_trie)):
            balances = [s.balance for _, s in trie.accounts()]
            # the Gini coefficient has no value when every balance is zero
            fields[key] = f"{gini(balances):.6f}" if sum(balances) else "undefined"
    return Report(fields, verdicts)
