"""Byzantine behaviour, after Twins (Bano et al., OPODIS 2021): honest code
changed only where it decides.  A kind is one entry of `KINDS`, and
`ByzantineNode` plays it by overriding one of `engine.Node`'s two
decisions, so the node's own state follows the honest path."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from . import core
from .engine import Node


def _equivocate(node, blk, pre_trie) -> list:
    # the timestamp enters only the header, so the twin's body and
    # post-state are the proposal's; `replace` leaves the digest cached on
    # the proposal's header behind
    return [blk, replace(blk, header=replace(blk.header, timestamp=blk.header.timestamp + 1))]


def _forge(node, blk, pre_trie) -> list:
    """Replace the last assigned voter with a crony; the header keeps the
    forged assignment digest so the forgery is internally consistent but
    fails independent re-selection."""
    members = set(blk.assignment.members())
    crony = next((addr for addr, _ in pre_trie.accounts()
                  if addr not in members and addr != node.addr), None)
    if crony is None:
        return [blk]
    forged = replace(blk.assignment, voters=blk.assignment.voters[:-1] + (crony,))
    header = replace(blk.header, assignment_digest=core.assignment_digest(forged))
    return [replace(blk, header=header, assignment=forged)]


@dataclass(frozen=True)
class Kind:
    scopes: tuple  # the AdversarySpec fields that may name who plays it
    vote: Callable | None = None  # honest approval -> the one cast, or None: no vote
    proposals: Callable | None = None  # (node, block, pre_trie) -> the blocks sent


KINDS = {
    "vote_withhold": Kind(("node", "voter_slot"), vote=lambda approve: None),
    "vote_disapprove_all": Kind(("node", "voter_slot"), vote=lambda approve: False),
    "equivocate_creator": Kind(("node",), proposals=_equivocate),
    "forge_assignment": Kind(("node",), proposals=_forge),
}


class ByzantineNode(Node):
    """A Node that plays `kind` (None: none) and, where it holds a voter
    slot of `slot_kinds`, that slot's kind.  A node-scoped vote kind holds
    at every height; otherwise the slot's kind rewrites the vote, also for
    a node that plays a proposal kind."""

    def __init__(self, index, context, executor, *, kind: str | None, slot_kinds: dict):
        super().__init__(index, context, executor)
        self.own = KINDS.get(kind, Kind(()))
        self._slot_votes = {slot: KINDS[k].vote for slot, k in slot_kinds.items()}

    def _vote_rule(self, voter_schedule) -> Callable | None:
        return self.own.vote or self._slot_votes.get(voter_schedule.voters.index(self.addr))

    def _cast_vote(self, voter_schedule, target, approve, level, actions) -> None:
        rule = self._vote_rule(voter_schedule)
        approve = approve if rule is None else rule(approve)
        if approve is not None:
            super()._cast_vote(voter_schedule, target, approve, level, actions)

    def _proposals(self, block, pre_trie) -> list:
        return (self.own.proposals or Node._proposals)(self, block, pre_trie)
