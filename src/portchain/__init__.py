"""Proof-of-refundable-tax consensus with a deterministic network simulator.

Maintainers are drawn with probability proportional to their accumulated
refundable tax, serve in a jump-step schedule recorded two heights ahead,
and commit blocks under a 2/3 vote-certificate rule that keeps the chain
fork-free.  The netsim module runs whole networks of these nodes through
a seeded discrete-event harness; analysis and cli audit the results.
"""

__all__ = [
    "adversary",
    "analysis",
    "cli",
    "core",
    "crypto",
    "engine",
    "ledger",
    "netsim",
    "selection",
    "trie",
]

__version__ = "0.1.0"
