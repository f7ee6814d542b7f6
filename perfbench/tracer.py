"""Spans around calls into each portchain layer, installed from outside.

Module-level functions are bound into their callers by `from ... import`,
so every alias gets its own wrapper; methods are wrapped once on their
class.  A span records its name, start, end, parent span (from a call
stack: the program is single-threaded) and operation id.  Spans stay in
memory in flat arrays and are written out once, when the operation ends.

Span file format (`*.spans.gz`, gzip): one JSON header line with the name
table, the operation table and the row count, then the raw native-endian
arrays `name` (i32), `parent` (i32, -1 for a root span), `op` (i32),
`start` and `end` (f64, `time.perf_counter` seconds), in that order.
"""
from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array

# (module, attribute, span name); one entry per alias that callers bind
FUNCTION_ALIASES = [
    *(("portchain." + m, "verify", "crypto.verify") for m in ("crypto", "core", "engine", "ledger")),
    *(("portchain." + m, "sign", "crypto.sign") for m in ("crypto", "engine", "netsim")),
    *(("portchain." + m, "select_assignment", "selection.select_assignment") for m in ("selection", "engine")),
    ("portchain.selection", "weighted_descend", "selection.weighted_descend"),
    *(("portchain." + m, "apply_transaction", "ledger.apply_transaction") for m in ("ledger", "engine")),
    *(("portchain." + m, "refund_reward", "ledger.refund_reward") for m in ("ledger", "engine")),
    ("portchain.engine", "assemble_block", "engine.assemble_block"),
    *(("portchain." + m, "run", "netsim.run") for m in ("netsim", "cli")),
    ("portchain.netsim", "build_context", "netsim.build_context"),
    # a span name of its own, so build_context calls by the CLI can be counted;
    # the prefix keeps their self time in the netsim layer
    ("portchain.cli", "build_context", "netsim.build_context.cli"),
    *(("portchain." + m, "block_digest", "core.block_digest")
      for m in ("core", "engine", "netsim", "cli", "analysis")),
    *(("portchain." + m, "encode_chain", "core.encode_chain") for m in ("core", "netsim", "cli")),
    *(("portchain." + m, "decode_chain", "core.decode_chain") for m in ("core", "cli")),
    ("portchain.analysis", "replay_chain", "analysis.replay_chain"),
    ("portchain.analysis", "fairness_from_draws", "analysis.fairness_from_draws"),
    ("portchain.cli", "main", "cli.main"),
]

# (module, class, method, span name)
METHODS = [
    ("portchain.engine", "Node", "handle", "engine.handle"),
    ("portchain.engine", "BlockExecutor", "validate", "engine.validate"),
    ("portchain.trie", "StateTrie", "upsert_account", "trie.upsert_account"),
    ("portchain.trie", "StateTrie", "get_account", "trie.get_account"),
    ("portchain.trie", "StateTrie", "root_commitment", "trie.root_commitment"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ops: list[str] = []  # operation id -> kind
        self.current_op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        # per-span facts the metrics need, keyed by span index
        self.raised: set[int] = set()
        self.sizes: dict[int, int] = {}
        self.verify_triples: set = set()
        self.validated: list = []
        self.transcripts: list = []

    def begin_op(self, kind: str) -> None:
        self.current_op = len(self.ops)
        self.ops.append(kind)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str, note=None, keyed=False):
        base_id = self.name_id(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, perf, name_id = self._stack, time.perf_counter, self.name_id
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            # Node.handle(self, kind, payload, tick): one span name per kind
            names.append(name_id(f"{name}.{args[1]}") if keyed else base_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised.add(idx)
                raise
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if note is not None:
                note(idx, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # notes taken at the wrappers, for ratios measured where the work happens
    def _note_verify(self, idx, args, result):
        self.verify_triples.add(tuple(args[:3]))

    def _note_validate(self, idx, args, result):
        self.validated.append(args[1].header)

    def _note_run(self, idx, args, result):
        self.transcripts.append(result)

    def _note_arg_len(self, idx, args, result):
        self.sizes[idx] = len(args[0])

    def _note_result_len(self, idx, args, result):
        self.sizes[idx] = len(result)

    def _note_draws(self, idx, args, result):
        self.sizes[idx] = result.draws

    def install(self) -> None:
        notes = {
            "crypto.verify": self._note_verify,
            "engine.validate": self._note_validate,
            "netsim.run": self._note_run,
            "analysis.replay_chain": self._note_arg_len,
            "core.encode_chain": self._note_arg_len,
            "core.decode_chain": self._note_result_len,
            "analysis.fairness_from_draws": self._note_draws,
        }
        for module, attr, name in FUNCTION_ALIASES:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._installed.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, notes.get(name)))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = vars(cls)[attr]
            self._installed.append((cls, attr, original))
            wrapper = self._wrap(original, name, notes.get(name), keyed=name == "engine.handle")
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)

    def leaks(self) -> list[str]:
        """Aliases that do not hold their original object any more."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._installed
            if (vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)) is not original
        ]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        own = list(durations)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= durations[i]
        return own

    def _nearest(self, idx: int, names: set[int]) -> int:
        """Name id of the closest ancestor span whose name is in `names`."""
        p = self.parent[idx]
        while p >= 0 and self.name[p] not in names:
            p = self.parent[p]
        return self.name[p] if p >= 0 else -1

    def summary(self, block_digest) -> dict:
        """Raw sums for one operation set; run.py adds them across samples
        and derives the per-layer metrics.  `block_digest` must be the
        unwrapped function."""
        own = self.self_times()
        spans: dict[str, list] = {}
        for i, nid in enumerate(self.name):
            row = spans.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self.end[i] - self.start[i]
            row[2] += own[i]
        ids = {n: self._name_ids.get(n, -2) for n in (
            "netsim.run", "analysis.replay_chain", "engine.assemble_block",
            "ledger.apply_transaction", "core.encode_chain", "core.decode_chain",
            "analysis.fairness_from_draws", "netsim.build_context.cli")}
        phases = {ids["netsim.run"], ids["analysis.replay_chain"]}
        sums = {name: 0 for name in (
            "assemble_in_sim", "apply_tx_accepted", "replay_in_cli_run",
            "build_context_in_cli_run", "replay_blocks",
            "fairness_draws", "encode_blocks", "decode_blocks")}
        durations = {name: 0.0 for name in ("replay_s", "fairness_s", "encode_s", "decode_s")}
        by_size = {
            ids["analysis.replay_chain"]: ("replay_blocks", "replay_s"),
            ids["analysis.fairness_from_draws"]: ("fairness_draws", "fairness_s"),
            ids["core.encode_chain"]: ("encode_blocks", "encode_s"),
            ids["core.decode_chain"]: ("decode_blocks", "decode_s"),
        }
        for i, nid in enumerate(self.name):
            if nid == ids["engine.assemble_block"] and self._nearest(i, phases) == ids["netsim.run"]:
                sums["assemble_in_sim"] += 1
            elif nid == ids["ledger.apply_transaction"] and i not in self.raised:
                sums["apply_tx_accepted"] += 1
            elif nid == ids["netsim.build_context.cli"] and self.ops[self.op[i]] == "cli_run":
                sums["build_context_in_cli_run"] += 1
            elif nid in by_size:
                count, seconds = by_size[nid]
                sums[count] += self.sizes.get(i, 0)
                durations[seconds] += self.end[i] - self.start[i]
                if nid == ids["analysis.replay_chain"] and self.ops[self.op[i]] == "cli_run":
                    sums["replay_in_cli_run"] += 1
        t = self.transcripts
        return {
            "spans": spans,
            **sums,
            **durations,
            "cli_runs": self.ops.count("cli_run"),
            "validate_distinct": len({block_digest(h) for h in self.validated}),
            "verify_distinct": len(self.verify_triples),
            "proposals": sum(1 for tr in t for e in tr.events if e[2] == "propose"),
            "heights": sum(max(b.header.height for b in tr.chain) for tr in t),
            "msgs_sent": sum(tr.counters["msgs_sent"] for tr in t),
            "msgs_dropped": sum(tr.counters["msgs_dropped"] for tr in t),
            "msgs_delivered": sum(tr.counters["msgs_delivered"] for tr in t),
        }

    def write(self, path) -> None:
        header = {"names": self.names, "ops": self.ops, "rows": len(self.start),
                  "fields": ["name", "parent", "op", "start", "end"]}
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(f)
