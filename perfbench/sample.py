"""One operation of one workload, in a fresh interpreter.

portchain keeps process-global caches (the crypto verify and key caches,
the engine re-hash memo, the trie nibble cache) that are never cleared, so
a second operation in one process would measure a different program.
run.py therefore starts this script once per operation, one at a time.

usage: python3 perfbench/sample.py WORKLOAD SEED OP TRACE TMPDIR [SPANS_FILE]

Prints one JSON line: the set-up end time (`time.monotonic`, which is
system-wide, so run.py can subtract its own spawn time), the wall time of
each timed phase, peak RSS, the gate failures, guards and fingerprint, and
with TRACE=1 the tracer's sums.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    workload, seed, op, trace, tmp = argv[1], int(argv[2]), int(argv[3]), argv[4] == "1", Path(argv[5])
    spans_file = argv[6] if len(argv) > 6 else None
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    result: dict = {"op": op}
    try:
        operation = workloads.prepare(workload, seed, op, tmp)
        result["ready"] = time.monotonic()
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        walls = {}
        try:
            for phase, fn in operation.phases():
                if tracer is not None:
                    tracer.begin_op(phase)
                t0 = time.perf_counter()
                fn()
                walls[phase] = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        # ru_maxrss is KiB on Linux; read it before the gates replay the chain
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["walls"] = walls
        result["failures"] = operation.check()
        result.update(operation.record())
        if tracer is not None:
            from portchain.core import block_digest

            result["leaks"] = tracer.leaks()
            result["trace"] = tracer.summary(block_digest)
            if spans_file:
                tracer.write(spans_file)
    except Exception:
        result["error"] = traceback.format_exc()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
