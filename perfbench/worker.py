"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py SRC_DIR [--trace]

Protocol, one line per message.  The worker prints "ready" once the package
is imported and reads the op list (JSON, a list of argv lists) from stdin.
It times `reference_loop()` before the first op and after each op.  Last, it
prints one JSON object with a record per op, the reference times, and the
process's peak RSS (and the trace, with --trace).  Every op calls
`pglcensus.cli.main(argv, out=buffer)` in this process, so the ops of a pass
share the package's caches, as in one library session.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def reference_loop() -> float:
    """Time a fixed piece of pure-Python work, about 16 ms on a 2-core Xeon:
    dict lookups, tuple building and small-integer arithmetic, as in the
    package's field code.  It keeps nothing, so it adds nothing to peak RSS.
    Timed in this thread next to an op, it follows the speed of the CPU the
    op ran on."""
    t0 = time.perf_counter()
    table = {}
    for i in range(12000):
        key = (i * 7919) % 331
        value = table.get(key, (1, 2, 3))
        table[key] = tuple((x * 3 + i) % 251 for x in value)
    return time.perf_counter() - t0


def main() -> int:
    src = sys.argv[1]
    trace = "--trace" in sys.argv[2:]
    # protocol lines go to the real stdout; anything else printed goes to stderr
    proto, sys.stdout = sys.stdout, sys.stderr
    sys.path.insert(0, os.path.abspath(src))
    import pglcensus.cli

    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def send(line: str) -> None:
        proto.write(line + "\n")
        proto.flush()

    send("ready")
    ops = json.loads(sys.stdin.readline())
    records = []
    reference = [reference_loop()]
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        exc = ""
        code = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = pglcensus.cli.main(argv, out=out)
        except Exception as e:  # an op that raises is a failed op, not a crash
            exc = f"{type(e).__name__}: {e}"
        latency = time.perf_counter() - t0
        reference.append(reference_loop())
        records.append(
            {"code": code, "exc": exc, "stdout": out.getvalue(), "stderr": err.getvalue()[-500:], "latency_s": latency}
        )
    result = {
        "ops": records,
        "reference_s": reference,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }
    send(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
