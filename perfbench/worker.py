"""One benchmark operation in a fresh interpreter.

    python3 perfbench/worker.py <src dir> <job json>

The job names the CLI argv, whether to trace, and the oracle
configurations whose enumeration totals to read back afterwards.  The
worker imports blockcheb.cli (numpy included), marks itself ready, runs
cli.main(argv) with stdout and stderr captured, and prints one JSON
object: its timestamps on the shared monotonic clock, the exit code,
the captured document, its peak resident set right after the operation,
and, when traced, the spans and per-layer aggregates.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

sys.path.insert(0, sys.argv[1])

import numpy  # noqa: E402
from blockcheb import blockcount, cli  # noqa: E402

READY = time.perf_counter()


def main() -> None:
    job = json.loads(sys.argv[2])
    tracer = None
    run = cli.main
    if job["trace"]:
        from tracer import Tracer, install  # this script's own directory
        tracer = Tracer()
        install(tracer)
        run = tracer.wrap("cli", cli.main)

    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = run(job["argv"])
        except Exception:  # reported to run.py, which fails the op
            code = None
            error = traceback.format_exc()
        end = time.perf_counter()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "ready": READY, "start": start, "end": end, "exit": code,
        "error": error, "stdout": out.getvalue(), "stderr": err.getvalue(),
        "rss_kb": rss_kb, "backend": blockcount.BACKEND,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "totals": [sum(blockcount.f_oracle(n, size - n, m, p)
                       for size in range(n * p + m + 1))
                   for n, p, m in job["totals"] or ()],
    }
    if tracer is not None:
        tracer.add("blockcount.f_closed.cache_entries",
                   blockcount._f_closed_raw.cache_info().currsize)
        result["trace"] = tracer.report()
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
