"""Run one ``finetti`` CLI invocation with the benchmark's wrappers installed.

Usage: python3 perfbench/trace_child.py <finetti arguments...>

The CLI's stdout and exit code are unchanged.  After the CLI returns, the
trace summary (tracer.Tracer.summary plus the in-process import and
``cli.main`` times) is written as the last line of stderr.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    start = time.perf_counter()
    import finetti.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    code = finetti.cli.main(sys.argv[1:])
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    summary = tracer.summary()
    summary.update(import_s=import_s, main_s=main_s)
    sys.stderr.write("\n" + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
