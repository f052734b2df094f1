"""Record reference.json: the gate's projection of every invocation's output.

Usage: python3 perfbench/record_reference.py

Run it on a commit whose outputs are known good; the recorded values are
what every later benchmark run is gated against.  Seeded invocations are
recorded at seed 0, and their projection keeps only seed-independent fields.
"""

import json
import sys

import gate
from run import cli_argv, execute
from workloads import HELP, WORKLOADS, invocations


def main() -> int:
    reference = {}
    for inv in (HELP, *(inv for w in WORKLOADS for inv in invocations(w, 0))):
        result = execute(cli_argv(inv))
        if result.returncode != 0:
            print(f"{inv.id}: exit code {result.returncode}", file=sys.stderr)
            return 1
        reference[inv.id] = gate.project(inv, result.stdout)
    with open(gate.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
