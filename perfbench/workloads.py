"""The benchmark's workloads: fixed lists of ``finetti`` CLI invocations.

Each invocation runs in a fresh interpreter, as a command-line user pays
for it.  The workload seed feeds only the randomized inputs
(``random-type-weights`` and ``lemma1``); every other input is fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("verify-grid", "lattice", "certify")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: a reference id, its arguments and how its output is read.

    `kind` selects the output parser of the correctness gate.  `seeded`
    marks output that depends on the workload seed, so the gate checks
    invariants instead of recorded values.  `work` marks the invocations
    whose reported cells or members count as the workload's work.
    """

    id: str
    args: tuple[str, ...]
    kind: str
    seeded: bool = False
    work: bool = False


HELP = Invocation("help", ("--help",), "help")

# Polya invocation whose marginal the traced run repeats with --backend float.
POLYA_ID = "verify-polya"


def _seeds(seed: int) -> tuple[int, int]:
    rng = random.Random(seed)
    return rng.randrange(2**31), rng.randrange(2**31)


def invocations(workload: str, seed: int) -> tuple[Invocation, ...]:
    """The invocation list of one workload; the same seed gives the same list."""
    law_seed, shuffle_seed = _seeds(seed)
    if workload == "verify-grid":
        return (
            Invocation(
                POLYA_ID,
                ("verify", "--family", "polya", "--init", "1,1,1", "--n", "24", "--k", "3,4"),
                "verify",
                work=True,
            ),
            Invocation(
                "verify-random-type-weights",
                ("verify", "--family", "random-type-weights", "--seed", str(law_seed),
                 "--m", "2", "--n", "400,401", "--k", "2,3"),
                "verify",
                seeded=True,
                work=True,
            ),
            Invocation(
                "verify-mix",
                ("verify", "--law", "laws/mix.json", "--n", "200,403", "--k", "2,3"),
                "verify",
                work=True,
            ),
            Invocation(
                "gibbs",
                ("gibbs", "--target", "1/2,1/3,1/6", "--k", "3", "--n", "6,60,600,6000"),
                "gibbs",
            ),
        )
    if workload == "lattice":
        return (
            Invocation("dbound-m2", ("lemma", "dbound", "--q", "120,120", "--k", "2"), "dbound", work=True),
            Invocation("dbound-m3", ("lemma", "dbound", "--q", "8,8,8", "--k", "2"), "dbound", work=True),
            Invocation(
                "lemma1",
                ("lemma", "lemma1", "--q", "400,400", "--k", "2", "--l", "400",
                 "--seed", str(shuffle_seed)),
                "lemma1",
                seeded=True,
            ),
        )
    if workload == "certify":
        return (
            Invocation(
                "pythagoras-m2", ("lemma", "pythagoras", "--q", "50,50", "--k", "2"), "pythagoras", work=True
            ),
            Invocation(
                "pythagoras-m3", ("lemma", "pythagoras", "--q", "4,4,4", "--k", "2"), "pythagoras", work=True
            ),
            Invocation(
                "lemma3",
                ("lemma", "lemma3", "--m", "3", "--q", "4,4,4", "--k", "3", "--mode", "exact"),
                "lemma3",
            ),
            Invocation(
                "types-json",
                ("types", "--m", "3", "--n", "60", "--q", "1/2,1/3,1/6", "--format", "json"),
                "types",
            ),
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
