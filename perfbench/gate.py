"""Output-correctness gate: each invocation's exit code and stdout.

An invocation's stdout is reduced to a flat projection of named fields and
compared with the projection recorded from the seed commit in
``reference.json``.  Exact fields (counts, members, candidates, flags, type
sizes and rational probabilities) compare exactly; the float fields in
FLOAT_FIELDS compare to REL_TOL.  Fields the projection does not name are
ignored, so reports may gain fields without failing the gate.  For seeded
invocations the projection keeps only seed-independent fields, and
invariants that hold for every seed are checked on top.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# Relative tolerance on float fields: the exact and float paths agree to
# about 1e-12, so 1e-9 leaves room for a reordered summation.
REL_TOL = 1e-9
FLOAT_FIELDS = frozenset(
    {
        "divergence",
        "conditional_mean_divergence",
        "max_divergence",
        "epsilon",
        "deviation_bound",
        "divergence_nats",
        "max_abs_deviation",
    }
)

_LEMMA_FIELDS = {
    "dbound": ("m", "n", "k", "l", "members", "conditional_mean_divergence", "epsilon", "pass"),
    "pythagoras": (
        "m", "n", "k", "l", "members", "identity_exact", "product_on_lattice",
        "argmin_is_product", "pass",
    ),
    "lemma3": ("m", "n", "k", "mode", "candidates", "max_divergence", "pass"),
    "lemma1": ("m", "k", "l", "deviation_bound", "pass"),
}
_TYPES_CHECKS = (
    "count", "count_matches_formula", "count_within_polynomial",
    "sizes_sum_to_strings", "probabilities_sum_to_one", "bound_violations",
)
_VERIFY_FIELDS = ("n", "k", "m", "effective_n", "holds", "valid_range", "vacuous", "epsilon")


class GateError(ValueError):
    """Output that does not match the reference or breaks an invariant."""


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def project(inv, stdout: bytes) -> dict:
    """The fields of one invocation's stdout that the gate compares."""
    text = stdout.decode()
    if inv.kind == "help":
        if not text.startswith("usage: finetti"):
            raise GateError("help text does not start with the usage line")
        return {}
    if inv.kind == "verify":
        cells = [json.loads(line) for line in text.splitlines()]
        fields = _VERIFY_FIELDS if inv.seeded else _VERIFY_FIELDS + ("divergence",)
        out = {"cells": len(cells)}
        for i, cell in enumerate(cells):
            out.update({f"{i}.{f}": cell[f] for f in fields})
        return out
    if inv.kind == "gibbs":
        header, *rows = text.splitlines()
        if header != "n,divergence_nats,max_abs_deviation":
            raise GateError(f"unexpected gibbs header {header!r}")
        out = {"rows": len(rows)}
        for i, row in enumerate(rows):
            n, divergence, deviation = row.split(",")
            out[f"{i}.n"] = int(n)
            out[f"{i}.divergence_nats"] = float(divergence)
            out[f"{i}.max_abs_deviation"] = float(deviation)
        return out
    obj = json.loads(text)
    if inv.kind == "types":
        out = {f: obj[f] for f in ("m", "n", "pass")}
        out.update({f"checks.{c}": obj["checks"][c] for c in _TYPES_CHECKS})
        exact = [[t["counts"], t["size"], t["probability"]["rational"]] for t in obj["types"]]
        out["types"] = len(exact)
        out["types_sha256"] = hashlib.sha256(json.dumps(exact).encode()).hexdigest()
        return out
    return {f: obj[f] for f in _LEMMA_FIELDS[inv.kind]}


def compare(got: dict, want: dict) -> None:
    if set(got) != set(want):
        raise GateError(f"fields differ: got {sorted(set(got) ^ set(want))} unmatched")
    for key, expected in want.items():
        value = got[key]
        if key.rsplit(".", 1)[-1] in FLOAT_FIELDS:
            ok = isinstance(value, (int, float)) and math.isclose(
                value, expected, rel_tol=REL_TOL, abs_tol=0.0
            )
        else:
            ok = type(value) is type(expected) and value == expected
        if not ok:
            raise GateError(f"{key}: got {value!r}, expected {expected!r}")


def _arg(inv, flag: str) -> str:
    return inv.args[inv.args.index(flag) + 1]


def _check_seeded(inv, stdout: bytes) -> None:
    """Invariants of the seeded invocations that hold for every seed."""
    text = stdout.decode()
    if inv.kind == "verify":
        for line in text.splitlines():
            cell = json.loads(line)
            if not 0.0 <= cell["divergence"] <= cell["epsilon"]:
                raise GateError(f"divergence {cell['divergence']!r} outside [0, epsilon]")
        return
    if inv.kind == "lemma1":
        obj = json.loads(text)
        q = [int(c) for c in _arg(inv, "--q").split(",")]
        m, k, ell, n = obj["m"], obj["k"], obj["l"], sum(q)
        counts = obj["counts"]
        if len(counts) != m**k or sum(counts) != ell or min(counts) < 0:
            raise GateError(f"counts {counts} are not an l-block histogram")
        used = [0] * m
        product = []
        for block, c in enumerate(counts):
            symbols = [block // m**i % m for i in range(k)]
            for a in symbols:
                used[a] += c
            product.append(math.prod(q[a] for a in symbols) / n**k)
        if used != q:
            raise GateError(f"block histogram has symbol counts {used}, expected {q}")
        deviation = max(abs(c / ell - p) for c, p in zip(counts, product))
        if not math.isclose(deviation, obj["deviation"], rel_tol=REL_TOL, abs_tol=1e-15):
            raise GateError(f"deviation {obj['deviation']!r}, recomputed {deviation!r}")
        if not (deviation <= obj["deviation_bound"] and obj["tries"] >= 1):
            raise GateError("accepted member breaks the deviation bound")
        return
    raise GateError(f"no seeded invariants for kind {inv.kind!r}")


def check(inv, returncode: int | None, stdout: bytes, reference: dict) -> int:
    """Raise GateError unless the output is correct; return its work count.

    The work count is the number of grid cells a verify call reports, or
    the number of lattice members a dbound or pythagoras call reports.
    """
    if returncode != 0:
        raise GateError(f"exit code {returncode}, expected 0")
    if inv.id not in reference:
        raise GateError(f"no reference recorded for {inv.id!r}")
    try:
        got = project(inv, stdout)
        compare(got, reference[inv.id])
        if inv.seeded:
            _check_seeded(inv, stdout)
    except GateError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise GateError(f"unreadable output: {exc!r}") from exc
    return got.get("cells", got.get("members", 0))
