"""``finetti types``: enumerate histograms and check the exact bounds."""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import chain

from .cli import EXIT_OK, EXIT_VIOLATION, _emit, _json_line, _parse_rational_list


def add_arguments(parser) -> None:
    parser.add_argument("--m", type=int, required=True, help="alphabet size")
    parser.add_argument("--n", type=int, required=True, help="string length")
    parser.add_argument("--q", help="reference pmf, comma separated rationals")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", help="write output to this file")


def _rational_pair(num: int, den: int) -> dict:
    """num / den in lowest terms and as a float: int/int division rounds correctly."""
    g = math.gcd(num, den)
    return {"rational": f"{num // g}/{den // g}", "decimal": num / den}


def _row_json(den: int, counts, size: int, num: int, size_ok: bool, prob_ok: bool) -> str:
    """One type's row as json.dumps(..., sort_keys=True) writes its dict, without building it."""
    g = math.gcd(num, den)
    return (
        f'{{"counts": [{", ".join(map(str, counts))}], "probability": {{"decimal": {num / den!r}, '
        f'"rational": "{num // g}/{den // g}"}}, "probability_bounds_ok": {str(prob_ok).lower()}, '
        f'"size": {size}, "size_bounds_ok": {str(size_ok).lower()}}}'
    )


def run(args) -> int:
    from .counts import TypeVector, count_types, pmf_numerators
    from .types_core import type_class_size, type_list, urn_numerators

    m, n = args.m, args.n
    if args.q is not None:
        a, den = pmf_numerators(_parse_rational_list(args.q))
        if len(a) != m:
            raise ValueError(f"--q has {len(a)} entries, expected {m}")
    count = count_types(m, n)  # before the uniform q, so an --m below 1 reads its message
    if args.q is None:
        a, den = pmf_numerators(TypeVector((1,) * m))
    # q = a / D gives P(T_t) = |T_t| * prod a^t / D^n.  Multiplied through by
    # prod c^c = n^n / e^(n*H(t/n)) and D^n, the bounds e^(nH)/(n+1)^m <=
    # |T_t| <= e^(nH) and e^(-nD)/(n+1)^m <= P(T_t) <= e^(-nD) are integer
    # inequalities, as e^(-nD(t/n||q)) = n^n * prod a^t / (prod c^c * D^n);
    # both sides of the second are 0 when q misses t's support.
    powers, den_n = urn_numerators(((a, 1),), n, 0)  # prod a^t over D^n
    n_n, poly = n**n, (n + 1) ** m
    c_pow_c = lru_cache(maxsize=None)(lambda c: c**c)
    rows = []  # only JSON prints the rows, so a text run keeps none
    visited = num_sum = size_sum = violations = 0
    for t, power in zip(type_list(m, n), powers):
        visited += 1
        size = type_class_size(t)
        size_sum += size
        num = size * power
        num_sum += num
        cc = math.prod(map(c_pow_c, t.counts))
        size_ok = size * cc <= n_n <= poly * size * cc
        prob_ok = num * cc <= n_n * power <= poly * num * cc
        if not (size_ok and prob_ok):
            violations += 1
        if args.format == "json":
            rows.append((t.counts, size, num, size_ok, prob_ok))
    checks = {
        "count": count,
        "count_matches_formula": count == visited,
        "count_within_polynomial": count <= poly,
        "sizes_sum_to_strings": size_sum == m**n,
        "probabilities_sum_to_one": num_sum == den_n,
        "bound_violations": violations,
    }
    ok = violations == 0 and all(v for v in checks.values() if isinstance(v, bool))
    if args.format == "json":
        # D^n can pass the 4,300 digits str(int) allows by default; 3.10 builds
        # that predate the limit have no setter
        getattr(sys, "set_int_max_str_digits", lambda digits: None)(0)
        q = [_rational_pair(x, den) for x in a]
        head = _json_line({"m": m, "n": n, "q": q, "checks": checks, "pass": ok, "types": []})
        # "types" sorts last: the head ends '"types": []}', and the rows are
        # written as they are formatted, 256 to a write (an unbuffered stdout
        # makes each write a system call), so the whole document is never held
        texts = (
            (", " if i else "") + ", ".join(_row_json(den_n, *row) for row in rows[i : i + 256])
            for i in range(0, len(rows), 256)
        )
        _emit(chain([head[:-2]], texts, ["]}\n"]), args.out, end="")
    else:
        lines = [
            f"types m={m} n={n}: {count} histograms",
            f"count formula / polynomial cap / class sizes total / probability total: "
            f"{'pass' if ok else 'FAIL'}",
            f"per-type growth and probability bounds: "
            f"{count - violations}/{count} pass",
        ]
        _emit(lines, args.out)
    return EXIT_OK if ok else EXIT_VIOLATION
