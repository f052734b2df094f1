"""``finetti types``: enumerate histograms and check the exact bounds."""

from __future__ import annotations

import math
import sys
from itertools import accumulate, chain, repeat
from operator import getitem, mul

from .cli import EXIT_OK, EXIT_VIOLATION, _emit, _json_line


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
    from .counts import check_cap, count_types, parse_rational, pmf_numerators
    from .types_core import compositions

    m, n = args.m, args.n
    if args.q is not None:
        a, den = pmf_numerators([parse_rational(x) for x in args.q.split(",")])
        if len(a) != m:
            raise ValueError(f"--q has {len(a)} entries, expected {m}")
    count = count_types(m, n)  # before the uniform q, so an --m below 1 reads its message
    if args.q is None:
        a, den = (1,) * m, m
    check_cap(m, n)
    # q = a / D gives P(T_t) = |T_t| * prod a^t / D^n.  Multiplied through by
    # prod c^c = n^n / e^(n*H(t/n)), the bound e^(nH)/(n+1)^m <= |T_t| <= e^(nH)
    # is an integer inequality.  As e^(-nD(t/n||q)) = n^n * prod a^t / (prod c^c
    # * D^n), the bound e^(-nD)/(n+1)^m <= P(T_t) <= e^(-nD) is the same
    # inequality times prod a^t: it holds when the first does, and when q
    # misses t's support, as both sides are 0.  |T_t| is a product of
    # binomials; prod a^t and prod c^c are read from tables keyed by count
    # (every count 0..n occurs once m > 1; the one histogram at m = 1 holds n).
    a_pow = [list(accumulate(repeat(x, n), mul, initial=1)) for x in a]
    c_pow_c = {c: c**c for c in (range(n + 1) if m > 1 else (n,))}
    den_n, n_n, poly = den**n, n**n, (n + 1) ** m
    rows = []  # only JSON prints the rows, so a text run keeps none
    visited = num_sum = size_sum = violations = 0
    for counts in compositions(n, m):
        visited += 1
        size = math.prod(map(math.comb, accumulate(counts), counts))
        size_sum += size
        power = math.prod(map(getitem, a_pow, counts))
        num = size * power
        num_sum += num
        cc = math.prod(map(c_pow_c.__getitem__, counts))
        size_ok = size * cc <= n_n <= poly * size * cc
        prob_ok = size_ok or not power
        if not size_ok:  # prob_ok follows from size_ok
            violations += 1
        if args.format == "json":
            rows.append((counts, size, num, size_ok, prob_ok))
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
        # D^n can pass the 4,300 digits str(int) allows by default, so the limit
        # is lifted for this write alone; 3.10 builds that predate it have none
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        set_digits = getattr(sys, "set_int_max_str_digits", lambda digits: None)
        set_digits(0)
        try:
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
        finally:
            set_digits(digits)
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
