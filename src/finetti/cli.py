"""Command line front end.

Subcommands: ``types`` (exact histogram counting and bound checks),
``verify`` (mixture approximation reports over an (n, k) grid), ``lemma``
(the supporting oracles: lemma1, lemma3, dbound, pythagoras), and ``gibbs``
(block-law convergence traces).  Exit codes: 0 all checks pass, 1 a bound
check failed, 2 an enumeration exceeded the cap, 3 bad input.  Randomized
operations require --seed, and a repeated invocation with the same arguments
produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache

from .definetti import report_to_dict, theorem_constants, verify_theorem
from .exchangeable import (
    ExchangeableLaw,
    delta_type_law,
    iid_law,
    law_from_json,
    polya_urn_law,
    power_pmf,
    random_type_weight_law,
    urn_numerators,
)
from .gibbs import convergence_trace, trace_to_csv
from .marginal_sets import (
    conditional_mean_divergence,
    lemma1_construct,
    max_divergence_over_E_k,
    partition_tail_bound,
    pythagorean_scan,
)
from .types_core import (
    CapacityError,
    Pmf,
    TypeVector,
    count_types,
    integer_numerators,
    type_class_size,
    type_list,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CAPACITY = 2
EXIT_INPUT = 3

FAMILIES = ("fair-coin", "biased", "polya", "delta-type", "random-type-weights")


def _parse_rational_list(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational list {text!r}") from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse integer list {text!r}") from exc


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n" if lines else ""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _rational_pair(value: Fraction) -> dict:
    return {"rational": f"{value.numerator}/{value.denominator}", "decimal": float(value)}


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


def cmd_types(args) -> int:
    m, n = args.m, args.n
    if args.q is not None:
        q = Pmf(_parse_rational_list(args.q))
        if len(q) != m:
            raise ValueError(f"--q has {len(q)} entries, expected {m}")
    else:
        q = Pmf.uniform(m)
    # q = a / D gives P(T_t) = |T_t| * prod a^t / D^n.  Multiplied through by
    # prod c^c = n^n / e^(n*H(t/n)) and D^n, the bounds e^(nH)/(n+1)^m <=
    # |T_t| <= e^(nH) and e^(-nD)/(n+1)^m <= P(T_t) <= e^(-nD) are integer
    # inequalities, as e^(-nD(t/n||q)) = n^n * prod a^t / (prod c^c * D^n);
    # both sides of the second are 0 when q misses t's support.
    a, _ = integer_numerators(q.probs)
    powers, den_n = urn_numerators(((a, 1),), n, 0, cap=args.cap)  # prod a^t over D^n
    n_n, poly = n**n, (n + 1) ** m
    c_pow_c = lru_cache(maxsize=None)(lambda c: c**c)
    rows = []
    num_sum = size_sum = violations = 0
    for t, power in zip(type_list(m, n, cap=args.cap), powers):
        size = type_class_size(t)
        size_sum += size
        num = size * power
        num_sum += num
        cc = math.prod(map(c_pow_c, t.counts))
        size_ok = size * cc <= n_n <= poly * size * cc
        prob_ok = num * cc <= n_n * power <= poly * num * cc
        if not (size_ok and prob_ok):
            violations += 1
        rows.append(
            {
                "counts": list(t.counts),
                "size": size,
                "probability": _rational_pair(Fraction(num, den_n)),
                "size_bounds_ok": size_ok,
                "probability_bounds_ok": prob_ok,
            }
        )
    count = count_types(m, n)
    checks = {
        "count": count,
        "count_matches_formula": count == len(rows),
        "count_within_polynomial": count <= poly,
        "sizes_sum_to_strings": size_sum == m**n,
        "probabilities_sum_to_one": num_sum == den_n,
        "bound_violations": violations,
    }
    ok = violations == 0 and all(v for v in checks.values() if isinstance(v, bool))
    if args.format == "json":
        payload = {
            "m": m,
            "n": n,
            "q": [_rational_pair(p) for p in q.probs],
            "checks": checks,
            "types": rows,
            "pass": ok,
        }
        _emit([_json_line(payload)], args.out)
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


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _build_law(args, n: int) -> ExchangeableLaw:
    fam = args.family
    if fam == "fair-coin":
        return iid_law(Pmf.uniform(2), n)
    if fam == "biased":
        if args.p is None:
            raise ValueError("--family biased needs --p")
        p = Fraction(args.p)
        if not 0 <= p <= 1:
            raise ValueError(f"--p must lie in [0, 1], got {p}")
        return iid_law(Pmf((p, 1 - p)), n)
    if fam == "polya":
        if args.init is None:
            raise ValueError("--family polya needs --init")
        return polya_urn_law(_parse_int_list(args.init), n)
    if fam == "delta-type":
        if args.counts is None:
            raise ValueError("--family delta-type needs --counts")
        t = TypeVector(_parse_int_list(args.counts))
        if t.n != n:
            raise ValueError(f"--counts sums to {t.n}, grid asks for n={n}")
        return delta_type_law(t)
    if fam == "random-type-weights":
        if args.seed is None:
            raise ValueError("--family random-type-weights needs --seed")
        m = args.m if args.m is not None else 2
        return random_type_weight_law(m, n, args.seed)
    raise ValueError(f"unknown family {fam!r}; choose from {', '.join(FAMILIES)}")


def _verify_cell(law: ExchangeableLaw, k: int) -> dict:
    report = verify_theorem(law, k)
    return report_to_dict(report)


def cmd_verify(args) -> int:
    if (args.law is None) == (args.family is None):
        raise ValueError("give exactly one of --law FILE or --family NAME")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    k_values = _parse_int_list(args.k)
    if args.law is not None:
        with open(args.law) as fh:
            payload = fh.read()
        n_values = _parse_int_list(args.n) if args.n else (None,)
        laws = [law_from_json(payload, n=n) for n in n_values]
    else:
        if args.n is None:
            if args.family == "delta-type" and args.counts is not None:
                n_values = (sum(_parse_int_list(args.counts)),)
            else:
                raise ValueError("--n is required with --family")
        else:
            n_values = _parse_int_list(args.n)
        laws = [_build_law(args, n) for n in n_values]
    cells = [(law, k) for law in laws for k in k_values]
    if args.jobs > 1:
        # importing the process pool is a large share of start-up, so only --jobs > 1 pays it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_verify_cell, law, k) for law, k in cells]
            reports = [f.result() for f in futures]
    else:
        reports = [_verify_cell(law, k) for law, k in cells]
    if args.format == "csv":
        cols = [
            "n",
            "k",
            "m",
            "alpha",
            "delta",
            "epsilon",
            "divergence",
            "holds",
            "valid_range",
            "effective_n",
            "binary_reference",
            "vacuous",
        ]
        lines = [",".join(cols)]
        for rep in reports:
            lines.append(",".join("" if rep[c] is None else repr(rep[c]) for c in cols))
    else:
        lines = [_json_line(rep) for rep in reports]
    _emit(lines, args.out)
    in_range_fail = any(rep["valid_range"] and not rep["holds"] for rep in reports)
    return EXIT_VIOLATION if in_range_fail else EXIT_OK


# ---------------------------------------------------------------------------
# lemma
# ---------------------------------------------------------------------------


def _lemma_q(args, n: int) -> TypeVector:
    if args.q is not None:
        t = TypeVector(_parse_int_list(args.q))
        if t.n != n:
            raise ValueError(f"--q sums to {t.n}, but k*l = {n}")
        if t.m != args.m:
            raise ValueError(f"--q has {t.m} cells, but --m {args.m}")
        return t
    if n % args.m:
        raise ValueError(f"no balanced histogram: m={args.m} does not divide n={n}")
    return TypeVector(tuple(n // args.m for _ in range(args.m)))


def cmd_lemma(args) -> int:
    name = args.name
    if name == "lemma1":
        if args.seed is None:
            raise ValueError("lemma1 is randomized; --seed is required")
        if args.l is None:
            raise ValueError("lemma1 needs --l")
        n = args.k * args.l
        q = _lemma_q(args, n)
        result = lemma1_construct(
            q, args.k, args.l, seed=args.seed, max_tries=args.max_tries, cap=args.cap
        )
        ok = result.deviation <= result.bound
        if result.certified_regime and not result.entropy_within_bound:
            ok = False
        payload = {
            "lemma": "lemma1",
            "m": args.m,
            "k": args.k,
            "l": args.l,
            "seed": args.seed,
            "counts": list(result.block_type.counts),
            "deviation": result.deviation,
            "l1_deviation": result.l1_deviation,
            "deviation_bound": result.bound,
            "tries": result.tries,
            "fallback": result.fallback,
            "entropy_gap": result.entropy_gap,
            "entropy_gap_bound": result.entropy_gap_bound,
            "certified_regime": result.certified_regime,
            "entropy_within_bound": result.entropy_within_bound,
            "pass": ok,
        }
        _emit([_json_line(payload)], args.out)
        return EXIT_OK if ok else EXIT_VIOLATION
    if name == "lemma3":
        if args.q is None:
            raise ValueError("lemma3 needs --q (an n-type)")
        q = TypeVector(_parse_int_list(args.q))
        if q.m != args.m:
            raise ValueError(f"--q has {q.m} cells, but --m {args.m}")
        result = max_divergence_over_E_k(
            q, args.k, mode=args.mode, ell=args.l, cap=args.cap
        )
        limit = args.k * math.log(q.n)
        ok = result.value <= limit + 1e-12
        payload = {
            "lemma": "lemma3",
            "m": args.m,
            "k": args.k,
            "n": q.n,
            "mode": result.mode,
            "max_divergence": result.value,
            "bound": limit,
            "witness": [float(p) for p in result.witness.probs],
            "candidates": result.candidates,
            "pass": ok,
        }
        _emit([_json_line(payload)], args.out)
        return EXIT_OK if ok else EXIT_VIOLATION
    if name == "dbound":
        if args.q is None:
            raise ValueError("dbound needs --q (an n-type)")
        q = TypeVector(_parse_int_list(args.q))
        n = q.n
        if n % args.k:
            raise ValueError(f"k={args.k} must divide n={n}")
        ell = n // args.k
        params = theorem_constants(n, args.k, q.m)
        delta = args.delta if args.delta is not None else params.delta
        mean = conditional_mean_divergence(q, args.k, ell, cap=args.cap)
        tail = partition_tail_bound(q, args.k, ell, delta, cap=args.cap)
        ok = mean.value <= params.epsilon + 1e-12
        payload = {
            "lemma": "dbound",
            "m": q.m,
            "n": n,
            "k": args.k,
            "l": ell,
            "delta": delta,
            "conditional_mean_divergence": mean.value,
            "members": mean.members,
            "epsilon": params.epsilon,
            "tail_log_bound": tail.log_bound,
            "tail_exact_probability": tail.exact_probability,
            "entropy_margin_certified": tail.entropy_margin_certified,
            "pass": ok,
        }
        _emit([_json_line(payload)], args.out)
        return EXIT_OK if ok else EXIT_VIOLATION
    if name == "pythagoras":
        if args.q is None:
            raise ValueError("pythagoras needs --q (an n-type)")
        q = TypeVector(_parse_int_list(args.q))
        n = q.n
        if n % args.k:
            raise ValueError(f"k={args.k} must divide n={n}")
        ell = n // args.k
        # one walk: each member's integer residual certifies both identities
        members, argmin, unique = pythagorean_scan(q, args.k, ell, cap=args.cap)
        qk = power_pmf(q.pmf(), args.k)
        qk_counts = [p * ell for p in qk]
        on_lattice = all(c.denominator == 1 for c in qk_counts)
        argmin_ok = True
        if on_lattice:
            argmin_ok = unique and argmin.counts == tuple(int(c) for c in qk_counts)
        payload = {
            "lemma": "pythagoras",
            "m": q.m,
            "n": n,
            "k": args.k,
            "l": ell,
            "members": members,
            "identity_exact": True,
            "product_on_lattice": on_lattice,
            "argmin_is_product": argmin_ok,
            "pass": argmin_ok,
        }
        _emit([_json_line(payload)], args.out)
        return EXIT_OK if argmin_ok else EXIT_VIOLATION
    raise ValueError(f"unknown lemma {name!r}")


# ---------------------------------------------------------------------------
# gibbs
# ---------------------------------------------------------------------------


def cmd_gibbs(args) -> int:
    target = Pmf(_parse_rational_list(args.target))
    n_values = _parse_int_list(args.n)
    trace = convergence_trace(target, args.k, n_values)
    _emit(trace_to_csv(trace).splitlines(), args.out)
    final = trace.points[-1].divergence
    return EXIT_OK if final < args.threshold else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finetti",
        description="Exact histogram combinatorics and mixture approximation checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_types = sub.add_parser("types", help="enumerate histograms and check exact bounds")
    p_types.add_argument("--m", type=int, required=True, help="alphabet size")
    p_types.add_argument("--n", type=int, required=True, help="string length")
    p_types.add_argument("--q", help="reference pmf, comma separated rationals")
    p_types.add_argument("--format", choices=("text", "json"), default="text")
    p_types.add_argument("--out", help="write output to this file")
    p_types.add_argument("--cap", type=int, help="enumeration cap override")
    p_types.set_defaults(func=cmd_types)

    p_verify = sub.add_parser("verify", help="mixture approximation reports on a grid")
    p_verify.add_argument("--law", help="law file (JSON)")
    p_verify.add_argument("--family", choices=FAMILIES, help="built-in law family")
    p_verify.add_argument("--n", help="comma separated n grid")
    p_verify.add_argument("--k", required=True, help="comma separated k grid")
    p_verify.add_argument("--m", type=int, help="alphabet size for random-type-weights")
    p_verify.add_argument("--p", help="success probability for --family biased")
    p_verify.add_argument("--init", help="initial composition for --family polya")
    p_verify.add_argument("--counts", help="histogram for --family delta-type")
    p_verify.add_argument("--seed", type=int, help="seed for randomized families")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    p_verify.add_argument("--out", help="write output to this file")
    p_verify.set_defaults(func=cmd_verify)

    p_lemma = sub.add_parser("lemma", help="supporting oracles")
    p_lemma.add_argument(
        "name", choices=("lemma1", "lemma3", "dbound", "pythagoras")
    )
    p_lemma.add_argument("--m", type=int, default=2, help="alphabet size")
    p_lemma.add_argument("--k", type=int, required=True, help="block length")
    p_lemma.add_argument("--l", type=int, help="number of blocks")
    p_lemma.add_argument("--q", help="histogram counts, comma separated")
    p_lemma.add_argument("--seed", type=int, help="seed (required for lemma1)")
    p_lemma.add_argument("--max-tries", type=int, default=1000)
    p_lemma.add_argument("--mode", choices=("exact", "grid"), default="exact")
    p_lemma.add_argument("--delta", type=float, help="margin override for dbound")
    p_lemma.add_argument("--out", help="write output to this file")
    p_lemma.add_argument("--cap", type=int, help="enumeration cap override")
    p_lemma.set_defaults(func=cmd_lemma)

    p_gibbs = sub.add_parser("gibbs", help="block-law convergence trace (CSV)")
    p_gibbs.add_argument("--target", required=True, help="target pmf, rationals")
    p_gibbs.add_argument("--k", type=int, required=True, help="block length")
    p_gibbs.add_argument("--n", required=True, help="comma separated n schedule")
    p_gibbs.add_argument("--threshold", type=float, default=1e-2)
    p_gibbs.add_argument("--out", help="write output to this file")
    p_gibbs.set_defaults(func=cmd_gibbs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; map to the input error code
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError, KeyError, json.JSONDecodeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
