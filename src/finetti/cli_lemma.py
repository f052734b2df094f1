"""``finetti lemma``: the supporting oracles lemma1, lemma3, dbound and pythagoras.

Each branch imports only what its lemma runs: lemma1 loads `finetti.lemma1`,
pythagoras the walk of `finetti.marginal_sets`, dbound that walk, its mean
and tail (`finetti.dbound`) and the theorem's constants (`finetti.bound`),
and lemma3 the vertex search of `finetti.lemma3`.  Every branch reads --q
as integer counts.
"""

from __future__ import annotations

import math

from .cli import EXIT_OK, EXIT_VIOLATION, _emit, _json_line, _parse_int_list


def add_arguments(parser) -> None:
    parser.add_argument("name", choices=("lemma1", "lemma3", "dbound", "pythagoras"))
    parser.add_argument("--m", type=int, help="alphabet size")
    parser.add_argument("--k", type=int, required=True, help="block length")
    parser.add_argument("--l", type=int, help="number of blocks")
    parser.add_argument("--q", help="histogram counts, comma separated")
    parser.add_argument("--seed", type=int, help="seed (required for lemma1)")
    parser.add_argument("--max-tries", type=int, default=1000)
    parser.add_argument("--mode", choices=("exact", "grid"), default="exact")
    parser.add_argument("--delta", type=float, help="margin override for dbound")
    parser.add_argument("--out", help="write output to this file")


def _n_type(args, n: int | None = None):
    """The histogram of --q, summing to n if given; a given --m must be its cell count."""
    from .counts import TypeVector

    t = TypeVector(_parse_int_list(args.q))
    if n is not None and t.n != n:
        raise ValueError(f"--q sums to {t.n}, but k*l = {n}")
    if args.m is not None and t.m != args.m:
        raise ValueError(f"--q has {t.m} cells, but --m {args.m}")
    return t


def _lemma1_q(args, n: int):
    """The histogram of --q, else the balanced one on --m letters (2 by default)."""
    from .counts import TypeVector

    if args.q is not None:
        return _n_type(args, n)
    m = 2 if args.m is None else args.m
    if n % m:
        raise ValueError(f"no balanced histogram: m={m} does not divide n={n}")
    return TypeVector((n // m,) * m)


def run(args) -> int:
    if args.k < 1:
        raise ValueError(f"k must be >= 1, got {args.k}")
    name = args.name
    if name == "lemma1":
        from .lemma1 import lemma1_construct

        if args.seed is None:
            raise ValueError("lemma1 is randomized; --seed is required")
        if args.l is None:
            raise ValueError("lemma1 needs --l")
        n = args.k * args.l
        q = _lemma1_q(args, n)
        result = lemma1_construct(q, args.k, args.l, seed=args.seed, max_tries=args.max_tries)
        ok = result.deviation <= result.bound
        if result.certified_regime and not result.entropy_within_bound:
            ok = False
        payload = {
            "lemma": "lemma1",
            "m": q.m,
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
        from .lemma3 import max_divergence_over_E_k

        q = _n_type(args)
        result = max_divergence_over_E_k(q, args.k, mode=args.mode, ell=args.l)
        limit = args.k * math.log(q.n)
        ok = result.value <= limit + 1e-12
        nums, den = result.witness
        payload = {
            "lemma": "lemma3",
            "m": q.m,
            "k": args.k,
            "n": q.n,
            "mode": result.mode,
            "max_divergence": result.value,
            "bound": limit,
            "witness": [x / den for x in nums],
            "candidates": result.candidates,
            "pass": ok,
        }
        _emit([_json_line(payload)], args.out)
        return EXIT_OK if ok else EXIT_VIOLATION
    # dbound and pythagoras walk the lattice of q at l = n/k
    if args.q is None:
        raise ValueError(f"{name} needs --q (an n-type)")
    q = _n_type(args)
    n = q.n
    if n % args.k:
        raise ValueError(f"k={args.k} must divide n={n}")
    ell = n // args.k
    if args.l is not None and args.l != ell:
        raise ValueError(f"--l {args.l} is not n/k = {ell}; {name} takes l = n/k")
    if name == "dbound":
        from .bound import theorem_constants
        from .dbound import conditional_mean_divergence, partition_tail_bound
        from .marginal_sets import _check_lattice

        _check_lattice(q.m, args.k, ell)  # the walk's cap, before m^k is read as a float
        params = theorem_constants(n, args.k, q.m)
        if args.delta is None and params.delta <= 0:
            raise ValueError(
                f"the theorem's delta(n, k, m) = {params.delta} is not positive at "
                f"n={n}, k={args.k}, m={q.m}; pass --delta"
            )
        delta = args.delta if args.delta is not None else params.delta
        # the tail bound checks delta before it walks the lattice, so a bad
        # --delta exits before any walk; the mean reads the same cached walk
        tail = partition_tail_bound(q, args.k, ell, delta)
        mean = conditional_mean_divergence(q, args.k, ell)
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
        from .counts import power_numerators
        from .marginal_sets import pythagorean_scan

        # one walk: each member's integer residual certifies both identities
        members, argmin, unique = pythagorean_scan(q, args.k, ell)
        # l*Q^k(b) = l * prod_a t_a^{u_a} / n^k is a lattice point when n^k
        # divides every numerator; the walk's cap check bounds the cells listed
        nk = n**args.k
        l_qk = [ell * t for t in power_numerators(q.counts, args.k)]
        on_lattice = all(x % nk == 0 for x in l_qk)
        argmin_ok = True
        if on_lattice:
            argmin_ok = unique and argmin.counts == tuple(x // nk for x in l_qk)
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
