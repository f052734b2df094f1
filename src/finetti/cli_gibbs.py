"""``finetti gibbs``: the block-law convergence trace, as CSV."""

from __future__ import annotations

from .cli import EXIT_OK, EXIT_VIOLATION, _emit, _parse_int_list


def add_arguments(parser) -> None:
    parser.add_argument("--target", required=True, help="target pmf, rationals")
    parser.add_argument("--k", type=int, required=True, help="block length")
    parser.add_argument("--n", required=True, help="comma separated n schedule")
    parser.add_argument("--threshold", type=float, default=1e-2)
    parser.add_argument("--out", help="write output to this file")


def run(args) -> int:
    from .counts import parse_rational, pmf_numerators
    from .gibbs import convergence_trace, trace_to_csv

    if not 0 < args.threshold < float("inf"):
        raise ValueError(f"--threshold must be finite and positive, got {args.threshold}")
    target = pmf_numerators([parse_rational(x) for x in args.target.split(",")])
    n_values = _parse_int_list(args.n)
    trace = convergence_trace(target, args.k, n_values)
    _emit(trace_to_csv(trace).splitlines(), args.out)
    final = trace[-1].divergence
    return EXIT_OK if final < args.threshold else EXIT_VIOLATION
