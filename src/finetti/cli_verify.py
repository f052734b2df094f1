"""``finetti verify``: mixture approximation reports over an (n, k) grid."""

from __future__ import annotations

from .cli import EXIT_OK, EXIT_VIOLATION, _emit, _json_line, _parse_int_list

FAMILIES = ("fair-coin", "biased", "polya", "delta-type", "random-type-weights")


def add_arguments(parser) -> None:
    parser.add_argument("--law", help="law file (JSON)")
    parser.add_argument("--family", choices=FAMILIES, help="built-in law family")
    parser.add_argument("--n", help="comma separated n grid")
    parser.add_argument("--k", required=True, help="comma separated k grid")
    parser.add_argument("--m", type=int, help="alphabet size for random-type-weights")
    parser.add_argument("--p", help="success probability for --family biased")
    parser.add_argument("--init", help="initial composition for --family polya")
    parser.add_argument("--counts", help="histogram for --family delta-type")
    parser.add_argument("--seed", type=int, help="seed for randomized families")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", help="write output to this file")


def _build_law(args, n: int):
    """The family's law of n draws, an `UrnLaw`."""
    from .exchangeable import delta_type_law, iid_law, polya_urn_law, random_type_weight_law
    from .counts import TypeVector, _ratio_text, parse_rational

    fam = args.family
    if fam == "fair-coin":
        return iid_law(TypeVector((1, 1)), n)
    if fam == "biased":
        if args.p is None:
            raise ValueError("--family biased needs --p")
        num, den = parse_rational(args.p)
        if not 0 <= num <= den:
            raise ValueError(f"--p must lie in [0, 1], got {_ratio_text(num, den)}")
        return iid_law(TypeVector((num, den - num)), n)  # the urn of p and 1 - p over den
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


def run(args) -> int:
    from .definetti import VerificationReport, verify_grid
    from .exchangeable import read_law

    if (args.law is None) == (args.family is None):
        raise ValueError("give exactly one of --law FILE or --family NAME")
    k_values = _parse_int_list(args.k)
    if args.law is not None:
        with open(args.law) as fh:
            payload = fh.read()
        n_values = _parse_int_list(args.n) if args.n else (None,)
        laws = [read_law(payload, n=n) for n in n_values]
    else:
        if args.n is None:
            if args.family == "delta-type" and args.counts is not None:
                n_values = (sum(_parse_int_list(args.counts)),)
            else:
                raise ValueError("--n is required with --family")
        else:
            n_values = _parse_int_list(args.n)
        laws = [_build_law(args, n) for n in n_values]
    reports = [rep for law in laws for rep in verify_grid(law, k_values)]
    if args.format == "csv":
        lines = [",".join(VerificationReport._fields)]
        for rep in reports:
            lines.append(",".join("" if v is None else repr(v) for v in rep))
    else:
        lines = [_json_line(rep._asdict()) for rep in reports]
    _emit(lines, args.out)
    in_range_fail = any(rep.valid_range and not rep.holds for rep in reports)
    return EXIT_VIOLATION if in_range_fail else EXIT_OK
