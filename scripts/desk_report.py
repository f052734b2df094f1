"""End-to-end desk verification report.

Runs the full pipeline at a configurable desk scale and prints every
quantity the library certifies: the mixture approximation for the built-in
law families, the remainder-length adjustment, the convexity chain, the
block-construction and maximum-divergence oracles, and a block-law
convergence trace.

    python scripts/desk_report.py                  # defaults: n=800, k=2
    python scripts/desk_report.py --n 400 --k 2 --seeds 10
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from finetti.bound import theorem_constants
from finetti.counts import TypeVector, pmf_numerators
from finetti.dbound import conditional_mean_divergence
from finetti.definetti import binary_reference_bound, convexity_chain_gap, verify_theorem
from finetti.exchangeable import iid_law, polya_urn_law, random_type_weight_law
from finetti.gibbs import convergence_trace
from finetti.lemma1 import lemma1_construct
from finetti.lemma3 import max_divergence_over_E_k


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=800)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=20, help="random laws to test")
    args = ap.parse_args(argv)
    n, k = args.n, args.k
    t0 = time.time()

    params = theorem_constants(n, k, 2)
    print(f"constants at (n={n}, k={k}, m=2):")
    print(f"  alpha   = {params.alpha:.9f}")
    print(f"  delta   = {params.delta:.9f}")
    print(f"  epsilon = {params.epsilon:.9f}   valid range: {params.in_validity_range}")
    print(f"  two-symbol reference bound = {binary_reference_bound(n, k):.9f}")
    print()

    fair = TypeVector((1, 1))
    families = [("fair-coin iid", iid_law(fair, n)), ("polya(1,1)", polya_urn_law((1, 1), n))]
    families += [
        (f"random weights seed={s}", random_type_weight_law(2, n, s))
        for s in range(args.seeds)
    ]
    print(f"mixture approximation, {len(families)} laws:")
    worst = ("", -1.0)
    for name, law in families:
        rep = verify_theorem(law, k)
        flag = "ok" if rep.holds else "VIOLATION"
        if rep.divergence > worst[1]:
            worst = (name, rep.divergence)
        if name.startswith(("fair", "polya")) or not rep.holds:
            print(f"  {name:<24} D = {rep.divergence:.3e}  {flag}")
    print(f"  worst divergence: {worst[1]:.3e} ({worst[0]})")
    print()

    n_adj = n + 3
    rep = verify_theorem(iid_law(fair, n_adj), k)
    print(
        f"remainder adjustment at n={n_adj}: effective n = {rep.effective_n}, "
        f"epsilon = {rep.epsilon:.6f}, holds = {rep.holds}"
    )
    print()

    n_small = k * max(2, 16 // k)
    s1, s2, s3 = convexity_chain_gap(polya_urn_law((1, 1), n_small), k)
    print(
        f"convexity chain at n={n_small} (polya): "
        f"{s1:.6f} <= {s2:.6f} <= {s3:.6f}"
    )
    print()

    ell = n // k
    q = TypeVector((n // 2, n - n // 2))
    r1 = lemma1_construct(q, k, ell, seed=0)
    print(
        f"block construction at l={ell}: deviation {r1.deviation:.6f} "
        f"<= {r1.bound:.6f} after {r1.tries} try(ies); "
        f"entropy gap {r1.entropy_gap:.6f} <= {r1.entropy_gap_bound:.6f} "
        f"(certified regime: {r1.certified_regime})"
    )

    small = TypeVector((4, 4))
    r3 = max_divergence_over_E_k(small, k)
    print(
        f"max divergence over the constraint set of (4,4): {r3.value:.6f} "
        f"<= k log n = {k * math.log(small.n):.6f} ({r3.candidates} vertices)"
    )

    if ell <= 400:
        mean = conditional_mean_divergence(q, k, ell)
        print(
            f"conditional mean divergence on the lattice ({mean.members} members): "
            f"{mean.value:.6f} <= epsilon {params.epsilon:.6f}"
        )
    print()

    trace = convergence_trace(pmf_numerators(fair), k, tuple(k * 2**j for j in (1, 3, 5, 7)))
    print("block-law trace toward the product (n, divergence):")
    for point in trace:
        print(f"  n={point.n:>4}  D = {point.divergence:.3e}")

    print()
    # stderr, so that stdout is the same bytes on every run
    print(f"report complete in {time.time() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
