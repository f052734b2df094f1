"""Acceptance checks: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines
(pytest captures stdout otherwise).  Each criterion enforces its own runtime
budget.  Frozen constants were derived independently (high-precision symbolic
evaluation of the closed forms) and are asserted at the stated tolerances.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

from finetti.cli import EXIT_OK, main
from finetti.bound import theorem_constants
from finetti.counts import TypeVector, count_types
from finetti.dbound import conditional_mean_divergence
from finetti.definetti import verify_theorem
from finetti.exchangeable import iid_law, polya_urn_law, random_type_weight_law
from finetti.gibbs import convergence_trace
from finetti.lemma1 import lemma1_constant, lemma1_construct
from finetti.lemma3 import max_divergence_over_E_k
from finetti.marginal_sets import pythagorean_scan
from finetti.types_core import type_list
from oracles import (
    Pmf,
    empirical_type,
    exp_n_entropy,
    exp_neg_n_divergence,
    log_form_exponent,
    marginal_residuals,
    oracle_power_pmf,
    oracle_walk,
    relative_entropy,
    type_class_probability,
    type_to_pmf,
)


@contextmanager
def criterion(num: int, name: str, limit_s: float):
    t0 = time.monotonic()
    info: dict = {}
    try:
        yield info
    except BaseException:
        dt = time.monotonic() - t0
        print(f"criterion {num}: FAIL — {name} ({dt:.1f}s)")
        raise
    dt = time.monotonic() - t0
    note = info.get("note", "")
    if dt >= limit_s:
        print(f"criterion {num}: FAIL — {name} over budget ({dt:.1f}s >= {limit_s}s)")
        raise AssertionError(f"criterion {num} runtime {dt:.1f}s >= {limit_s}s")
    tail = f" — {note}" if note else ""
    print(f"criterion {num}: PASS — {name} ({dt:.1f}s < {limit_s:g}s){tail}")


def random_rational_pmf(rng: random.Random, m: int) -> Pmf:
    w = [rng.randrange(1, 40) for _ in range(m)]
    return Pmf(tuple(Fraction(x, sum(w)) for x in w))


def types_rows(m: int, n: int, q: Pmf | None) -> dict:
    """The payload `finetti types --format json` prints for (m, n) and q, uniform when None."""
    args = ["types", "--m", str(m), "--n", str(n), "--format", "json"]
    if q is not None:
        args += ["--q", ",".join(f"{p.numerator}/{p.denominator}" for p in q)]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(args) == EXIT_OK
    return json.loads(out.getvalue())


def test_criterion_01_exact_type_suite():
    with criterion(1, "exact histogram bounds and normalization", 10.0) as info:
        checked = 0
        rng = random.Random(101)
        for m in (2, 3):
            for n in range(1, 13):
                qs = [Pmf.uniform(m)] + [random_rational_pmf(rng, m) for _ in range(2)]
                assert count_types(m, n) <= (n + 1) ** m
                for j, q in enumerate(qs):
                    payload = types_rows(m, n, q if j else None)
                    assert payload["pass"]
                    assert [Fraction(p["rational"]) for p in payload["q"]] == list(q)
                    rows = payload["types"]
                    assert len({tuple(r["counts"]) for r in rows}) == len(rows) == count_types(m, n)
                    total = Fraction(0)
                    for row in rows:
                        # the printed size and probability, against the exact bounds
                        t = TypeVector(row["counts"])
                        assert (t.m, t.n) == (m, n)
                        size, p = row["size"], Fraction(row["probability"]["rational"])
                        growth = exp_n_entropy(t)
                        assert size <= growth <= size * (n + 1) ** m
                        scale = exp_neg_n_divergence(t, q)
                        assert p == type_class_probability(t, q)
                        assert p <= scale <= p * (n + 1) ** m
                        assert row["size_bounds_ok"] and row["probability_bounds_ok"]
                        total += p
                        checked += 1
                    assert total == 1
                    assert sum(r["size"] for r in rows) == m**n
        info["note"] = f"{checked} printed rows of finetti types, all bounds exact"


# The log form exp(-n*(H + D)) = exp(sum_a c_a*log q_a) sums at most six
# terms c*log(c/n)/n and c*log(c/(n*q))/n, each within a few ulps, and
# n*(H + D) is below 8*log(117) < 40 for q = w / sum(w), 1 <= w < 40; so the
# exponent is off by less than 1e-13, and exp by less than 1e-13 relative.
LOG_FORM_RTOL = 1e-12


def test_criterion_02_sequence_probability_identity():
    with criterion(2, "product-form identity on all strings", 30.0) as info:
        rng = random.Random(202)
        exact_checks = 0
        float_checks = 0
        for m in (2, 3):
            for n in range(1, 9):
                for _ in range(20):
                    q = random_rational_pmf(rng, m)
                    # one string's probability, as `finetti types` prints it:
                    # its class's probability over the class size
                    printed = {}
                    for row in types_rows(m, n, q)["types"]:
                        t = TypeVector(row["counts"])
                        p = Fraction(row["probability"]["rational"]) / row["size"]
                        printed[t.counts] = p
                        # its float against exp(-n*(H + D)) through logarithms
                        want = math.exp(-n * log_form_exponent(t, tuple(map(float, q))))
                        assert abs(float(p) - want) <= LOG_FORM_RTOL * want
                        float_checks += 1
                    # against the per-symbol product q(x_1)...q(x_n) of every string
                    for x in itertools.product(range(m), repeat=n):
                        assert printed[empirical_type(x, m).counts] == math.prod(q[a] for a in x)
                        exact_checks += 1
        info["note"] = f"{exact_checks} strings exact + {float_checks} printed rows in log form"


def test_criterion_03_single_coordinate_exactness():
    with criterion(3, "one-coordinate marginal equals mixture exactly", 10.0) as info:
        from finetti.exchangeable import block_laws

        for m, n in ((2, 10), (3, 6)):
            for seed in range(100):
                law = random_type_weight_law(m, n, seed)
                # P_1 and M_1 agree on every histogram, as exact rationals
                [((p_1, p_den), (m_1, m_den))] = block_laws(law, [(1, law.n)])
                assert [x * m_den for x in p_1] == [y * p_den for y in m_1]
                rep = verify_theorem(law, 1)
                assert rep.divergence == 0.0 and rep.holds
        info["note"] = "200 laws, divergence identically zero"


def test_criterion_04_desk_scale_bound():
    with criterion(4, "mixture bound at n=800, k=2", 60.0) as info:
        params = theorem_constants(800, 2, 2)
        # frozen from an independent high-precision evaluation of the
        # closed form (tail term ~1.5e-140 is invisible at this scale)
        assert abs(params.epsilon - 1.8626164015526586) <= 1e-5
        assert params.in_validity_range
        q = Pmf((Fraction(1, 2), Fraction(1, 2)))
        laws = [iid_law(q, 800), polya_urn_law((1, 1), 800)]
        laws += [random_type_weight_law(2, 800, seed) for seed in range(50)]
        worst = 0.0
        for law in laws:
            rep = verify_theorem(law, 2)
            assert rep.holds
            assert rep.divergence <= params.epsilon
            worst = max(worst, rep.divergence)
        margin_ok = worst < 0.05  # report-only empirical margin
        info["note"] = (
            f"52 laws hold, eps={params.epsilon:.7f}, max D={worst:.2e}, "
            f"margin D<0.05: {'yes' if margin_ok else 'NO'}"
        )


def test_criterion_05_remainder_adjustment():
    with criterion(5, "non-divisible n adjusts to effective length", 60.0) as info:
        q = Pmf((Fraction(1, 2), Fraction(1, 2)))
        laws = [iid_law(q, 803), polya_urn_law((1, 1), 803)]
        laws += [random_type_weight_law(2, 803, seed) for seed in range(50)]
        eps_802 = theorem_constants(802, 2, 2).epsilon
        assert abs(eps_802 - 1.8618649768426032) <= 1e-12
        for law in laws:
            rep = verify_theorem(law, 2)
            assert rep.effective_n != rep.n
            assert rep.effective_n == 802
            assert rep.epsilon == eps_802
            assert rep.holds
        info["note"] = f"52 laws at n=803 verified against eps(802,2)={eps_802:.7f}"


def test_criterion_06_max_divergence_oracle():
    with criterion(6, "vertex maximum within k log n", 60.0) as info:
        cells = 0
        for n in range(1, 13):
            for t in type_list(2, n):
                for k in (1, 2, 3):
                    r = max_divergence_over_E_k(t, k)
                    assert r.value <= k * math.log(n) + 1e-12
                    cells += 1
        spot = max_divergence_over_E_k(TypeVector((1, 1)), 2)
        assert abs(spot.value - 2 * math.log(2)) <= 1e-9
        info["note"] = f"{cells} (type, k) cells, spot max = 2 log 2"


def test_criterion_07_pythagorean_identity():
    with criterion(7, "exact three-point divergence identity", 30.0) as info:
        members = 0
        argmin_checked = 0
        uniform = Pmf.uniform(4)
        for ell in range(1, 21):
            n = 2 * ell
            for q in type_list(2, n):
                qk = oracle_power_pmf(type_to_pmf(q), 2)
                d_qu = relative_entropy(qk, uniform)
                oracle = oracle_walk(q, 2, ell)
                for counts in oracle:
                    # the integer residual certifies membership, and on
                    # members the identity holds exactly, so only the
                    # float sums of the exact pmfs can differ
                    assert marginal_residuals(counts, q, 2) == [0, 0]
                    w = type_to_pmf(TypeVector(counts))
                    d_wu, d_wq = relative_entropy(w, uniform), relative_entropy(w, qk)
                    assert abs(d_wu - d_wq - d_qu) <= 1e-10
                    members += 1
                # the scan walks every member, and its argmin is l*Q^k when
                # that is a lattice point
                scanned, member, unique = pythagorean_scan(q, 2, ell)
                assert scanned == len(oracle)
                counts = [Fraction(p) * ell for p in qk.probs]
                if all(c.denominator == 1 for c in counts):
                    assert unique
                    assert member.counts == tuple(int(c) for c in counts)
                    argmin_checked += 1
        info["note"] = f"{members} members certified, {argmin_checked} argmin points"


def test_criterion_08_permuted_block_construction():
    with criterion(8, "seeded block construction meets its deviation", 10.0) as info:
        q = TypeVector((100, 100))
        bound = lemma1_constant(100, 2)
        assert abs(bound - 0.618743) <= 1e-6
        accepted = 0
        for seed in range(1000):
            r = lemma1_construct(q, 2, 100, seed=seed, max_tries=1)
            if not r.fallback:
                accepted += 1
                assert r.deviation <= bound
                gap_bound = -bound * math.log(bound / 4)
                assert r.entropy_gap <= gap_bound + 1e-12
        assert accepted >= 1
        majority = accepted > 500
        info["note"] = (
            f"{accepted}/1000 seeds accepted (majority: {'yes' if majority else 'NO'}), "
            f"entropy gap bounded on all"
        )


def test_criterion_09_conditional_mean_within_bound():
    with criterion(9, "lattice conditional mean under the bound", 300.0) as info:
        q = TypeVector((400, 400))
        r = conditional_mean_divergence(q, 2, 400)
        eps = theorem_constants(800, 2, 2).epsilon
        assert r.value <= eps
        info["note"] = f"{r.members} members, mean {r.value:.6f} <= eps {eps:.6f}"


def test_criterion_10_block_law_trace():
    with criterion(10, "conditional block law converges to the product", 10.0) as info:
        trace = convergence_trace(((1, 1), 2), 2, (4, 16, 64, 256))
        values = [p.divergence for p in trace]
        assert abs(values[0] - 0.056633) <= 1e-6
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.01
        info["note"] = (
            f"D(4)={values[0]:.6f}, strictly decreasing to D(256)={values[-1]:.2e}"
        )


# gibbs runs whose rows criterion 11 reads: the workload trace and targets
# with a zero entry, a point mass and four symbols
GIBBS_RUNS = [
    ("1/2,1/3,1/6", "3", "6,60,600,6000"),
    ("1/5,4/5", "4", "8,80,800"),
    ("0,1/3,2/3", "3", "6,60,600"),
    ("1/2,1/2", "2", "4,16,64,256"),
    ("1,0", "3", "6,12"),
    ("1/4,1/4,1/4,1/4", "5", "5,9,40"),
    ("1/3,2/3", "2", "6,12,48,192"),
]


def test_criterion_11_pinsker_gap():
    with criterion(11, "quadratic distance lower bound on divergence", 5.0) as info:
        # Pinsker: D >= 1/2 ||P - M||_1^2, and ||P - M||_1 >= 2 max|P - M|
        # because P - M sums to zero, so every printed row has D >= 2 * dev^2
        rows = 0
        worst = math.inf
        for target, k, ns in GIBBS_RUNS:
            out = io.StringIO()
            with redirect_stdout(out):
                main(["gibbs", "--target", target, "--k", k, "--n", ns])
            header, *lines = out.getvalue().splitlines()
            assert header == "n,divergence_nats,max_abs_deviation"
            assert len(lines) == len(ns.split(","))
            for line in lines:
                _, d, dev = map(float, line.split(","))
                assert d >= 2 * dev**2, (target, line)
                if dev:
                    worst = min(worst, d / (2 * dev**2))
                rows += 1
        info["note"] = f"{rows} printed gibbs rows, min D / (2 dev^2) = {worst:.2f}"
