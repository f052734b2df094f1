"""Command line behavior: exit codes, formats, reproducibility."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from finetti.cli import (
    EXIT_CAPACITY,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VIOLATION,
    main,
)
from finetti.types_core import (
    Pmf,
    count_types,
    enumerate_types,
    exp_n_entropy,
    exp_neg_n_divergence,
    type_class_probability,
    type_class_size,
)

ROOT = Path(__file__).resolve().parent.parent

MIX = """{
  "mixing": [
    {"pmf": ["3/4", "1/4"], "w": "1/2"},
    {"pmf": ["1/4", "3/4"], "w": "1/2"}
  ]
}
"""


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_types_text(capsys):
    code, out, _ = run(["types", "--m", "2", "--n", "6"], capsys)
    assert code == EXIT_OK
    assert "7 histograms" in out
    assert "pass" in out


def test_types_json(capsys):
    code, out, _ = run(["types", "--m", "2", "--n", "4", "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["checks"]["count"] == 5
    assert payload["checks"]["bound_violations"] == 0
    assert len(payload["types"]) == 5


def test_types_single_symbol(capsys):
    code, out, _ = run(["types", "--m", "1", "--n", "7"], capsys)
    assert code == EXIT_OK
    assert "1 histograms" in out


def test_gibbs_degenerate_target(capsys):
    code, out, _ = run(
        ["gibbs", "--target", "1,0", "--k", "3", "--n", "6,12"], capsys
    )
    assert code == EXIT_OK
    for line in out.strip().splitlines()[1:]:
        assert float(line.split(",")[1]) == 0.0


def test_types_rejects_bad_pmf(capsys):
    code, _, err = run(["types", "--m", "2", "--n", "4", "--q", "1/2,1/3"], capsys)
    assert code == EXIT_INPUT
    assert "error" in err


def test_missing_required_flag_is_input_error(capsys):
    code = main(["types", "--m", "2"])
    capsys.readouterr()
    assert code == EXIT_INPUT


def test_verify_family_json(capsys):
    code, out, _ = run(
        ["verify", "--family", "fair-coin", "--n", "8,12", "--k", "2"], capsys
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line, n in zip(lines, (8, 12)):
        rep = json.loads(line)
        assert rep["n"] == n and rep["k"] == 2
        assert rep["holds"] is True
        assert set(rep) == {
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
        }


def test_verify_csv(capsys):
    code, out, _ = run(
        ["verify", "--family", "fair-coin", "--n", "8", "--k", "1,2", "--format", "csv"],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,k,m,alpha,delta,epsilon,divergence,holds")
    assert len(lines) == 3


def test_verify_law_file(tmp_path, capsys):
    path = tmp_path / "mix.json"
    path.write_text(MIX)
    code, out, _ = run(["verify", "--law", str(path), "--n", "6", "--k", "2"], capsys)
    assert code == EXIT_OK
    rep = json.loads(out.strip())
    assert rep["n"] == 6 and rep["holds"] is True


def test_verify_law_file_n_must_match_the_grid(tmp_path, capsys):
    path = tmp_path / "mix10.json"
    path.write_text(json.dumps(dict(json.loads(MIX), n=10)))
    code, out, err = run(["verify", "--law", str(path), "--n", "20,40", "--k", "2"], capsys)
    assert code == EXIT_INPUT and out == ""
    assert "n=10" in err and "n=20" in err
    code, out, _ = run(["verify", "--law", str(path), "--n", "10", "--k", "2"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 10


def test_verify_rejects_jobs_below_one(capsys):
    # refused before any law is built or any process is started
    for jobs in ("0", "-3"):
        code, out, err = run(
            ["verify", "--family", "fair-coin", "--n", "8", "--k", "2", "--jobs", jobs], capsys
        )
        assert code == EXIT_INPUT and out == ""
        assert "--jobs" in err


def test_verify_needs_exactly_one_source(capsys):
    code, _, err = run(["verify", "--k", "2"], capsys)
    assert code == EXIT_INPUT
    code2, _, _ = run(
        ["verify", "--law", "x.json", "--family", "fair-coin", "--n", "4", "--k", "2"],
        capsys,
    )
    assert code2 == EXIT_INPUT


def test_verify_biased_requires_p(capsys):
    code, _, err = run(["verify", "--family", "biased", "--n", "6", "--k", "2"], capsys)
    assert code == EXIT_INPUT
    assert "--p" in err


def test_verify_seed_required_for_random_family(capsys):
    code, _, err = run(
        ["verify", "--family", "random-type-weights", "--m", "2", "--n", "6", "--k", "2"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert "seed" in err


def test_verify_seeded_output_is_byte_identical(capsys):
    args = [
        "verify",
        "--family",
        "random-type-weights",
        "--m",
        "2",
        "--n",
        "10",
        "--k",
        "2",
        "--seed",
        "42",
    ]
    _, out1, _ = run(args, capsys)
    _, out2, _ = run(args, capsys)
    assert out1 == out2


def test_verify_polya_and_delta_families(capsys):
    code, out, _ = run(
        ["verify", "--family", "polya", "--init", "1,1", "--n", "8", "--k", "2"], capsys
    )
    assert code == EXIT_OK
    code2, out2, _ = run(
        ["verify", "--family", "delta-type", "--counts", "4,4", "--k", "2"], capsys
    )
    assert code2 == EXIT_OK
    assert json.loads(out2.strip())["n"] == 8


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        [
            "verify",
            "--family",
            "fair-coin",
            "--n",
            "8",
            "--k",
            "2",
            "--out",
            str(target),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert out == ""
    rep = json.loads(target.read_text().strip())
    assert rep["holds"] is True


def test_env_cap_gives_capacity_exit(monkeypatch, capsys):
    monkeypatch.setenv("FINETTI_CAP", "10")
    code, _, err = run(["types", "--m", "4", "--n", "20"], capsys)
    assert code == EXIT_CAPACITY
    assert "capacity" in err


def test_cap_flag_overrides_env(monkeypatch, capsys):
    monkeypatch.setenv("FINETTI_CAP", "10")
    code, _, _ = run(["types", "--m", "4", "--n", "20", "--cap", "100000"], capsys)
    assert code == EXIT_OK


def test_env_cap_binds_verify(monkeypatch, capsys):
    args = ["verify", "--family", "fair-coin", "--n", "800", "--k", "2"]
    code, _, _ = run(args, capsys)
    assert code == EXIT_OK
    monkeypatch.setenv("FINETTI_CAP", "10")
    code, _, err = run(args, capsys)
    assert code == EXIT_CAPACITY
    assert "capacity" in err


def test_verify_has_no_backend_or_cap_flag(capsys):
    for extra in (["--backend", "float"], ["--cap", "10"]):
        code, _, _ = run(["verify", "--family", "fair-coin", "--n", "8", "--k", "2", *extra], capsys)
        assert code == EXIT_INPUT


def test_lemma1_requires_seed(capsys):
    code, _, err = run(["lemma", "lemma1", "--k", "2", "--l", "20"], capsys)
    assert code == EXIT_INPUT
    assert "seed" in err


def test_lemma1_runs(capsys):
    code, out, _ = run(
        ["lemma", "lemma1", "--k", "2", "--l", "50", "--seed", "7"], capsys
    )
    assert code == EXIT_OK
    rep = json.loads(out.strip())
    assert rep["pass"] is True
    assert rep["deviation"] <= rep["deviation_bound"]
    assert rep["seed"] == 7


def test_lemma1_seed_reproducible(capsys):
    args = ["lemma", "lemma1", "--k", "2", "--l", "50", "--seed", "3"]
    _, a, _ = run(args, capsys)
    _, b, _ = run(args, capsys)
    assert a == b


def test_lemma3_bound_holds(capsys):
    code, out, _ = run(["lemma", "lemma3", "--k", "2", "--q", "2,2"], capsys)
    assert code == EXIT_OK
    rep = json.loads(out.strip())
    assert rep["max_divergence"] <= rep["bound"] + 1e-12


@pytest.mark.parametrize(
    "m, q, k, candidates, support, value",
    [
        # recorded from the Fraction Gauss-Jordan vertex search
        (3, "4,4,4", 3, 187, {5: 1.0}, 3.2958368660043287),
        (3, "6,3,3", 2, 11, {0: 0.5, 5: 0.5}, 1.3862943611198904),
        (2, "5,5", 4, 31, {3: 1.0}, 2.772588722239781),
        # recorded from the cell-level search over all 64 cells
        (4, "1,2,3,4", 3, 34792, {0: 0.1, 22: 0.3, 47: 0.6}, 2.941616952644223),
    ],
)
def test_lemma3_exact_vertex_search_is_stable(capsys, m, q, k, candidates, support, value):
    code, out, _ = run(["lemma", "lemma3", "--m", str(m), "--q", q, "--k", str(k)], capsys)
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["candidates"] == candidates
    assert rep["max_divergence"] == value
    witness = [support.get(b, 0.0) for b in range(m**k)]
    assert json.dumps(rep["witness"]) == json.dumps(witness)


@pytest.mark.parametrize(
    "extra, code",
    [
        # 128 cells, 8 histogram columns: 36 column subsets
        (["--m", "2", "--q", "1,1", "--k", "7"], EXIT_OK),
        # 49 cells, 28 columns over 7 rows: refused before the first solve
        (["--m", "7", "--q", "1,1,1,1,1,1,1", "--k", "2"], EXIT_CAPACITY),
        # the 128-cell witness exceeds the enumeration cap
        (["--m", "2", "--q", "1,1", "--k", "7", "--cap", "100"], EXIT_CAPACITY),
    ],
)
def test_lemma3_exact_limits_count_subsets_and_cells(capsys, extra, code):
    got, out, err = run(["lemma", "lemma3", "--mode", "exact"] + extra, capsys)
    assert got == code, err
    if code == EXIT_OK:
        assert json.loads(out)["candidates"] == 4096
    else:
        assert out == "" and err.startswith("capacity:")


def test_dbound_runs(capsys):
    code, out, _ = run(["lemma", "dbound", "--k", "2", "--q", "4,4"], capsys)
    assert code == EXIT_OK
    rep = json.loads(out.strip())
    assert rep["conditional_mean_divergence"] <= rep["epsilon"]
    assert rep["members"] == 9


def test_pythagoras_runs(capsys):
    code, out, _ = run(["lemma", "pythagoras", "--k", "2", "--q", "4,4"], capsys)
    assert code == EXIT_OK
    rep = json.loads(out.strip())
    assert rep["identity_exact"] is True
    assert rep["argmin_is_product"] is True


def test_lemma_rejects_mismatched_shape(capsys):
    code, _, _ = run(
        ["lemma", "lemma1", "--k", "2", "--l", "10", "--q", "9,9", "--seed", "1"],
        capsys,
    )
    assert code == EXIT_INPUT


def test_gibbs_csv(capsys):
    code, out, _ = run(
        ["gibbs", "--target", "1/2,1/2", "--k", "2", "--n", "4,16,64"], capsys
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,divergence_nats,max_abs_deviation"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == pytest.approx(0.05663301226513234)


def test_gibbs_threshold_violation(capsys):
    code, _, _ = run(
        ["gibbs", "--target", "1/2,1/2", "--k", "2", "--n", "4", "--threshold", "0.01"],
        capsys,
    )
    assert code == EXIT_VIOLATION


def test_gibbs_bad_target(capsys):
    code, _, _ = run(["gibbs", "--target", "1/2,1/3", "--k", "2", "--n", "4"], capsys)
    assert code == EXIT_INPUT


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "finetti", "types", "--m", "2", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "5 histograms" in proc.stdout


def test_parallel_jobs_match_serial(capsys):
    base = ["verify", "--family", "fair-coin", "--n", "8,10", "--k", "1,2"]
    _, serial, _ = run(base, capsys)
    _, parallel, _ = run(base + ["--jobs", "2"], capsys)
    assert serial == parallel


def test_cli_start_loads_no_pool_and_no_dataclasses():
    # import cost is paid by every CLI call: the process pool machinery is
    # loaded only for --jobs > 1, and the records are tuples, not dataclasses
    code = (
        "import sys; from finetti.cli import main; "
        "rc = main(['verify', '--family', 'fair-coin', '--n', '8', '--k', '2', '--jobs', '1']); "
        "heavy = {'dataclasses', 'concurrent.futures', 'multiprocessing'}; "
        "print(sorted(heavy & set(sys.modules)), rc)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[] 0"


def _env_with_finetti() -> dict[str, str]:
    """The environment with the imported finetti's source first on PYTHONPATH."""
    src = str(Path(__import__("finetti").__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_cli_start_loads_no_random_and_no_exactlog():
    # the seeded families and the lemma1 shuffle import random themselves;
    # -S keeps site hooks (.pth files), which may import it, out of the check
    env = _env_with_finetti()
    code = (
        "import sys; import finetti.cli; "
        "print(sorted({'random', 'finetti.exactlog'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_desk_report_stdout_is_deterministic():
    # the run time goes to stderr, so two runs print the same bytes
    args = [sys.executable, str(ROOT / "scripts" / "desk_report.py"), "--n", "40", "--seeds", "2"]
    first, second = (
        subprocess.run(args, capture_output=True, env=_env_with_finetti()) for _ in range(2)
    )
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert b"report complete" not in first.stdout
    assert b"report complete" in first.stderr


def test_epsilon_sweep_prints_its_grid_deterministically():
    script = ROOT / "scripts" / "epsilon_sweep.py"
    args = [sys.executable, str(script), "--n", "100,200", "--k", "1,2"]
    first, second = (
        subprocess.run(args, capture_output=True, env=_env_with_finetti()) for _ in range(2)
    )
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    header, rule, *rows = first.stdout.decode().splitlines()
    assert header.split() == ["n", "k", "alpha", "delta", "epsilon", "binary", "ref", "valid"]
    assert set(rule) == {"-"}
    cells = [row.split()[:2] for row in rows]
    assert cells == [["100", "1"], ["100", "2"], ["200", "1"], ["200", "2"]]


# ---------------------------------------------------------------------------
# types rows against the Fraction form of the bounds
# ---------------------------------------------------------------------------


def fraction_types_payload(m: int, n: int, q: Pmf) -> dict:
    """The types JSON payload built with a Fraction per operation."""

    def pair(value):
        return {"rational": f"{value.numerator}/{value.denominator}", "decimal": float(value)}

    rows, total, size_sum, violations = [], Fraction(0), 0, 0
    for t in enumerate_types(m, n):
        size = type_class_size(t)
        prob = type_class_probability(t, q)
        growth = exp_n_entropy(t)
        size_ok = growth / (n + 1) ** m <= size <= growth
        scale = exp_neg_n_divergence(t, q)
        prob_ok = scale / (n + 1) ** m <= prob <= scale
        size_sum += size
        total += prob
        violations += not (size_ok and prob_ok)
        rows.append(
            {
                "counts": list(t.counts),
                "size": size,
                "probability": pair(prob),
                "size_bounds_ok": size_ok,
                "probability_bounds_ok": prob_ok,
            }
        )
    count = count_types(m, n)
    checks = {
        "count": count,
        "count_matches_formula": count == len(rows),
        "count_within_polynomial": count <= (n + 1) ** m,
        "sizes_sum_to_strings": size_sum == m**n,
        "probabilities_sum_to_one": total == 1,
        "bound_violations": violations,
    }
    ok = violations == 0 and all(v for v in checks.values() if isinstance(v, bool))
    q_pairs = [pair(p) for p in q.probs]
    return {"m": m, "n": n, "q": q_pairs, "checks": checks, "types": rows, "pass": ok}


@pytest.mark.parametrize(
    "m, n, q",
    [
        (1, 5, None),
        (2, 9, "1/3,2/3"),
        (2, 10, "1,0"),
        (3, 12, "0,1/4,3/4"),
        (3, 20, "1/2,1/3,1/6"),
        (4, 7, None),
        (4, 6, "1/10,0,3/10,3/5"),
    ],
)
def test_types_rows_match_the_fraction_form(capsys, m, n, q):
    args = ["types", "--m", str(m), "--n", str(n), "--format", "json"]
    pmf = Pmf.uniform(m) if q is None else Pmf(tuple(Fraction(p) for p in q.split(",")))
    code, out, _ = run(args + (["--q", q] if q else []), capsys)
    want = fraction_types_payload(m, n, pmf)
    assert json.loads(out) == want
    assert code == (EXIT_OK if want["pass"] else EXIT_VIOLATION)
    if q and "0" in q.split(","):
        # classes that q misses have probability 0, and both bound flags hold
        missed = [r for r in want["types"] if r["probability"]["rational"] == "0/1"]
        assert missed and all(r["probability_bounds_ok"] for r in missed)
    assert all(r["size_bounds_ok"] for r in want["types"])


# ---------------------------------------------------------------------------
# golden stdout: sha256 and exit code of invocations whose output is pinned
# ---------------------------------------------------------------------------

GOLDEN = [
    ("lemma pythagoras --q 50,50 --k 2", "4481cd203ab1858bbe230c6984f74278fd4c480c06399b6f8c0122ff02b5b9c6"),
    ("lemma pythagoras --q 4,4,4 --k 2", "5d40788b8e3d35694615fbad1e85f922d5a30bef713f63eaefd45141d6c0fab3"),
    (
        "lemma lemma3 --m 3 --q 4,4,4 --k 3 --mode exact",
        "1fede31e6c7c9a1edb835d7e768d0884cc88d3387d6c7a29d7f85de52ce75e26",
    ),
    (
        "lemma lemma3 --m 4 --q 1,2,3,4 --k 3 --mode exact",
        "8d43425c21262890941b1ce71bb1aad5837a137b40fb60b1d4213dc445d3f594",
    ),
    (
        "types --m 3 --n 60 --q 1/2,1/3,1/6 --format json",
        "6174544febc5252411df975109b8e17fd72f21aab97d92886c7d1f4a12577acb",
    ),
    ("lemma pythagoras --q 7,5 --k 3", "e76f9cfaf9cd17bc001df0c6f338574cf302880a8a962cefd4aeaa8c996b4d70"),
    ("lemma pythagoras --q 0,6,6 --k 2", "d31167c7afe1806068bfa2867372a30d6d57339ad4dbed4eaa3ca757037a5720"),
    (
        "types --m 3 --n 20 --q 0,1/3,2/3 --format json",
        "8afe43e884eee037514b5088e71e09e4af70e0d24fb693bc01112c950cb0f325",
    ),
    ("types --m 4 --n 12", "b4184004e6303c8409e44bd24e03f711d99df60145a236f1247e345cabc56a11"),
    (
        "verify --law laws/mix.json --n 200,403 --k 2,3",
        "143d107c71ffb452bf7637a1065f0bf7f334b7c5b146007decae58f5db00954e",
    ),
    (
        "verify --family polya --init 1,1,1 --n 24 --k 3,4",
        "3857fa0520fdaa8b5afb1dd44fd632085d8d08f3a07e8c6983b1cdc1b8af9063",
    ),
    (
        "gibbs --target 1/2,1/3,1/6 --k 3 --n 6,60,600,6000",
        "eb41feda28a8e4c218cdda175cf9d1434efdfabac45224c3844580ea23edaf03",
    ),
    # every caller of the urn kernel
    (
        "verify --family biased --p 1/3 --n 30,31 --k 2,3",
        "1fcc91d263e43896adf43ca816451f1b5caf977842f67ec8820589f7615acb3c",
    ),
    (
        "verify --family delta-type --counts 3,2,1 --k 2,3",
        "4aed65af426428ce08fe4d521c83038ce0ceaf26e45c50cc6e16b894be528ff3",
    ),
    (
        "verify --family polya --init 2,1 --n 40,41 --k 1,2,3",
        "07e00c70a746200af0b7a18288aedc6e274a0138cb61ada814ad78ce87979d54",
    ),
    (
        "verify --family random-type-weights --seed 5 --m 2 --n 400,401 --k 2,3",
        "c5dbf80427ae9f66afbad3a78b77ed2cb4b640b2019173dd289d3ec26d44b127",
    ),
    (
        "gibbs --target 1/5,4/5 --k 4 --n 8,80,800",
        "e22ccf72c00faf8d296f69b679c95bc0a5ae2ab250407bcc0e2f8aaea1ad7835",
    ),
    (
        "types --m 2 --n 30 --q 1/3,2/3 --format json",
        "5420d8fc6dd585f878707362c011029314a345bdb3f742206e576beecc9e412e",
    ),
    ("lemma dbound --q 8,8,8 --k 2", "92c5a35e7c8ee4b2c22a16398fed368524f387f15532d70223dd6e647ccdafa7"),
    (
        "lemma lemma1 --q 400,400 --k 2 --l 400 --seed 3",
        "0f0bb6afbb4fe1f48ba6525f35df449e594ca339e28be8920e1c02ae6977d403",
    ),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_stdout(capsys, command, digest):
    # every row, including the per-row bound flags, is pinned byte for byte
    args = [str(ROOT / a) if a.startswith("laws/") else a for a in command.split()]
    code, out, _ = run(args, capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest
