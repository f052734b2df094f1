"""Tests of the benchmark itself.  Run with: python3 -m pytest perfbench"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import HELP, POLYA_ID, WORKLOADS, invocations  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark_json() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_same_seed_same_invocations():
    for workload in WORKLOADS:
        assert invocations(workload, 7) == invocations(workload, 7)
    for workload in ("verify-grid", "lattice"):  # the seeded workloads
        assert invocations(workload, 7) != invocations(workload, 8)
    assert invocations("certify", 7) == invocations("certify", 8)


def test_metric_names_and_counts():
    names = [name for name, _ in run.END_TO_END] + [name for name, *_ in run.PER_LAYER]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert len(run.END_TO_END) <= 16
    assert len(run.PER_LAYER) <= 128


def test_benchmark_json_matches_harness():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, *_ in run.PER_LAYER
    ]


def test_reference_covers_every_invocation():
    reference = gate.load_reference()
    ids = {HELP.id} | {inv.id for w in WORKLOADS for inv in invocations(w, 0)}
    assert ids == set(reference)


def _polya_stdout() -> bytes:
    """The recorded Polya cells, written back as CLI output lines."""
    reference = gate.load_reference()[POLYA_ID]
    cells = []
    for i in range(reference["cells"]):
        prefix = f"{i}."
        cells.append({k[len(prefix):]: v for k, v in reference.items() if k.startswith(prefix)})
    return "".join(json.dumps(cell) + "\n" for cell in cells).encode()


def test_gate_accepts_reference_and_ignores_extra_fields():
    inv = invocations("verify-grid", 0)[0]
    stdout = _polya_stdout()
    assert gate.check(inv, 0, stdout, gate.load_reference()) == 2
    lines = [dict(json.loads(line), divergence_hi=1.0) for line in stdout.splitlines()]
    widened = "".join(json.dumps(cell) + "\n" for cell in lines).encode()
    assert gate.check(inv, 0, widened, gate.load_reference()) == 2


def test_corrupted_stdout_counts_in_failed_ratio():
    inv = invocations("verify-grid", 0)[0]
    good = run.Result(0, _polya_stdout(), b"", 1.0, 1.0, 1)
    first, rest = good.stdout.split(b"\n", 1)
    wrong = json.loads(first)
    wrong["divergence"] *= 1.001
    corrupted = [
        good.stdout[: len(good.stdout) // 2],  # truncated
        json.dumps(wrong).encode() + b"\n" + rest,  # wrong value
        b"not json\n",
    ]
    tally = run.Tally()
    reference = gate.load_reference()
    assert tally.score(inv, good, reference) == 2
    for stdout in corrupted:
        assert tally.score(inv, run.Result(0, stdout, b"", 1.0, 1.0, 1), reference) == 0
    assert tally.score(inv, run.Result(1, good.stdout, b"", 1.0, 1.0, 1), reference) == 0
    assert (tally.attempted, tally.failed) == (5, 4)


def test_execute_reports_exit_code_output_and_rusage():
    result = run.execute(["-c", "import sys; print('out'); sys.exit(3)"])
    assert result.returncode == 3
    assert result.stdout == b"out\n"
    assert result.wall_s > 0 and result.maxrss_kb > 0


def test_seeded_lemma1_invariants():
    inv = invocations("lattice", 0)[2]
    obj = {
        "m": 2, "k": 2, "l": 400, "pass": True, "tries": 1,
        "deviation_bound": gate.load_reference()["lemma1"]["deviation_bound"],
        "counts": [98, 112, 92, 98], "deviation": 0.03,
    }
    gate.check(inv, 0, json.dumps(obj).encode(), gate.load_reference())
    obj["counts"] = [99, 112, 92, 97]  # wrong symbol totals
    try:
        gate.check(inv, 0, json.dumps(obj).encode(), gate.load_reference())
    except gate.GateError:
        pass
    else:
        raise AssertionError("a histogram off the marginal constraint passed")


def test_wrappers_bind_every_namespace():
    import finetti.cli
    import finetti.definetti
    import finetti.exchangeable
    from finetti.exchangeable import polya_urn_law

    original = finetti.exchangeable.marginal
    tracer = Tracer()
    tracer.install()
    try:
        assert finetti.definetti.marginal is finetti.exchangeable.marginal
        assert finetti.definetti.marginal is not original
        assert finetti.cli.marginal is finetti.exchangeable.marginal
        finetti.definetti.verify_theorem(polya_urn_law((1, 1), 6), 2)
        list(finetti.cli.enumerate_E_k_types(finetti.cli.TypeVector((2, 2)), 2, 2))
    finally:
        tracer.uninstall()
    assert finetti.definetti.marginal is original
    summary = tracer.summary()
    layers = summary["layers"]
    assert layers["exchangeable.marginal"]["calls"] == 1
    assert layers["definetti.verify_theorem"]["calls"] == 1
    # the marginal's span is a child of verify_theorem, so not self time there
    assert layers["definetti.verify_theorem"]["self_s"] < layers["definetti.verify_theorem"]["total_s"]
    assert summary["counts"]["exchangeable.conditional_given_type"] > 0
    assert summary["counts"]["marginal_sets.enumerate_E_k_types.items"] == 4


def test_reference_computation_scales_to_reference_speed():
    # The reference computation timed against itself reads about REFERENCE_S;
    # the wide margin allows for the host's speed swings between the two runs.
    result, wall, cpu = run._scaled(["-c", run.REFERENCE_CODE])
    assert result.returncode == 0
    assert run.REFERENCE_S / 3 < wall < run.REFERENCE_S * 3
    assert run.REFERENCE_S / 3 < cpu < run.REFERENCE_S * 3
