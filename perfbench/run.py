"""Benchmark of the ``finetti`` command line, measured from outside.

Usage (from the repository root; every argument has a default):

    python3 perfbench/run.py [--workload all|verify-grid|lattice|certify]
                             [--seed N] [--seconds S] [--trace 0|1]

A timed run (--trace 0) repeats passes over the workload's invocations
while another pass fits in --seconds.  Each invocation runs in a fresh interpreter,
one at a time, and each pass starts with one ``finetti --help`` to time
interpreter set-up.  Each timed child is followed by a fixed reference
computation, and its times are scaled to the reference speed
(REFERENCE_S), which cancels the shared host's speed swings.  Every
output goes through the correctness gate (gate.py).  The run prints each
end-to-end metric with its unit, built from medians over passes, and
ends with one JSON line.

A traced run (--trace 1) alternates an untraced pass with a pass whose
invocations run under trace_child.py, and reports the per-layer metrics
of PER_LAYER.  End-to-end numbers never come from traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import gate
from workloads import HELP, POLYA_ID, WORKLOADS, Invocation, invocations

ROOT = Path(__file__).resolve().parent.parent
TRACE_CHILD = Path(__file__).with_name("trace_child.py")

# One interpreter start per pass is too few samples for a short run, so
# set-up is topped up to this many samples.
MIN_SETUP_SAMPLES = 10

# The host is shared: its speed for one process swings by half within
# seconds and drifts over minutes, and CPU time swings with it.  So each
# timed child is followed by this fixed computation, which does not use
# finetti: Fraction, big-integer and dict arithmetic, as the program does.
REFERENCE_CODE = """
from fractions import Fraction
acc, table = Fraction(0), {}
for i in range(1, 4000):
    acc += Fraction(i % 97 + 1, i * i + 1)
    table[i % 503] = table.get(i % 503, 0) + i ** 3
"""
# Timed metrics are reported at the speed at which the reference
# computation, interpreter start included, takes this long.  It is about
# its time on an idle core of the baseline machine, so the scaled seconds
# read close to what an idle host gives.
REFERENCE_S = 0.15
# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, source, key).  Sources: a field of a span layer in
# tracer.Tracer.summary() ("calls", "total_s", "self_s"), a counter
# ("counts", "maxima"), or "derived" (computed in layer_metrics).
PER_LAYER = (
    ("types_core.type_list.calls", "count", "calls", "types_core.type_list"),
    ("types_core.type_list.fills", "count", "counts", "types_core.type_list.fills"),
    ("types_core.type_list.self_s", "s", "self_s", "types_core.type_list"),
    ("types_core.enumerate_types.items", "count", "counts", "types_core.enumerate_types.items"),
    ("types_core.enumerate_types.s", "s", "total_s", "types_core.enumerate_types"),
    ("types_core.exact_bounds.self_s", "s", "self_s", "types_core.exact_bounds"),
    ("types_core.type_to_pmf.calls", "count", "counts", "types_core.type_to_pmf"),
    ("types_core.type_class_size.calls", "count", "counts", "types_core.type_class_size"),
    ("exchangeable.marginal.self_s", "s", "self_s", "exchangeable.marginal"),
    ("exchangeable.marginal.calls", "count", "calls", "exchangeable.marginal"),
    ("exchangeable.marginal.out_cells", "count", "counts", "exchangeable.marginal.out_cells"),
    (
        "exchangeable.marginal.max_denominator_bits",
        "bits",
        "maxima",
        "exchangeable.marginal.max_denominator_bits",
    ),
    ("exchangeable.marginal.float_self_s", "s", "derived", None),
    ("exchangeable.mixture_iid.self_s", "s", "self_s", "exchangeable.mixture_iid"),
    ("exchangeable.mixture_iid.calls", "count", "calls", "exchangeable.mixture_iid"),
    ("exchangeable.restrict_law.self_s", "s", "self_s", "exchangeable.restrict_law"),
    ("exchangeable.restrict_law.calls", "count", "calls", "exchangeable.restrict_law"),
    ("exchangeable.law_build.self_s", "s", "self_s", "exchangeable.law_build"),
    (
        "exchangeable.conditional_given_type.calls",
        "count",
        "counts",
        "exchangeable.conditional_given_type",
    ),
    ("exchangeable.kernel_share", "ratio", "derived", None),
    ("info_measures.relative_entropy.calls", "count", "calls", "info_measures.relative_entropy"),
    ("info_measures.relative_entropy.self_s", "s", "self_s", "info_measures.relative_entropy"),
    ("definetti.verify_theorem.self_s", "s", "self_s", "definetti.verify_theorem"),
    ("definetti.theorem_constants.calls", "count", "calls", "definetti.theorem_constants"),
    (
        "marginal_sets.enumerate_E_k_types.members",
        "count",
        "counts",
        "marginal_sets.enumerate_E_k_types.items",
    ),
    ("marginal_sets.enumerate_E_k_types.s", "s", "total_s", "marginal_sets.enumerate_E_k_types"),
    ("marginal_sets.enumerate_E_k_types.s_per_member", "s", "derived", None),
    ("marginal_sets.enumerate_E_k_types.share", "ratio", "derived", None),
    (
        "marginal_sets.conditional_mean_divergence.self_s",
        "s",
        "self_s",
        "marginal_sets.conditional_mean_divergence",
    ),
    (
        "marginal_sets.partition_tail_bound.self_s",
        "s",
        "self_s",
        "marginal_sets.partition_tail_bound",
    ),
    (
        "marginal_sets.divergence_decomposition.calls",
        "count",
        "calls",
        "marginal_sets.divergence_decomposition",
    ),
    (
        "marginal_sets.divergence_decomposition.self_s",
        "s",
        "self_s",
        "marginal_sets.divergence_decomposition",
    ),
    (
        "marginal_sets.lattice_argmin_uniform_divergence.self_s",
        "s",
        "self_s",
        "marginal_sets.lattice_argmin_uniform_divergence",
    ),
    (
        "marginal_sets.max_divergence_over_E_k.self_s",
        "s",
        "self_s",
        "marginal_sets.max_divergence_over_E_k",
    ),
    (
        "marginal_sets.max_divergence_over_E_k.candidates",
        "count",
        "counts",
        "marginal_sets.max_divergence_over_E_k.candidates",
    ),
    ("marginal_sets.lemma1_construct.self_s", "s", "self_s", "marginal_sets.lemma1_construct"),
    ("marginal_sets.lemma1_construct.tries", "count", "counts", "marginal_sets.lemma1_construct.tries"),
    (
        "marginal_sets.lemma1_construct.fallback",
        "count",
        "counts",
        "marginal_sets.lemma1_construct.fallback",
    ),
    (
        "exactlog.relative_entropy_combination.calls",
        "count",
        "calls",
        "exactlog.relative_entropy_combination",
    ),
    (
        "exactlog.relative_entropy_combination.self_s",
        "s",
        "self_s",
        "exactlog.relative_entropy_combination",
    ),
    ("exactlog.entropy_combination.calls", "count", "calls", "exactlog.entropy_combination"),
    ("exactlog.entropy_combination.self_s", "s", "self_s", "exactlog.entropy_combination"),
    ("exactlog.first_call_s", "s", "derived", None),
    ("exactlog.share", "ratio", "derived", None),
    ("gibbs.convergence_trace.self_s", "s", "self_s", "gibbs.convergence_trace"),
    ("gibbs.conditional_block_law.calls", "count", "calls", "gibbs.conditional_block_law"),
    ("cli.import_s", "s", "derived", None),
    ("cli.main.s", "s", "derived", None),
    ("cli.output.s", "s", "total_s", "cli.output"),
    ("cli.unattributed_share", "ratio", "derived", None),
    ("trace.wall_s", "s", "derived", None),
    ("trace.untraced_wall_s", "s", "derived", None),
    ("trace.overhead_s", "s", "derived", None),
)


@dataclass
class Result:
    """Exit code, output and rusage of one finished child process."""

    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int


@dataclass
class Tally:
    """Invocations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def score(self, inv: Invocation, result: Result, reference: dict) -> int:
        """Gate one result; return the work it counts for its workload."""
        self.attempted += 1
        try:
            work = gate.check(inv, result.returncode, result.stdout, reference)
        except gate.GateError as exc:
            self.failed += 1
            self.errors.append(f"{inv.id}: {exc}")
            return 0
        return work if inv.work else 0


def execute(argv) -> Result:
    """Run `python3 *argv` to completion and reap it with os.wait4."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("FINETTI_CAP", None)  # run the program with its own default cap
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    output = {proc.stdout: bytearray(), proc.stderr: bytearray()}
    status = None
    try:
        with selectors.DefaultSelector() as selector:
            for pipe in output:
                selector.register(pipe, selectors.EVENT_READ)
            deadline = start + CHILD_TIMEOUT_S
            while selector.get_map() and time.perf_counter() < deadline:
                for key, _ in selector.select(max(0.0, deadline - time.perf_counter())):
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        output[key.fileobj] += chunk
                    else:
                        selector.unregister(key.fileobj)
            if selector.get_map():
                os.kill(proc.pid, signal.SIGKILL)  # timed out: counted as failed
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        if status is None:
            os.kill(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # keep Popen from reaping again
    return Result(
        returncode=proc.returncode,
        stdout=bytes(output[proc.stdout]),
        stderr=bytes(output[proc.stderr]),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
    )


def cli_argv(inv: Invocation, traced: bool = False) -> list[str]:
    if traced:
        return [str(TRACE_CHILD), *inv.args]
    return ["-m", "finetti", *inv.args]


def run_pass(invs, reference: dict, tally: Tally, traced: bool = False):
    """One pass over the invocations; gate the outputs after the timed part."""
    start = time.perf_counter()
    results = [execute(cli_argv(inv, traced)) for inv in invs]
    wall = time.perf_counter() - start
    work = sum(tally.score(inv, result, reference) for inv, result in zip(invs, results))
    return wall, results, work


def _another_fits(start: float, durations: list[float], seconds: float) -> bool:
    """True until a further pass of median length would overrun `seconds`."""
    if not durations:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def _scaled(argv) -> tuple[Result, float, float]:
    """Run `argv`, then the reference computation; times at the reference speed.

    Returns the child's result and its wall and CPU time, each times
    REFERENCE_S over the reference computation's own time just after it.
    """
    result = execute(argv)
    ref = execute(["-c", REFERENCE_CODE])
    if ref.returncode != 0:
        raise RuntimeError(f"the reference computation failed: {ref.stderr.decode(errors='replace')}")
    return result, REFERENCE_S * result.wall_s / ref.wall_s, REFERENCE_S * result.cpu_s / ref.cpu_s


def run_timed(workload: str, seed: int, seconds: float):
    """Passes while another fits in `seconds`; END_TO_END values and per-pass samples.

    Every timed child is followed by the reference computation, and its
    times are scaled to the reference speed (see REFERENCE_S).  A metric is
    the sum over invocations of each invocation's median scaled time.
    """
    invs = invocations(workload, seed)
    reference = gate.load_reference()
    tally = Tally()
    # untimed warm-up: writes the bytecode cache, which users pay only once
    tally.score(HELP, execute(cli_argv(HELP)), reference)
    walls = {inv.id: [] for inv in invs}
    cpus = {inv.id: [] for inv in invs}
    samples = {name: [] for name, _ in END_TO_END}
    samples["unscaled_wall_s"] = []
    work = 0
    durations = []
    start = time.perf_counter()
    while _another_fits(start, durations, seconds):
        began = time.perf_counter()
        setup, setup_s, _ = _scaled(cli_argv(HELP))
        tally.score(HELP, setup, reference)
        samples["setup_s"].append(setup_s)
        results = []
        for inv in invs:
            result, wall, cpu = _scaled(cli_argv(inv))
            results.append(result)
            walls[inv.id].append(wall)
            cpus[inv.id].append(cpu)
        # gate after the timed part of the pass
        work = sum(tally.score(inv, r, reference) for inv, r in zip(invs, results))
        wall = sum(walls[inv.id][-1] for inv in invs)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(sum(cpus[inv.id][-1] for inv in invs))
        samples["work_per_s"].append(work / wall)
        samples["peak_rss_mb"].append(max(r.maxrss_kb for r in results) / 1024)
        samples["unscaled_wall_s"].append(sum(r.wall_s for r in results))
        durations.append(time.perf_counter() - began)
    while len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
        setup, setup_s, _ = _scaled(cli_argv(HELP))
        tally.score(HELP, setup, reference)
        samples["setup_s"].append(setup_s)
    wall = sum(statistics.median(v) for v in walls.values())
    values = {
        "wall_s": wall,
        "cpu_s": sum(statistics.median(v) for v in cpus.values()),
        # the work is the same in every pass whose outputs pass the gate
        "work_per_s": work / wall,
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    return values, samples, tally


def _trace_summary(result: Result) -> dict:
    lines = result.stderr.decode(errors="replace").strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise gate.GateError(f"traced child wrote no trace summary: {exc!r}") from exc


def _summaries(invs, results, tally: Tally) -> list[dict]:
    out = []
    for inv, result in zip(invs, results):
        try:
            out.append(_trace_summary(result))
        except gate.GateError as exc:
            tally.failed += 1
            tally.errors.append(f"{inv.id} (traced): {exc}")
    return out


def layer_metrics(summaries: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    """PER_LAYER values of one traced pass, summed over its processes."""

    def total(source: str, key: str) -> float:
        if source in ("counts", "maxima"):
            values = [s[source].get(key, 0) for s in summaries]
            return max(values, default=0) if source == "maxima" else sum(values)
        return sum(s["layers"].get(key, {}).get(source, 0) for s in summaries)

    metrics = {
        name: total(source, key) for name, _, source, key in PER_LAYER if source != "derived"
    }
    main_s = sum(s["main_s"] for s in summaries)
    walk = "marginal_sets.enumerate_E_k_types"
    members = metrics[walk + ".members"]
    metrics.update(
        {
            "exchangeable.kernel_share": (
                metrics["exchangeable.marginal.self_s"] + metrics["exchangeable.mixture_iid.self_s"]
            )
            / main_s,
            walk + ".s_per_member": metrics[walk + ".s"] / members if members else 0.0,
            walk + ".share": metrics[walk + ".s"] / main_s,
            "exactlog.first_call_s": sum(s["exactlog_first_call_s"] for s in summaries),
            "exactlog.share": (
                metrics["exactlog.relative_entropy_combination.self_s"]
                + metrics["exactlog.entropy_combination.self_s"]
            )
            / main_s,
            "cli.import_s": sum(s["import_s"] for s in summaries),
            "cli.main.s": main_s,
            "cli.unattributed_share": (main_s - sum(s["covered_s"] for s in summaries)) / main_s,
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        }
    )
    return metrics


def _has_float_backend() -> bool:
    result = execute(["-m", "finetti", "verify", "--help"])
    return b"--backend" in result.stdout and b"float" in result.stdout


def run_traced(workload: str, seed: int, seconds: float):
    """Untraced and traced pass pairs while another fits in `seconds`; PER_LAYER samples."""
    invs = invocations(workload, seed)
    reference = gate.load_reference()
    tally = Tally()
    tally.score(HELP, execute(cli_argv(HELP)), reference)
    rows = []
    durations = []
    start = time.perf_counter()
    while _another_fits(start, durations, seconds):
        began = time.perf_counter()
        untraced_wall, _, _ = run_pass(invs, reference, tally)
        traced_wall, results, _ = run_pass(invs, reference, tally, traced=True)
        rows.append(layer_metrics(_summaries(invs, results, tally), traced_wall, untraced_wall))
        durations.append(time.perf_counter() - began)
    samples = {name: [row[name] for row in rows] for name in rows[0]}
    float_self = 0.0
    polya = [inv for inv in invs if inv.id == POLYA_ID]
    # The float backend is measured while the flag exists, and skipped after.
    if polya and _has_float_backend():
        inv = replace(polya[0], args=polya[0].args + ("--backend", "float"))
        result = execute(cli_argv(inv, traced=True))
        tally.score(inv, result, reference)
        for summary in _summaries([inv], [result], tally):
            float_self = summary["layers"].get("exchangeable.marginal", {}).get("self_s", 0.0)
    samples["exchangeable.marginal.float_self_s"] = [float_self]
    samples = {name: samples[name] for name, *_ in PER_LAYER}
    return {name: statistics.median(v) for name, v in samples.items()}, samples, tally


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("all", *WORKLOADS), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "finetti" / "cli.py").is_file():
        print(f"error: no finetti sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup in execute

    units = {name: unit for name, unit, *_ in (PER_LAYER if args.trace else END_TO_END)}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics = {}
    attempted = failed = 0
    for workload in names:
        measure = run_traced if args.trace else run_timed
        values, samples, tally = measure(workload, args.seed, args.seconds)
        attempted += tally.attempted
        failed += tally.failed
        passes = len(next(iter(samples.values())))
        print(f"workload {workload} (seed {args.seed}, {'traced' if args.trace else 'timed'})")
        for name, values_ in samples.items():
            value = values.get(name, statistics.median(values_))
            q1, q3 = _quartiles(values_)
            print(
                f"  {name:<55} {value:14.6g} {units.get(name, 's'):<6}"
                f" per pass q1 {q1:.6g} q3 {q3:.6g} n={len(values_)}"
            )
            if name in values:
                key = name if len(names) == 1 else f"{workload}.{name}"
                metrics[key] = {"value": value, "unit": units[name]}
        ratio = tally.failed / tally.attempted
        print(f"  {'failed_ratio':<55} {ratio:14.6g} {'ratio':<6} ({tally.failed}/{tally.attempted}, {passes} passes)")
        for error in tally.errors:
            print(f"  FAILED {error}", file=sys.stderr)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
