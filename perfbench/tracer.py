"""Spans and counters wrapped around the public functions of ``finetti``.

The wrappers live here, outside the program: `Tracer.install` replaces
each function named in LAYERS in every ``finetti.*`` namespace that holds
it, because ``cli``, ``definetti``, ``gibbs`` and ``marginal_sets`` bind
their callees with ``from .x import y``.  A span records its name, start,
end and parent; a layer's self time is its spans' duration minus the time
their child spans cover.  Generators get one span per ``next()``.  The hot
inner functions are counted, not timed, so that span overhead does not
inflate their callers' self time.  A function missing from the program is
skipped, and its metrics read zero.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from fractions import Fraction

SPAN, GENERATOR, COUNT = "span", "generator", "count"

# (module.function, kind, layer name); several functions may share a layer.
LAYERS = (
    ("types_core.type_list", SPAN, "types_core.type_list"),
    ("types_core.enumerate_types", GENERATOR, "types_core.enumerate_types"),
    ("types_core.exp_n_entropy", SPAN, "types_core.exact_bounds"),
    ("types_core.exp_neg_n_divergence", SPAN, "types_core.exact_bounds"),
    ("types_core.type_class_probability", SPAN, "types_core.exact_bounds"),
    ("types_core.type_to_pmf", COUNT, "types_core.type_to_pmf"),
    ("types_core.type_class_size", COUNT, "types_core.type_class_size"),
    ("exchangeable.marginal", SPAN, "exchangeable.marginal"),
    ("exchangeable.mixture_iid", SPAN, "exchangeable.mixture_iid"),
    ("exchangeable.restrict_law", SPAN, "exchangeable.restrict_law"),
    ("exchangeable.polya_urn_law", SPAN, "exchangeable.law_build"),
    ("exchangeable.from_mixing_measure", SPAN, "exchangeable.law_build"),
    ("exchangeable.random_type_weight_law", SPAN, "exchangeable.law_build"),
    ("exchangeable.law_from_json", SPAN, "exchangeable.law_build"),
    ("exchangeable.conditional_given_type", COUNT, "exchangeable.conditional_given_type"),
    ("info_measures.relative_entropy", SPAN, "info_measures.relative_entropy"),
    ("definetti.verify_theorem", SPAN, "definetti.verify_theorem"),
    ("definetti.theorem_constants", SPAN, "definetti.theorem_constants"),
    ("marginal_sets.enumerate_E_k_types", GENERATOR, "marginal_sets.enumerate_E_k_types"),
    ("marginal_sets.conditional_mean_divergence", SPAN, "marginal_sets.conditional_mean_divergence"),
    ("marginal_sets.partition_tail_bound", SPAN, "marginal_sets.partition_tail_bound"),
    ("marginal_sets.divergence_decomposition", SPAN, "marginal_sets.divergence_decomposition"),
    (
        "marginal_sets.lattice_argmin_uniform_divergence",
        SPAN,
        "marginal_sets.lattice_argmin_uniform_divergence",
    ),
    ("marginal_sets.max_divergence_over_E_k", SPAN, "marginal_sets.max_divergence_over_E_k"),
    ("marginal_sets.lemma1_construct", SPAN, "marginal_sets.lemma1_construct"),
    ("exactlog.relative_entropy_combination", SPAN, "exactlog.relative_entropy_combination"),
    ("exactlog.entropy_combination", SPAN, "exactlog.entropy_combination"),
    ("gibbs.convergence_trace", SPAN, "gibbs.convergence_trace"),
    ("gibbs.conditional_block_law", SPAN, "gibbs.conditional_block_law"),
    ("cli._json_line", SPAN, "cli.output"),
    ("cli._emit", SPAN, "cli.output"),
    ("gibbs.trace_to_csv", SPAN, "cli.output"),
)


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._type_list_keys: set = set()
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _observe(self, name: str, args: tuple, result) -> None:
        """Counters read from arguments and results of a finished call."""
        if name == "types_core.type_list":
            key = tuple(args[:2])
            if key not in self._type_list_keys:
                self._type_list_keys.add(key)
                self.counts["types_core.type_list.fills"] += 1
        elif name == "exchangeable.marginal":
            self.counts["exchangeable.marginal.out_cells"] += len(result)
            bits = [p.denominator.bit_length() for p in result.probs if isinstance(p, Fraction)]
            key = "exchangeable.marginal.max_denominator_bits"
            self.maxima[key] = max([self.maxima[key], *bits])
        elif name == "marginal_sets.max_divergence_over_E_k":
            self.counts["marginal_sets.max_divergence_over_E_k.candidates"] += result.candidates
        elif name == "marginal_sets.lemma1_construct":
            self.counts["marginal_sets.lemma1_construct.tries"] += result.tries
            self.counts["marginal_sets.lemma1_construct.fallback"] += int(result.fallback)

    def _wrap(self, fn, kind: str, name: str):
        if kind == COUNT:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        if kind == GENERATOR:

            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    index = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    self.counts[name + ".items"] += 1
                    yield item

            return generator

        def span(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self._observe(name, args, result)
            return result

        return span

    def install(self) -> None:
        """Wrap every LAYERS function in every finetti namespace binding it."""
        modules = [
            mod for key, mod in sys.modules.items() if key == "finetti" or key.startswith("finetti.")
        ]
        for target, kind, name in LAYERS:
            module_name, function_name = target.split(".")
            module = sys.modules.get(f"finetti.{module_name}")
            original = getattr(module, function_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, kind, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-layer calls, total and self seconds, counters and covered time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        layers: dict[str, dict] = {}
        covered = 0.0
        first_exactlog = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[index]
            if parent is None:
                covered += end - start
            if not first_exactlog and name.startswith("exactlog."):
                first_exactlog = end - start
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "covered_s": covered,
            "exactlog_first_call_s": first_exactlog,
        }
