"""Exact type-class machinery and finite mixture approximation for exchangeable laws.

The package namespace is empty: import from the submodules (``finetti.counts``,
``finetti.types_core``, ``finetti.exchangeable``, ``finetti.info_measures``,
``finetti.definetti``, ``finetti.marginal_sets``, ``finetti.lemma1``,
``finetti.lemma3``, ``finetti.gibbs``, ``finetti.cli``), so that a command
line start loads only what its subcommand runs.
"""

__version__ = "0.1.0"
