"""Exact type-class machinery and finite mixture approximation for exchangeable laws.

The package namespace is empty: import from the submodules (``finetti.counts``,
``finetti.types_core``, ``finetti.exchangeable``, ``finetti.bound``, ``finetti.definetti``,
``finetti.marginal_sets``, ``finetti.dbound``, ``finetti.lemma1``, ``finetti.lemma3``,
``finetti.gibbs``, ``finetti.cli``), so that a command line start loads only what its
subcommand runs.  A pmf is one record throughout: integer numerators over their least
common denominator (``counts.pmf_numerators``).
"""

__version__ = "0.1.0"
