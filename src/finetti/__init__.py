"""Exact type-class machinery and finite mixture approximation for exchangeable laws."""

from .definetti import (
    BoundParams,
    VerificationReport,
    binary_reference_bound,
    convexity_chain_gap,
    effective_n,
    report_to_dict,
    theorem_constants,
    verify_theorem,
)
from .exchangeable import (
    ExchangeableLaw,
    MixingMeasure,
    block_laws,
    delta_type_law,
    from_mixing_measure,
    iid_law,
    law_from_json,
    law_to_json,
    marginal,
    mixture_iid,
    polya_urn_law,
    power_pmf,
    random_type_weight_law,
)
from .gibbs import (
    ConvergenceTrace,
    conditional_block_law,
    convergence_trace,
    round_to_type,
    trace_to_csv,
)
from .info_measures import (
    entropy,
    l1_distance,
    max_abs_deviation,
    pinsker_gap,
    relative_entropy,
)
from .marginal_sets import (
    ConditionalMeanResult,
    MaxDivergenceResult,
    PermutedBlockResult,
    TailBoundResult,
    conditional_mean_divergence,
    divergence_decomposition,
    enumerate_E_k_types,
    in_E_k,
    lemma1_constant,
    lemma1_construct,
    max_divergence_over_E_k,
    partition_tail_bound,
)
from .types_core import (
    CapacityError,
    DEFAULT_ENUMERATION_CAP,
    Pmf,
    TypeVector,
    count_types,
    empirical_type,
    enumerate_types,
    exp_n_entropy,
    exp_neg_n_divergence,
    sequence_probability_identity,
    type_class_probability,
    type_class_size,
    type_to_pmf,
)

__version__ = "0.1.0"
