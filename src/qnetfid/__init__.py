"""Teleportation-fidelity metrics for Werner-state repeater networks.

The network-wide figure of merit is the average, over all unordered node
pairs, of the best achievable teleportation fidelity between them, where a
path of link weights w_i reaches fidelity (1 + prod(w_i)) / 2.
"""

__version__ = "0.1.0"

from .network import (
    CANONICAL_FAMILIES,
    EdgeListParseError,
    EnumerationLimitError,
    FAMILIES,
    GraphError,
    MEPlacement,
    Network,
    NetworkError,
    TREE_FAMILIES,
    TopologySpec,
    TopologySpecError,
    WeightError,
    edge_skeleton,
    generate,
    load_edge_list,
    parse_family,
    save_edge_list,
)
from .fidelity import (
    NetworkFidelity,
    PairFidelity,
    average_max_fidelity,
    effective_path_length,
    pair_max_fidelity,
)
from .analytic import (
    me_value,
    path_fidelity_term,
    uniform_value,
)
from .scenarios import (
    ADVANTAGE_THRESHOLD,
    DecoherenceParams,
    EstimateResult,
    RNG_ALGORITHM,
    SweepResult,
    advantage_region,
    decoherence_sweep,
    decoherence_weight,
    default_sample_count,
    large_N_limit_check,
    run_scenario_A,
    run_scenario_B,
    run_scenario_C,
)
