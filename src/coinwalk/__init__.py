"""Coincidence-time analytics and walker simulation on random graphs.

The package splits into five layers:

* :mod:`coinwalk.rng` -- counter-style splitmix64 streams with
  deterministic child-seed derivation;
* :mod:`coinwalk.graph_core` -- immutable CSR graphs, degree statistics
  and the coincidence-time predictions;
* :mod:`coinwalk.generators` -- graph families with reproducible seeding;
* :mod:`coinwalk.moments` -- closed-form degree moments, asymptotic
  weight moments and scaling-regime prediction;
* :mod:`coinwalk.walk_sim` -- Monte Carlo simulation of two independent
  continuous-time walkers and the coincidence-time checks.

The ``coinwalk`` command line (see :mod:`coinwalk.cli`) drives batch
experiments described by JSON spec files.
"""

from .graph_core import (
    MAX_VERTICES,
    DegreeStatistics,
    Graph,
    Theorem1Bounds,
    build_graph,
    degree_statistics,
    is_connected,
    theorem1_bounds,
    validate_graph,
)
from .rng import Stream, derive_seed, derive_seeds
from .generators import (
    FAMILIES,
    GenerationError,
    GenSpec,
    WeightSequence,
    gen_circulant,
    gen_complete,
    gen_expected_degree,
    gen_gnp,
    gen_random_regular,
    generate,
    power_law_weights,
    sampler_for,
    uniform_weights,
    weights_for,
)
from .moments import (
    REGIME_ABOVE_3,
    REGIME_AT_3,
    REGIME_BELOW_3,
    ClosedFormMoments,
    EnsembleStats,
    ScalingPrediction,
    asymptotic_wbar_k,
    chebyshev_relative,
    closed_form_moments,
    empirical_wbar_k,
    ensemble_estimate,
    er_moments,
    predict_scaling,
)
from .walk_sim import (
    CoincidenceResult,
    ReplicateBatch,
    SimConfig,
    Theorem1Check,
    simulate_batch,
    simulate_pair,
    verify_theorem1,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_VERTICES",
    "Graph",
    "DegreeStatistics",
    "Theorem1Bounds",
    "build_graph",
    "validate_graph",
    "degree_statistics",
    "theorem1_bounds",
    "is_connected",
    "Stream",
    "derive_seed",
    "derive_seeds",
    "FAMILIES",
    "WeightSequence",
    "GenSpec",
    "GenerationError",
    "uniform_weights",
    "power_law_weights",
    "gen_complete",
    "gen_circulant",
    "gen_random_regular",
    "gen_gnp",
    "gen_expected_degree",
    "generate",
    "sampler_for",
    "weights_for",
    "ClosedFormMoments",
    "ScalingPrediction",
    "EnsembleStats",
    "REGIME_ABOVE_3",
    "REGIME_AT_3",
    "REGIME_BELOW_3",
    "empirical_wbar_k",
    "asymptotic_wbar_k",
    "closed_form_moments",
    "er_moments",
    "chebyshev_relative",
    "predict_scaling",
    "ensemble_estimate",
    "SimConfig",
    "CoincidenceResult",
    "ReplicateBatch",
    "Theorem1Check",
    "simulate_pair",
    "simulate_batch",
    "verify_theorem1",
    "__version__",
]
