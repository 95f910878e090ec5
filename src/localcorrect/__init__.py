"""Local correction of Boolean functions known up to isomorphism."""

from .analysis import (
    INFLUENCE_THRESHOLD,
    InfluenceReport,
    fraction_low_influence,
    influence_exact,
    min_influence_report,
    sample_random_junta,
)
from .boolfn import (
    AnfPolynomial,
    DimensionMismatch,
    JuntaSpec,
    Point,
    TruthTable,
    anf_from_truth_table,
    degree,
    eval_junta,
    relabel,
    truth_table_from_anf,
)
from .correctors import (
    CorrectionResult,
    InfluenceCorrectorParams,
    PartitionState,
    build_masked_input,
    cube_sum_correct,
    identify_influencing_parts,
    influence_correct,
    symmetric_correct,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    derive_seed,
    emit_report,
    run_correction_experiment,
)
from .lowerbound import (
    HardInstance,
    MajAmbiguityReport,
    eval_hard_g,
    maj_ambiguity_check,
    run_distinguisher,
    sample_hard_instance,
    single_query_one_prob,
)
from .oracle import (
    BalancedLayerZero,
    DisagreementBound,
    ExplicitFlips,
    IidFlips,
    NoCorruption,
    NoisyOracle,
    WeightTruncation,
    disagreement_fraction,
    parse_corruption,
)

__version__ = "0.1.0"
