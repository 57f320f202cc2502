"""Training-data subset search with ensemble active learning.

The package splits into five layers: :mod:`alsift.acquisition` scores
ensemble predictions, :mod:`alsift.learner` trains small classifiers and
assembles checkpoint ensembles, :mod:`alsift.schemes` runs the subset
search loops, :mod:`alsift.analysis` inspects the results, and
:mod:`alsift.experiment` plus :mod:`alsift.cli` orchestrate end-to-end
runs. :mod:`alsift.datagen` supplies synthetic pools for experiments.
"""

from .acquisition import (
    AcquisitionScores,
    FUNCTION_IDS,
    PredictionTensor,
    TensorFile,
    detection_heatmaps,
    pool_pass,
    read_prediction_tensor,
    read_prediction_tensor_csv,
    score_pool,
    write_prediction_tensor,
)
from .analysis import (
    ConsensusReport,
    DuplicationHistogram,
    EvalReport,
    consensus_counts,
    duplication_histogram,
    evaluate,
    evaluate_tensor,
    selected_unselected_gap,
)
from .datagen import (
    GeneratorSpec,
    PoolMetadata,
    generate_pool,
    generate_pool_with_metadata,
    read_pool_csv,
    write_pool_csv,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    TrialRecord,
    config_from_file,
    config_from_mapping,
    config_hash,
    export_plot_data,
    read_results,
    run_experiment,
    run_trial,
    write_results,
)
from .learner import (
    Checkpoint,
    CheckpointStore,
    EnsembleConfig,
    LabeledPool,
    ModelParams,
    PoolBlocks,
    TrainConfig,
    TrainResult,
    build_ensemble,
    fine_tune,
    predict_pool,
    read_checkpoint,
    train,
    write_checkpoint,
)
from .schemes import (
    SCHEMES,
    IterationRecord,
    SearchConfig,
    SubsetResult,
    growth_schedule,
    outlier_window_select,
    run_scheme,
    select_top_k,
    train_subset_ensemble,
)
from .state import SubsetState, derive_seed, subset_hash

__version__ = "0.1.0"
