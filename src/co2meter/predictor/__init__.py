"""Two-phase graph-network energy predictor, its training pipeline and the
baselines it is compared against."""

from .data import (
    GLOBAL_DIM,
    GLOBAL_FEATURE_NAMES,
    NODE_FEATURE_DIM,
    NUMERIC_NODE_FEATURES,
    GraphSample,
    PredictorInputs,
    globals_vector,
    node_feature_matrix,
    node_feature_tensor,
    read_dataset_jsonl,
    sample_from_json,
    sample_to_json,
    split_indices,
    write_dataset_jsonl,
)
from .gnn import (
    HIDDEN_DIM,
    NUM_ROUNDS,
    FeatureNorms,
    GnnParams,
    TowerParams,
    forward_tower,
    backward_tower,
    grad_check,
    init_params,
    init_tower,
    load_params_json,
    params_from_json,
    params_to_json,
    save_params_json,
)
from .training import (
    Adam,
    Metrics,
    RidgeBaseline,
    SinglePhaseParams,
    TrainConfig,
    error_bound_share,
    evaluate_baseline_total,
    evaluate_params,
    evaluate_predictions,
    fit_ridge_globals,
    mape,
    predict_prefill,
    predict_sample,
    predict_single_phase,
    predict_total,
    sample_table,
    table_rows,
    train,
    train_single_phase,
)
from .oracle import (
    featurize,
    gen_oracle_dataset,
    make_sample,
    request_energy,
    sample_regime_mixed_request,
    sample_trace_request,
)

__all__ = [name for name in dir() if not name.startswith("_")]
