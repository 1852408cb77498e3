"""Two-phase graph-network energy predictor and its training pipeline."""

from .data import (
    GLOBAL_DIM,
    GLOBAL_FEATURE_NAMES,
    NODE_FEATURE_DIM,
    NUMERIC_NODE_FEATURES,
    GraphSample,
    PredictorInputs,
    globals_vector,
    node_feature_matrix,
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
    predict_prefill,
    predict_total,
    sample_loss_and_grads,
    save_params_json,
)
from .training import (
    Adam,
    Metrics,
    TrainConfig,
    error_bound_share,
    evaluate_params,
    evaluate_predictions,
    mape,
    predict_sample,
    train,
)
from .oracle import (
    KernelCost,
    featurize,
    gen_oracle_dataset,
    kernel_costs,
    llm_request_energy,
    make_sample,
    phase_costs,
    phase_totals,
    request_energy,
    sample_regime_mixed_request,
    sample_trace_request,
)
from .baselines import (
    RidgeBaseline,
    SinglePhaseParams,
    evaluate_baseline_total,
    fit_ridge_globals,
    predict_single_phase,
    train_single_phase,
)

__all__ = [name for name in dir() if not name.startswith("_")]
