"""GCN link prediction with degree-bias diagnostics, spectral error radii,
and subgroup-fairness quantification and training."""
from .fairness import FairnessAssessment, delta, delta_hat
from .gcn import Model, forward, init_model, loss_and_gradients, score_pairs
from .graphdata import (
    Dataset,
    DatasetError,
    WithinGroupView,
    load_dataset,
    make_dataset,
    normalize_features,
    within_group_structure,
)
from .metrics import (
    MetricValue,
    max_degree_ratio,
    nrmse,
    pcc,
    roc_auc,
)
from .pipelines import (
    RunConfig,
    config_from_dict,
    run_delta_comparison,
    run_fairness_sweep,
    run_train,
    run_validate_theory,
)
from .spectral import (
    BoundSet,
    NormalizedMatrix,
    block_spectrum,
    matrix_from_edges,
    normalized_matrix,
    operator_norm,
    residual_and_bounds,
)
from .synth import SynthConfig, synth_generate
from .theory import (
    TheoryReport,
    alpha_vectors,
    build_theory_report,
    estimate_rho,
    group_c1,
    raw_theoretic_scores,
)
from .training import (
    LinkSplit,
    TrainConfig,
    TrainResult,
    load_checkpoint,
    sample_negatives,
    save_checkpoint,
    split_links,
    train,
)

__version__ = "0.1.0"
