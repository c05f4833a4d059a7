"""hystkit: time-resolved magnetic-field prediction from flux trajectories.

Recurrent heads with state-injection warmup, Jiles-Atherton and Preisach
physics models, a deterministic CPU tape engine, and training/evaluation
tooling with model-size sweeps.
"""

__version__ = "0.1.0"

from .autodiff import Graph, Tensor, finite_diff_check
from .dataset import (
    MeasuredSequence,
    MiniBatch,
    NormConstants,
    compute_norm_constants,
    featurize,
    load_material,
    make_minibatches,
    split_dataset,
)
from .cells import GruParams, LstmParams, gru_step, lstm_step, param_count
from .heads import HeadConfig, RolloutInputs, RolloutResult, predict_window, rollout
from .metrics import MetricReport, loss_rmse, mae, mse, nere, sre, wce
from .physics import (
    JaPhysical,
    JaState,
    PreisachParams,
    ja_params_from_theta,
    ja_step_euler,
    preisach_predict,
)
from .training import (
    ModelCheckpoint,
    TrainConfig,
    evaluate_sequences,
    load_checkpoint,
    optimizer_step,
    pareto_sweep,
    save_checkpoint,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
