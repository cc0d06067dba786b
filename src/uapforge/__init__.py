"""Universal adversarial perturbation crafting via dynamic maximin optimization."""

from .attack import (
    AttackConfig,
    RunLog,
    UAPState,
    apply_variant,
    craft,
    init_uap,
    load_uap_artifact,
    save_uap_artifact,
    schedule,
    uap_update,
)
from .autodiff import finite_difference_gradient
from .data import Batch, Dataset, load_idx, minibatches, pseudo_labels, save_idx, subset, synth_blobs
from .errors import ArtifactMissing, ConfigError, CraftingFailed, TrainingDiverged
from .evaluate import FoolingReport, TransferMatrix, fooling_ratio, report_write, transfer_matrix
from .models import (
    Ensemble,
    LayerSpec,
    ModelState,
    build_model,
    load_checkpoint,
    make_architecture,
    save_checkpoint,
    train_erm,
)
from .optim import AdamState, adam_step, l2_pgd_step, l2_project, normalized_descent_step
from .tensor import load_tensor, save_tensor

__version__ = "0.1.0"
