"""Training utilities: optimizers over distributed parameters, synthetic and
character-level data, LR schedules, and a scheme-agnostic trainer loop."""

from repro.training.amp import DynamicLossScaler, grads_finite, scale_grads
from repro.training.data import (
    LOREM_TEXT,
    BatchStream,
    CharCorpus,
    copy_task_batch,
    random_batch,
)
from repro.training.optim import (
    SGD,
    Adam,
    SerialAdam,
    SerialSGD,
    clip_grads,
    grad_norm,
    make_immediate_updater,
)
from repro.training.schedule import constant_lr, warmup_cosine
from repro.training.trainer import (
    GlobalGradOptimizer,
    Trainer,
    TrainingDivergedError,
    make_pipeline_trainer,
    make_serial_trainer,
)

__all__ = [
    "DynamicLossScaler",
    "grads_finite",
    "scale_grads",
    "SGD",
    "Adam",
    "SerialSGD",
    "SerialAdam",
    "grad_norm",
    "clip_grads",
    "make_immediate_updater",
    "random_batch",
    "BatchStream",
    "CharCorpus",
    "copy_task_batch",
    "LOREM_TEXT",
    "constant_lr",
    "warmup_cosine",
    "Trainer",
    "TrainingDivergedError",
    "GlobalGradOptimizer",
    "make_serial_trainer",
    "make_pipeline_trainer",
]
