"""Optimus reproduction: 2D (SUMMA) tensor parallelism for transformers.

A full, from-scratch reproduction of *"An Efficient 2D Method for Training
Super-Large Deep Learning Models"* (Xu, Li, Gong & You) on a simulated
multi-device runtime: the Optimus 2D scheme, the Megatron 1D baseline, a
serial reference ground truth, the paper's memory-management system, and a
benchmark harness that regenerates every table and figure.

Quick start::

    from repro import OptimusModel, Mesh, Simulator, init_transformer_params
    from repro.config import ModelConfig

    cfg = ModelConfig(vocab_size=512, hidden_size=64, num_heads=8,
                      num_layers=2, seq_len=32)
    params = init_transformer_params(cfg, seed=0)
    sim = Simulator.for_mesh(q=2)          # 4 simulated GPUs in a 2x2 mesh
    model = OptimusModel(Mesh(sim, 2), cfg, params)
    ids, labels = model.synthetic_batch(8)
    loss = model.forward(ids, labels)
    model.backward()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results.
"""

import importlib

__version__ = "1.0.0"

#: each public name -> its defining module, imported on first read (PEP 562),
#: so ``import repro`` loads this module alone
_EXPORTS = {
    "ModelConfig": "repro.config",
    "RunConfig": "repro.config",
    "tiny_config": "repro.config",
    "BufferManager": "repro.core.buffers",
    "MoE2D": "repro.core.moe",
    "OptimusModel": "repro.core.model",
    "DataParallel": "repro.hybrid.data_parallel",
    "MegatronModel": "repro.megatron.model",
    "Mesh": "repro.mesh.mesh",
    "init_transformer_params": "repro.nn.init",
    "PipelineModel": "repro.pipeline.engine",
    "ReferenceTransformer": "repro.reference.model",
    "Simulator": "repro.runtime.simulator",
    "save_checkpoint": "repro.serialization",
    "load_checkpoint": "repro.serialization",
    "save_training_checkpoint": "repro.serialization",
    "load_training_checkpoint": "repro.serialization",
    "CheckpointCorruptError": "repro.serialization",
    "FaultSchedule": "repro.resilience.faults",
    "FaultInjector": "repro.resilience.injector",
    "ResilientTrainer": "repro.resilience.trainer",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
