"""Global parameter initialization.

Parameters are always materialized as *global* arrays first (seeded, so every
run is reproducible), then partitioned onto devices by each scheme's layout.
In dryrun mode the same function returns ShapeArray placeholders with
identical shapes, so the distributed code paths are oblivious to the mode.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from repro.backend import ops
from repro.backend.shape_array import ShapeArray
from repro.config import ModelConfig


def spectral_scale(fan_in: int) -> float:
    """Plain 1/√fan_in scaling used for all weight matrices."""
    return 1.0 / math.sqrt(fan_in)


def init_transformer_params(
    cfg: ModelConfig,
    seed: int = 0,
    backend: str = "numpy",
    dtype: str = "float64",
    include_embedding: bool = True,
    num_classes: int = 0,
) -> Dict[str, object]:
    """Create the full global parameter dict for a transformer.

    Names (per layer l):

    * ``embedding.table``                       [v, h]
    * ``layer{l}.ln1.gamma`` / ``.ln1.beta``    [h]
    * ``layer{l}.attn.wqkv`` / ``.attn.bqkv``   [h, 3h] / [3h] (head-major)
    * ``layer{l}.attn.wo`` / ``.attn.bo``       [h, h] / [h]
    * ``layer{l}.ln2.gamma`` / ``.ln2.beta``    [h]
    * ``layer{l}.mlp.w1`` / ``.mlp.b1``         [h, 4h] / [4h]
    * ``layer{l}.mlp.w2`` / ``.mlp.b2``         [4h, h] / [h]
    * ``final_ln.gamma`` / ``final_ln.beta``    [h]
    * ``cls_head.weight`` / ``cls_head.bias``   [h, C] / [C] (when
      ``num_classes`` > 0 — the paper's Fig. 1 classification branch)
    """
    # a dry run draws nothing, and does not load numpy.random
    rng = None if backend == "shape" else np.random.default_rng(seed)
    h, f, v = cfg.hidden_size, cfg.ffn_hidden, cfg.vocab_size
    resid_scale = 1.0 / math.sqrt(2.0 * cfg.num_layers)

    def w(shape, scale):
        if backend == "shape":
            return ShapeArray(shape, dtype)
        # float64 draws are the dtype already: no full-size copy
        return rng.normal(0.0, scale, size=shape).astype(dtype, copy=False)

    def zeros(shape):
        return ops.zeros(shape, dtype=dtype, backend=backend)

    def ones(shape):
        return ops.ones(shape, dtype=dtype, backend=backend)

    params: Dict[str, object] = {}
    if include_embedding:
        params["embedding.table"] = w((v, h), 0.02)
    for l in range(cfg.num_layers):
        params[f"layer{l}.ln1.gamma"] = ones((h,))
        params[f"layer{l}.ln1.beta"] = zeros((h,))
        params[f"layer{l}.attn.wqkv"] = w((h, 3 * h), spectral_scale(h))
        params[f"layer{l}.attn.bqkv"] = zeros((3 * h,))
        params[f"layer{l}.attn.wo"] = w((h, h), spectral_scale(h) * resid_scale)
        params[f"layer{l}.attn.bo"] = zeros((h,))
        params[f"layer{l}.ln2.gamma"] = ones((h,))
        params[f"layer{l}.ln2.beta"] = zeros((h,))
        params[f"layer{l}.mlp.w1"] = w((h, f), spectral_scale(h))
        params[f"layer{l}.mlp.b1"] = zeros((f,))
        params[f"layer{l}.mlp.w2"] = w((f, h), spectral_scale(f) * resid_scale)
        params[f"layer{l}.mlp.b2"] = zeros((h,))
    params["final_ln.gamma"] = ones((h,))
    params["final_ln.beta"] = zeros((h,))
    if num_classes:
        # the paper's Fig. 1 classification branch (sentence-level label)
        params["cls_head.weight"] = w((h, num_classes), spectral_scale(h))
        params["cls_head.bias"] = zeros((num_classes,))
    return params
