"""Data-parallel composition over tensor-parallel replicas.

``R`` replicas of an Optimus mesh (q×q each) occupy disjoint rank ranges of
one simulator: replica r owns ranks ``[r·q², (r+1)·q²)``.  A training step:

1. split the global batch into R equal replica-batches;
2. every replica runs its own tensor-parallel forward/backward — exactly
   the single-replica code, on its own mesh;
3. for every parameter shard position, an all-reduce *across replicas*
   (groups of size R containing the rank holding that shard in each
   replica) averages the gradients — the classic data-parallel gradient
   synchronization, here composed with the 2D layouts;
4. each rank updates its shard locally; replicas stay bit-identical because
   they apply identical updates to identical parameters.

The equivalence test asserts a hybrid step equals a single-replica
full-batch step, which equals serial training.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.backend.shape_array import ShapeArray, is_shape_array
from repro.comm import collectives as coll
from repro.comm.group import ProcessGroup
from repro.config import ModelConfig
from repro.core.model import OptimusModel
from repro.core.param import DistParam
from repro.mesh.dtensor import DTensor, on_stacks
from repro.mesh.mesh import Mesh
from repro.nn.init import init_transformer_params
from repro.runtime.simulator import Simulator


class DataParallel:
    """R Optimus replicas + cross-replica gradient averaging."""

    scheme = "hybrid"

    def __init__(
        self,
        sim: Simulator,
        cfg: ModelConfig,
        params_global: Dict[str, object],
        num_replicas: int,
        q: int,
        checkpoint_activations: bool = True,
        **model_kwargs,
    ):
        if num_replicas < 1:
            raise ValueError("need at least one replica")
        per = q * q
        if num_replicas * per > sim.num_ranks:
            raise ValueError(
                f"{num_replicas} replicas x {per} ranks need "
                f"{num_replicas * per} ranks, simulator has {sim.num_ranks}"
            )
        self.sim = sim
        self.cfg = cfg
        self.R = num_replicas
        self.q = q
        self.replicas: List[OptimusModel] = []
        for r in range(num_replicas):
            mesh = Mesh(sim, q, rank_offset=r * per)
            # every replica gets its own copies of the same initial values
            replica_params = {
                k: (v if is_shape_array(v) or r == 0 else np.array(v, copy=True))
                for k, v in params_global.items()
            }
            self.replicas.append(
                OptimusModel(
                    mesh, cfg, replica_params,
                    checkpoint_activations=checkpoint_activations, **model_kwargs,
                )
            )
        # one gradient-sync group per shard position of each parameter
        self._sync_groups = self._build_sync_groups()

    # ------------------------------------------------------------------
    def _build_sync_groups(self) -> Dict[str, Dict[int, ProcessGroup]]:
        """{param name: {replica-0 shard rank: cross-replica group}}."""
        if self.R == 1:
            return {}
        per = self.q * self.q
        groups: Dict[str, Dict[int, ProcessGroup]] = {}
        for p0 in self.replicas[0].parameters():
            by_pos = {}
            for rank0 in p0.data.shards:
                ranks = [rank0 + r * per for r in range(self.R)]
                by_pos[rank0] = ProcessGroup(self.sim, ranks, kind="dp")
            groups[p0.name] = by_pos
        return groups

    # ------------------------------------------------------------------
    def forward(self, ids, labels) -> float:
        """The trainer's entry point.  Replicas must finish their backward
        before gradients can be averaged, so the whole iteration runs here
        (:meth:`forward_backward`) and :meth:`backward` has nothing left."""
        return self.forward_backward(ids, labels)

    def backward(self) -> None:
        pass

    def forward_backward(self, ids, labels) -> float:
        """One hybrid training iteration; returns the global mean loss.

        After this call every replica's parameter gradients equal the
        gradients of the full-batch mean loss.
        """
        b = ids.shape[0]
        if b % self.R:
            raise ValueError(f"batch {b} not divisible by {self.R} replicas")
        ids_r = self._split(ids)
        labels_r = self._split(labels)
        losses = []
        for r, model in enumerate(self.replicas):
            losses.append(model.forward(ids_r[r], labels_r[r]))
            model.backward()
        self._sync_gradients()
        if any(is_shape_array(l) for l in losses):
            return losses[0]
        return float(np.mean(losses))

    def _split(self, arr):
        if is_shape_array(arr):
            return [
                ShapeArray((arr.shape[0] // self.R,) + arr.shape[1:], arr.dtype)
            ] * self.R
        return np.split(np.asarray(arr), self.R, axis=0)

    def _sync_gradients(self) -> None:
        """All-reduce every gradient shard across replicas and average.

        Each replica's gradient is replaced by a fresh DTensor of the averaged
        shards (same key order), never patched shard by shard: a gradient may
        carry a block stack its shards are views of, and later rank-local math
        (clipping, loss scaling, the optimizer) computes on that stack.  Under
        :func:`on_stacks` the averages fill a fresh stack of their own."""
        if self.R == 1:
            return
        by_name = [
            {p.name: p for p in model.parameters()} for model in self.replicas
        ]
        inv_r = 1.0 / self.R
        for name, by_pos in self._sync_groups.items():
            grads = []
            for r, params in enumerate(by_name):
                g = params[name].grad
                if g is None:
                    raise RuntimeError(f"{name}: replica {r} has no gradient")
                grads.append(g)
            stacked = [
                DTensor.from_blocks(
                    g.owner, g.layout, np.empty_like(g.blocks), g.global_shape, g.ranks
                )
                if on_stacks(g.owner, g)
                else None
                for g in grads
            ]
            averaged = [dict(g.shards) for g in grads]
            for rank0, group in by_pos.items():
                # replica r holds this shard at rank0 + r·q² == group.ranks[r]
                shards = {
                    group.ranks[r]: g.shards[group.ranks[r]] for r, g in enumerate(grads)
                }
                reduced = coll.all_reduce(group, shards)
                for r, (avg, out) in enumerate(zip(averaged, stacked)):
                    rank = group.ranks[r]
                    if out is None:
                        avg[rank] = reduced[rank] * inv_r
                    else:  # bit-identical to the product above
                        np.multiply(reduced[rank], inv_r, out=out.shards[rank])
            for params, g, avg, out in zip(by_name, grads, averaged, stacked):
                if out is None:
                    out = DTensor(g.owner, g.layout, avg, g.global_shape)
                params[name].grad = out

    # ------------------------------------------------------------------
    def parameters(self) -> List[DistParam]:
        """All replicas' parameters (synced grads → identical updates)."""
        out: List[DistParam] = []
        for model in self.replicas:
            out.extend(model.parameters())
        return out

    def zero_grads(self) -> None:
        for model in self.replicas:
            model.zero_grads()

    def drop_caches(self) -> None:
        for model in self.replicas:
            model.drop_caches()

    def gathered_parameters(self) -> Dict[str, np.ndarray]:
        """Global parameter arrays from replica 0 (replicas are identical);
        the checkpoint hook used by :func:`repro.serialization.gather_parameters`."""
        from repro.mesh.partition import assemble_any

        return {
            p.name: np.asarray(assemble_any(p.data))
            for p in self.replicas[0].parameters()
        }

    def replica(self, r: int) -> OptimusModel:
        return self.replicas[r]

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        num_replicas: int,
        q: int,
        cfg: ModelConfig,
        seed: int = 0,
        backend: str = "numpy",
        **kw,
    ) -> "DataParallel":
        """Convenience: size a simulator and initialize shared parameters."""
        sim = Simulator.for_flat(num_replicas * q * q, backend=backend)
        dtype = "float32" if backend == "shape" else "float64"
        params = init_transformer_params(cfg, seed=seed, backend=backend, dtype=dtype)
        return cls(sim, cfg, params, num_replicas, q, **kw)
