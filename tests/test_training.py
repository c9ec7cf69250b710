"""Training stack: optimizers (distributed vs serial), data, schedules,
trainer loop, gradient utilities."""

import math

import numpy as np
import pytest

from repro.config import tiny_config
from repro.core import OptimusModel
from repro.core.param import DistParam
from repro.hybrid.data_parallel import DataParallel
from repro.megatron import MegatronModel
from repro.mesh import COL_BLOCKED, ROW_BLOCKED, DTensor, assemble_blocked_2d
from repro.mesh.partition import distribute_row0_blockrows
from repro.nn import init_transformer_params
from repro.reference import ReferenceTransformer
from repro.runtime import Simulator
from repro.training import (
    SGD,
    Adam,
    BatchStream,
    CharCorpus,
    SerialAdam,
    SerialSGD,
    Trainer,
    TrainingDivergedError,
    clip_grads,
    constant_lr,
    copy_task_batch,
    grad_norm,
    make_pipeline_trainer,
    make_serial_trainer,
    random_batch,
    warmup_cosine,
)
from tests.conftest import make_mesh


def _make_model(cfg, seed=1, q=2):
    params = init_transformer_params(cfg, seed=seed)
    return OptimusModel(make_mesh(q), cfg, params)


class TestDistVsSerialOptimizers:
    @pytest.mark.parametrize(
        "dist_cls,serial_cls,kw",
        [
            (SGD, SerialSGD, dict(lr=0.1)),
            (SGD, SerialSGD, dict(lr=0.1, momentum=0.9)),
            (SGD, SerialSGD, dict(lr=0.1, weight_decay=0.01)),
            (SGD, SerialSGD, dict(lr=0.1, momentum=0.9, weight_decay=0.01)),
            (Adam, SerialAdam, dict(lr=1e-2)),
            (Adam, SerialAdam, dict(lr=1e-2, weight_decay=0.01)),
        ],
    )
    def test_identical_updates(self, cfg, batch, dist_cls, serial_cls, kw):
        ids, labels = batch
        params_ref = init_transformer_params(cfg, seed=1)
        ref = ReferenceTransformer(cfg, params_ref)
        sopt = serial_cls(params_ref, **kw)

        params_d = init_transformer_params(cfg, seed=1)
        model = OptimusModel(make_mesh(2), cfg, params_d)
        dopt = dist_cls(model.parameters(), **kw)

        for _ in range(3):
            _, grads = ref.loss_and_grads(ids, labels)
            sopt.step(grads)
            dopt.zero_grad()
            model.forward(ids, labels)
            model.backward()
            dopt.step()

        w_d = assemble_blocked_2d(model.named_parameters()["layer0.mlp.w1"].data)
        np.testing.assert_allclose(w_d, params_ref["layer0.mlp.w1"], rtol=1e-9)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_skips_params_without_grads(self, cfg):
        model = _make_model(cfg)
        opt = SGD(model.parameters(), lr=0.1)
        opt.step()  # no grads anywhere: must be a no-op, not a crash

    def test_state_memory_charged(self, cfg):
        model = _make_model(cfg)
        sim = model.mesh.sim
        before = sim.device(0).memory.current
        Adam(model.parameters(), lr=1e-3, sim=sim)
        state_bytes = sim.device(0).memory.by_tag.get("optimizer_state", 0)
        assert state_bytes > 0
        assert sim.device(0).memory.current == before + state_bytes


class TestDecoupledWeightDecay:
    """Regression: weight decay used to be folded into the momentum-carried
    gradient (coupled L2), so stale decay terms compounded across steps."""

    def test_serial_decay_bypasses_momentum(self):
        p = np.array([1.0])
        opt = SerialSGD({"w": p}, lr=0.1, momentum=0.9, weight_decay=0.5)
        zero = {"w": np.array([0.0])}
        opt.step(zero)
        np.testing.assert_allclose(p, [0.95])
        # coupled L2 would give 0.8575 here: the first step's 0.5·θ decay
        # term survives in the momentum buffer and is re-applied at 0.9×
        opt.step(zero)
        np.testing.assert_allclose(p, [0.95**2])

    def test_dist_decay_bypasses_momentum(self, cfg, batch):
        ids, labels = batch
        model = _make_model(cfg)
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=0.5)
        model.forward(ids, labels)
        model.backward()
        for p in model.parameters():
            p.grad = p.grad.map(np.zeros_like)  # isolate the decay path
        w0 = assemble_blocked_2d(model.named_parameters()["layer0.mlp.w1"].data).copy()
        opt.step()
        opt.step()
        w2 = assemble_blocked_2d(model.named_parameters()["layer0.mlp.w1"].data)
        np.testing.assert_allclose(w2, w0 * 0.95**2, rtol=1e-12)

    def test_flops_count_decay_and_momentum(self, cfg):
        model = _make_model(cfg)
        params = model.parameters()
        assert SGD(params, lr=0.1)._flops_per_element() == 2.0
        assert SGD(params, lr=0.1, weight_decay=0.01)._flops_per_element() == 3.0
        assert SGD(params, lr=0.1, momentum=0.9)._flops_per_element() == 4.0
        assert (
            SGD(params, lr=0.1, momentum=0.9, weight_decay=0.01)._flops_per_element()
            == 5.0
        )
        assert Adam(params, lr=1e-3)._flops_per_element() == 12.0
        assert Adam(params, lr=1e-3, weight_decay=0.01)._flops_per_element() == 14.0


class TestGradUtilities:
    def test_grad_norm_matches_serial(self, cfg, batch):
        ids, labels = batch
        params_ref = init_transformer_params(cfg, seed=1)
        ref = ReferenceTransformer(cfg, params_ref)
        _, grads = ref.loss_and_grads(ids, labels)
        expected = math.sqrt(sum(float(np.sum(np.asarray(g) ** 2)) for g in grads.values()))

        model = _make_model(cfg)
        model.forward(ids, labels)
        model.backward()
        assert grad_norm(model.parameters()) == pytest.approx(expected, rel=1e-9)

    def test_grad_norm_counts_every_row0_blockrows_block(self, rng):
        """The classifier weight and the MoE gate: q distinct blocks on
        mesh row 0, none of them a copy."""
        mesh = make_mesh(2)
        g = rng.normal(size=(4, 2))
        p = DistParam("cls_head.weight", distribute_row0_blockrows(mesh, np.zeros((4, 2))))
        p.add_grad(distribute_row0_blockrows(mesh, g))
        assert grad_norm([p]) == pytest.approx(np.linalg.norm(g), rel=1e-12)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("layout", [ROW_BLOCKED, COL_BLOCKED], ids=lambda l: l.kind)
    def test_grad_norm_counts_every_line_blocked_block(self, rng, q, layout):
        """q distinct blocks, each copied along one mesh axis: block i on
        mesh row i (``ROW_BLOCKED``) or on mesh column i (``COL_BLOCKED``)."""
        mesh = make_mesh(q)
        g = rng.normal(size=(2 * q, 3))

        def blocked(a):
            blocks = np.split(a, q)
            shards = {
                mesh.rank(i, j): blocks[i if layout == ROW_BLOCKED else j].copy()
                for i in range(q)
                for j in range(q)
            }
            return DTensor(mesh, layout, shards, a.shape)

        p = DistParam("line_blocked", blocked(np.zeros_like(g)))
        p.add_grad(blocked(g))
        assert grad_norm([p]) == pytest.approx(np.linalg.norm(g), rel=1e-12)

    def test_grad_norm_counts_data_parallel_replicas_once(self, cfg, rng):
        ids = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))
        dp = DataParallel(Simulator.for_flat(8), cfg, init_transformer_params(cfg, seed=1), 2, 2)
        dp.forward_backward(ids, ids)
        assert grad_norm(dp.parameters()) == grad_norm(dp.replicas[0].parameters())

    def test_clip_grads(self, cfg, batch):
        ids, labels = batch
        model = _make_model(cfg)
        model.forward(ids, labels)
        model.backward()
        norm0 = grad_norm(model.parameters())
        clip_grads(model.parameters(), norm0 / 2)
        assert grad_norm(model.parameters()) == pytest.approx(norm0 / 2, rel=1e-9)

    def test_clip_noop_when_below(self, cfg, batch):
        ids, labels = batch
        model = _make_model(cfg)
        model.forward(ids, labels)
        model.backward()
        norm0 = grad_norm(model.parameters())
        returned = clip_grads(model.parameters(), norm0 * 10)
        assert returned == pytest.approx(norm0)
        assert grad_norm(model.parameters()) == pytest.approx(norm0)


class TestData:
    def test_random_batch_shapes_and_range(self, cfg):
        ids, labels = random_batch(cfg, 5, seed=1)
        assert ids.shape == labels.shape == (5, cfg.seq_len)
        assert ids.min() >= 0 and ids.max() < cfg.vocab_size

    def test_copy_task(self, cfg):
        ids, labels = copy_task_batch(cfg, 4)
        np.testing.assert_array_equal(ids, labels)

    def test_char_corpus_roundtrip(self):
        corpus = CharCorpus("hello world hello", vocab_size=12)
        assert corpus.decode(corpus.encode("hello")) == "hello"

    def test_char_corpus_batches_are_shifted(self):
        corpus = CharCorpus()
        ids, labels = corpus.batch(3, 10, seed=0)
        np.testing.assert_array_equal(ids[:, 1:], labels[:, :-1])

    def test_char_corpus_vocab_too_small(self):
        with pytest.raises(ValueError):
            CharCorpus("abcdefghij", vocab_size=3)

    def test_batches_iterator_varies(self):
        corpus = CharCorpus()
        it = corpus.batches(2, 8, seed=0)
        a, _ = next(it)
        b, _ = next(it)
        assert not np.array_equal(a, b)


class TestSchedules:
    def test_constant(self):
        assert constant_lr(0.3)(100) == 0.3

    def test_warmup_cosine_shape(self):
        fn = warmup_cosine(1.0, warmup_steps=10, total_steps=100, min_lr=0.1)
        assert fn(0) == pytest.approx(0.1)
        assert fn(9) == pytest.approx(1.0)
        assert fn(10) == pytest.approx(1.0)
        assert fn(1000) == pytest.approx(0.1)
        # monotone decay after warmup
        vals = [fn(s) for s in range(10, 100)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_warmup_cosine_validation(self):
        with pytest.raises(ValueError):
            warmup_cosine(1.0, warmup_steps=10, total_steps=5)


class TestTrainer:
    def test_loss_decreases_on_copy_task(self):
        cfg = tiny_config(num_layers=1)
        model = _make_model(cfg, q=2)
        opt = SGD(model.parameters(), lr=0.3)

        def batches():
            k = 0
            while True:
                yield copy_task_batch(cfg, 4, seed=k)
                k += 1

        trainer = Trainer(model, opt, batches())
        log = trainer.train_steps(12)
        assert log.losses[-1] < log.losses[0] * 0.9

    def test_lr_schedule_and_clipping_applied(self, cfg):
        model = _make_model(cfg)
        opt = SGD(model.parameters(), lr=1.0)

        def batches():
            while True:
                yield random_batch(cfg, 4, seed=0)

        trainer = Trainer(
            model, opt, batches(),
            lr_schedule=constant_lr(0.123), max_grad_norm=0.5,
        )
        log = trainer.train_steps(2)
        assert opt.lr == 0.123
        assert log.lrs == [0.123, 0.123]
        assert all(np.isfinite(n) for n in log.grad_norms)

    def test_logging(self, cfg, capsys):
        model = _make_model(cfg)
        opt = SGD(model.parameters(), lr=0.1)

        def batches():
            while True:
                yield random_batch(cfg, 4, seed=0)

        Trainer(model, opt, batches(), log_every=1).train_steps(1)
        assert "step" in capsys.readouterr().out


def _executor_trainer(scheme, cfg):
    """A Trainer over each built-in executor, from the same seed-1 parameters."""
    batches = BatchStream.copy_task(cfg, 4, seed=0)
    if scheme == "serial":
        return make_serial_trainer(cfg, batches)
    if scheme == "pipeline":
        return make_pipeline_trainer(cfg, batches, num_micro_batches=2)
    if scheme == "optimus":
        model = _make_model(cfg)
    elif scheme == "megatron":
        model = MegatronModel(
            Simulator.for_flat(p=2), cfg, init_transformer_params(cfg, seed=1)
        )
    else:
        model = DataParallel.build(num_replicas=2, q=2, cfg=cfg, seed=1)
    return Trainer(model, Adam(model.parameters(), lr=1e-2), batches)


class TestExecutorProtocol:
    """Every built-in executor drives the one Trainer as it stands: no
    adapter, and the ledger record reads the scheme off the executor."""

    SCHEMES = ("serial", "pipeline", "optimus", "megatron", "hybrid")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_trainer_drives_executor(self, scheme):
        cfg = tiny_config(num_layers=2)
        trainer = _executor_trainer(scheme, cfg)
        model = trainer.model
        assert model.scheme == scheme
        assert model.cfg is cfg
        assert (model.sim is None) == (scheme == "serial")
        assert trainer.sim is model.sim

        log = trainer.train_steps(2)
        assert len(log.losses) == 2 and log.losses[1] < log.losses[0]

        rec = trainer.ledger_record()
        assert rec.scheme == scheme
        assert (rec.mesh or {}).get("q") == (2 if scheme == "optimus" else None)
        pipeline = {"schedule": "1f1b", "num_stages": 2, "num_micro_batches": 2}
        assert rec.extra.get("pipeline") == (pipeline if scheme == "pipeline" else None)

    def test_executors_train_the_same_trajectory(self):
        """One architecture, five executors (paper §2.4): same parameters and
        batches give the serial losses."""
        cfg = tiny_config(num_layers=2)
        losses = {
            s: _executor_trainer(s, cfg).train_steps(2).losses for s in self.SCHEMES
        }
        for scheme in self.SCHEMES[1:]:
            np.testing.assert_allclose(losses[scheme], losses["serial"], rtol=1e-9)


class _DivergingModel:
    """Returns one finite loss, then NaN forever (simulated blow-up)."""

    def __init__(self):
        self._calls = 0

    def forward(self, ids, labels) -> float:
        self._calls += 1
        return 1.25 if self._calls == 1 else float("nan")

    def backward(self) -> None:
        pass


class _NoOpOptimizer:
    params = ()
    lr = 0.1

    def zero_grad(self) -> None:
        pass

    def step(self) -> None:
        pass


class TestDivergenceGuard:
    def test_nan_loss_raises_with_step_and_last_finite_loss(self):
        def batches():
            while True:
                yield None, None

        trainer = Trainer(_DivergingModel(), _NoOpOptimizer(), batches())
        with pytest.raises(TrainingDivergedError) as ei:
            trainer.train_steps(5)
        err = ei.value
        assert err.step == 1
        assert math.isnan(err.loss)
        assert err.last_finite_loss == 1.25
        assert "step 1" in str(err) and "1.25" in str(err)
        # the guard fires before backward touches anything; the good step
        # was committed and logged
        assert trainer.log.losses == [1.25]

    def test_nan_on_first_step_reports_no_finite_loss(self):
        model = _DivergingModel()
        model._calls = 1  # skip the finite loss

        def batches():
            while True:
                yield None, None

        with pytest.raises(TrainingDivergedError, match="no finite loss"):
            Trainer(model, _NoOpOptimizer(), batches()).train_steps(1)
