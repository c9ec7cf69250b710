"""Fault injection and recovery: zero-overhead-when-off, retry/backoff,
SDC guards, crash checkpoint/restart, straggler pricing, chaos campaigns."""

from __future__ import annotations

import json

import pytest

from repro.core.model import OptimusModel
from repro.nn.init import init_transformer_params
from repro.resilience.chaos import run_campaign, run_scheme
from repro.resilience.faults import (
    CollectiveTimeoutError,
    FaultSchedule,
    GradientSDC,
    MessageCorruption,
    RankCrash,
    RankCrashError,
    Straggler,
    TransientCollectiveFault,
)
from repro.resilience.injector import FaultInjector
from repro.resilience.trainer import ResilientTrainer
from repro.training.data import BatchStream
from repro.training.optim import Adam
from repro.training.trainer import Trainer
from tests.conftest import make_mesh


def _trainer(cfg, resilient=False, seed=3, **kw):
    """An Optimus 2x2 trainer over the copy task (plain or resilient)."""
    model = OptimusModel(make_mesh(2), cfg, init_transformer_params(cfg, seed=1))
    optimizer = Adam(model.parameters(), lr=1e-2)
    batches = BatchStream.copy_task(cfg, 4, seed=seed)
    cls = ResilientTrainer if resilient else Trainer
    return cls(model, optimizer, batches, **kw)


def _baseline(cfg, steps):
    trainer = _trainer(cfg)
    log = trainer.train_steps(steps)
    return trainer, log


def _chaos(cfg, schedule, steps, tmp_path=None, injector_kw=None, **kw):
    injector = FaultInjector(schedule, seed=0, **(injector_kw or {}))
    if tmp_path is not None:
        kw.setdefault("checkpoint_every", 2)
        kw.setdefault("checkpoint_path", str(tmp_path / "ckpt"))
    trainer = _trainer(cfg, resilient=True, injector=injector, **kw)
    log = trainer.train_steps(steps)
    return trainer, log, injector


class TestZeroOverheadWhenOff:
    def test_simulator_default_has_no_injector(self, mesh2):
        assert mesh2.sim.fault_injector is None

    def test_empty_schedule_is_bit_identical(self, cfg):
        base, base_log = _baseline(cfg, 3)
        chaos, chaos_log, _ = _chaos(cfg, FaultSchedule(), 3)
        assert chaos_log.losses == base_log.losses  # bit-exact, not approx
        assert chaos.sim.elapsed() == base.sim.elapsed()
        for r in base.sim.ranks:
            assert (
                chaos.sim.device(r).bytes_comm == base.sim.device(r).bytes_comm
            )


class TestTransientFaults:
    def test_flaky_retry_preserves_trajectory(self, cfg):
        base, base_log = _baseline(cfg, 3)
        fault = TransientCollectiveFault(
            step=1, index=1, kind="reduce", fails=2, mode="flaky"
        )
        chaos, chaos_log, inj = _chaos(cfg, FaultSchedule.of(fault), 3)
        assert chaos_log.losses == base_log.losses
        assert inj.stats["retries"] == 2
        # failed attempts and backoff are priced on the simulated clock
        assert chaos.sim.elapsed() > base.sim.elapsed()
        assert chaos.metrics.counter("resilience/retries", kind="reduce").value == 2

    def test_timeout_mode_charges_the_timeout(self, cfg):
        base, _ = _baseline(cfg, 2)
        fault = TransientCollectiveFault(
            step=1, index=0, kind="any", fails=1, mode="timeout"
        )
        chaos, _, inj = _chaos(
            cfg, FaultSchedule.of(fault), 2, injector_kw={"timeout_s": 5.0}
        )
        assert inj.stats["retries"] == 1
        assert chaos.sim.elapsed() - base.sim.elapsed() >= 5.0

    def test_exhausted_retries_raise_without_checkpoint(self, cfg):
        fault = TransientCollectiveFault(
            step=1, index=0, kind="any", fails=10, mode="flaky"
        )
        with pytest.raises(CollectiveTimeoutError):
            _chaos(cfg, FaultSchedule.of(fault), 2, injector_kw={"max_retries": 2})

    def test_exhausted_retries_recover_from_checkpoint(self, cfg, tmp_path):
        _, base_log = _baseline(cfg, 4)
        fault = TransientCollectiveFault(
            step=3, index=0, kind="any", fails=10, mode="flaky"
        )
        chaos, chaos_log, _ = _chaos(
            cfg, FaultSchedule.of(fault), 4, tmp_path,
            injector_kw={"max_retries": 2},
        )
        assert chaos_log.losses == base_log.losses
        assert [r["cause"] for r in chaos.recoveries] == ["CollectiveTimeoutError"]

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            TransientCollectiveFault(step=0, mode="explode")


class TestSDCGuards:
    def test_corrupted_message_detected_and_step_reexecuted(self, cfg):
        # probe how many grad-path reduces one step issues, then corrupt one
        # in the backward pass: the guard must trip and re-run the step
        probe_inj = FaultInjector(FaultSchedule(), seed=0)
        _trainer(cfg, resilient=True, injector=probe_inj).train_steps(1)
        corrupt_index = int(0.75 * probe_inj._kind_counts["reduce"])

        _, base_log = _baseline(cfg, 3)
        fault = MessageCorruption(step=1, index=corrupt_index, kind="reduce")
        chaos, chaos_log, inj = _chaos(cfg, FaultSchedule.of(fault), 3)
        assert inj.stats["corruptions"] == 1
        assert chaos.metrics.counter("resilience/sdc_detected").value >= 1
        assert chaos.metrics.counter("resilience/step_retries").value >= 1
        assert chaos_log.losses == base_log.losses

    def test_gradient_bitflip_detected_and_step_reexecuted(self, cfg):
        _, base_log = _baseline(cfg, 3)
        chaos, chaos_log, inj = _chaos(
            cfg, FaultSchedule.of(GradientSDC(step=1)), 3
        )
        assert inj.stats["sdc_injected"] == 1
        assert chaos.metrics.counter("resilience/sdc_detected").value >= 1
        assert chaos_log.losses == base_log.losses


class TestCrashRecovery:
    def test_crash_restores_bit_exact_trajectory(self, cfg, tmp_path):
        base, base_log = _baseline(cfg, 5)
        chaos, chaos_log, inj = _chaos(
            cfg, FaultSchedule.of(RankCrash(step=3, rank=2)), 5, tmp_path
        )
        assert inj.stats["crashes"] == 1
        assert chaos_log.losses == base_log.losses
        assert len(chaos.recoveries) == 1
        rec = chaos.recoveries[0]
        assert rec["failed_step"] == 3 and rec["restored_step"] == 2
        assert chaos.metrics.histogram("resilience/mttr").count == 1
        # downtime (restart cost + checkpoint reload) lands on the clock
        assert chaos.sim.elapsed() >= base.sim.elapsed() + chaos.restart_cost_s

    def test_crash_without_checkpoint_is_fatal(self, cfg):
        with pytest.raises(RankCrashError, match="rank 1 crashed at step 1"):
            _chaos(cfg, FaultSchedule.of(RankCrash(step=1, rank=1)), 2)


class TestStraggler:
    def test_straggler_slows_clock_not_numerics(self, cfg):
        base, base_log = _baseline(cfg, 3)
        fault = Straggler(rank=0, start_step=1, num_steps=2, factor=3.0)
        chaos, chaos_log, _ = _chaos(cfg, FaultSchedule.of(fault), 3)
        assert chaos_log.losses == base_log.losses
        assert chaos.sim.elapsed() > base.sim.elapsed()
        assert chaos.metrics.counter("resilience/straggler_time").value > 0


class TestChaosCampaign:
    def test_quick_campaign_is_deterministic_and_bit_exact(self, tmp_path):
        first = run_campaign(seed=0, quick=True, schemes=("optimus",))
        second = run_campaign(seed=0, quick=True, schemes=("optimus",))
        assert first == second  # same seed, byte-identical report
        assert first["ok"]
        (result,) = first["schemes"]
        assert result["loss_match"] and result["faults_fired"]
        assert result["recovery_overhead_s"] > 0
        assert result["mttr_s"]


class TestStrictChaos:
    """Strict mode validates each DTensor as it is built, so on Megatron it
    sees the corrupted replica copy before the gradient guards do: that is
    the same detection, and the step is re-run."""

    @pytest.mark.parametrize("scheme", ["optimus", "megatron"])
    def test_strict_run_recovers_like_the_plain_run(
        self, scheme, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        runs = {}
        for strict in ("0", "1"):
            monkeypatch.setenv("REPRO_STRICT_INVARIANTS", strict)
            result, sim = run_scheme(scheme, 0, 6, 2, str(tmp_path))
            runs[strict] = (result, sim.metrics)
        (plain, plain_metrics), (checked, checked_metrics) = runs["0"], runs["1"]
        assert checked["ok"] and checked["loss_match"]
        assert checked["final_loss"] == plain["final_loss"]
        assert checked["stats"] == plain["stats"]
        for name in ("resilience/sdc_detected", "resilience/step_retries"):
            assert checked_metrics.counter(name).value == plain_metrics.counter(name).value

        out = tmp_path / "strict.json"
        assert main(["chaos", "--quick", "--scheme", scheme, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"] is True
        capsys.readouterr()
