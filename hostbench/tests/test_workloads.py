"""Determinism, seed handling and failure detection of the four workloads."""

import pytest

from hostbench import workloads
from hostbench.harness import check_repeatable, run_pass, sim_metrics
from hostbench.metrics import WORKLOAD_NAMES
from hostbench.workloads import WORKLOADS


def _one_pass(name, seed):
    workload = WORKLOADS[name](seed)
    return workload, run_pass(workload)


def _failed(workload, p):
    return sum(u.failed for u in p.units) + len(workload.verify([p.units]))


@pytest.fixture(scope="module")
def baseline():
    """One verified pass of every workload at seed 0."""
    out = {}
    for name in WORKLOAD_NAMES:
        workload, p = _one_pass(name, 0)
        assert _failed(workload, p) == 0, name
        out[name] = p
    return out


def test_workload_table_matches_the_declared_names():
    assert tuple(WORKLOADS) == WORKLOAD_NAMES
    for name, cls in WORKLOADS.items():
        assert cls.name == name and cls.why and "\n" not in cls.why and len(cls.why) <= 200


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_same_digests_and_simulated_metrics(name, baseline):
    _, again = _one_pass(name, 0)
    first = baseline[name]
    assert [u.digest for u in again.units] == [u.digest for u in first.units]
    assert sim_metrics(again) == sim_metrics(first)
    assert all(u.digest for u in first.units)


@pytest.mark.parametrize("name", ["train_numeric", "serve_steady", "serve_churn"])
def test_another_seed_changes_outputs_but_not_the_work(name, baseline):
    workload, other = _one_pass(name, 1)
    assert _failed(workload, other) == 0
    first = baseline[name]
    assert [u.digest for u in other.units] != [u.digest for u in first.units]
    assert [u.ops for u in other.units] == [u.ops for u in first.units]
    # host work is seed-independent: same shapes, lengths and arrival times
    assert sim_metrics(other) == sim_metrics(first)
    if name.startswith("serve"):
        assert [u.counters.get("serving.engine.steps") for u in other.units] == [
            u.counters.get("serving.engine.steps") for u in first.units
        ]


def test_the_dry_run_ignores_the_seed(baseline):
    _, other = _one_pass("table2_dryrun", 1)
    assert [u.digest for u in other.units] == [u.digest for u in baseline["table2_dryrun"].units]


def test_steady_has_no_preemption_and_churn_has_plenty(baseline):
    from hostbench.harness import unit_counters

    steady = unit_counters(baseline["serve_steady"])
    churn = unit_counters(baseline["serve_churn"])
    assert steady["serving.scheduler.preempted"] == 0
    assert churn["serving.scheduler.preempted"] > 50
    assert churn["serving.kvcache.swapped_out"] == churn["serving.kvcache.swapped_in"] > 0
    assert churn["serving.kvcache.recomputed_tokens"] > 0
    for counters in (steady, churn):  # nothing shed: every operation can succeed
        assert counters["serving.scheduler.shed"] == 0
        assert counters["serving.scheduler.timed_out"] == 0


def test_a_dropped_request_is_counted_as_failed(monkeypatch):
    real = workloads.serving_report.run_arm

    def dropping(scheme, cfg, params, requests, **kw):
        return real(scheme, cfg, params, requests[:-1], **kw)

    monkeypatch.setattr(workloads.serving_report, "run_arm", dropping)
    workload, p = _one_pass("serve_steady", 0)
    assert [u.failed for u in p.units] == [0, 1, 1]


def test_wrong_tokens_are_counted_as_failed(monkeypatch):
    real = workloads.serving_report.run_arm

    def corrupting(scheme, *args, **kw):
        entry, sim = real(scheme, *args, **kw)
        if scheme == "megatron":
            entry["tokens_sha256"] = "0" * 16
        return entry, sim

    monkeypatch.setattr(workloads.serving_report, "run_arm", corrupting)
    workload, p = _one_pass("serve_steady", 0)
    assert sum(u.failed for u in p.units) == 0
    assert len(workload.verify([p.units])) == 32  # every megatron request


def test_preempted_requests_must_match_the_ample_capacity_run(monkeypatch, baseline):
    workload = WORKLOADS["serve_churn"](0)
    p = baseline["serve_churn"]
    assert workload.verify([p.units]) == []
    monkeypatch.setattr(workload, "_reference_tokens", lambda: "f" * 16)
    assert len(workload.verify([p.units])) == 4 * 32


def test_a_perturbed_loss_is_counted_as_failed(monkeypatch):
    workload = WORKLOADS["train_numeric"](0)
    trainer = workload.trainers["megatron"]
    real = trainer.train_steps

    def perturbed(n):
        log = real(n)
        log.losses[-1] *= 1.0 + 1e-6
        return log

    monkeypatch.setattr(trainer, "train_steps", perturbed)
    p = run_pass(workload)
    bad = workload.verify([p.units])
    assert len(bad) == 1 and bad[0].startswith("megatron step 0")


def test_a_unit_that_raises_fails_all_its_operations(monkeypatch):
    def broken(*a, **kw):
        raise RuntimeError("engine fell over")

    monkeypatch.setattr(workloads.serving_report, "run_arm", broken)
    workload, p = _one_pass("serve_steady", 0)
    assert [u.failed for u in p.units] == [0, 32, 32]
    assert "engine fell over" in p.units[1].error


def test_a_pass_that_differs_from_the_first_is_counted_as_failed(baseline):
    import copy

    workload = WORKLOADS["table2_dryrun"](0)
    first = baseline["table2_dryrun"]
    second = copy.deepcopy(first)
    second.units[2].digest = "changed"
    assert check_repeatable(workload, [first, first]) == []
    assert len(check_repeatable(workload, [first, second])) == 1
