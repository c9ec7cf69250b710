"""Serving chaos campaigns: token-identical recovery, telescoping with the
recovery phase, the batched-SUMMA fallback regression, the preemption A/B
gate, and the friendly baseline/scheme error paths."""

import json
import pathlib

import pytest

from repro.config import tiny_config
from repro.core import summa
from repro.nn.init import init_transformer_params
from repro.obs.ledger import RunLedger
from repro.resilience.injector import FaultInjector
from repro.serving.chaos import (
    INJECTOR_KW,
    default_serving_schedule,
    run_serve_chaos,
)
from repro.serving.report import (
    PARAM_SEED,
    load_baseline,
    run_preempt_ab,
)
from repro.serving.traffic import TrafficGenerator

CFG = tiny_config(num_heads=4)
PARAMS = init_transformer_params(CFG, seed=PARAM_SEED)


@pytest.fixture(scope="module")
def quick_ledger(tmp_path_factory):
    return RunLedger(str(tmp_path_factory.mktemp("serve-chaos") / "ledger.jsonl"))


@pytest.fixture(scope="module")
def quick_campaign(quick_ledger):
    return run_serve_chaos(0, quick=True, ledger=quick_ledger)


class TestServeChaos:
    def test_recovery_is_token_identical_on_both_schemes(self, quick_campaign):
        report = quick_campaign
        assert set(report["checks"]) == {"optimus", "megatron"}
        for scheme, check in report["checks"].items():
            assert check["token_identical"], scheme
            assert check["all_completed"], scheme
            assert check["crashes"] >= 1, scheme
            assert check["retries"] >= 1, scheme
            assert check["recovered_steps"] >= 2, scheme  # crash + timeout escape
        assert report["ok"] is True

    def test_attribution_telescopes_with_recovery_phase(self, quick_campaign):
        for entry in quick_campaign["arms"]:
            if entry["arm"] != "chaos":
                continue
            phases = entry["phases_s"]
            assert "recovery" in phases and phases["recovery"] > 0.0
            err = abs(sum(phases.values()) - entry["makespan_s"])
            assert err <= 1e-9 * max(entry["makespan_s"], 1.0)

    def test_campaign_is_deterministic(self, quick_campaign):
        again = run_serve_chaos(0, quick=True)
        assert json.dumps(again, sort_keys=True) == json.dumps(quick_campaign, sort_keys=True)

    def test_chaos_costs_simulated_time(self, quick_campaign):
        by = {}
        for e in quick_campaign["arms"]:
            by[(e["scheme"], e["arm"])] = e
        for scheme in ("optimus", "megatron"):
            base = by[(scheme, "baseline")]
            chaos = by[(scheme, "chaos")]
            assert chaos["makespan_s"] > base["makespan_s"]
            assert chaos["tokens_sha256"] == base["tokens_sha256"]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown serving chaos scheme"):
            run_serve_chaos(0, quick=True, schemes=("bogus",))

    @staticmethod
    def _cli_with_schemes(monkeypatch, argv, schemes):
        """``cli.main(argv)`` with the driver handed ``schemes``, as an API
        caller could pass them (``--scheme`` choices let none through)."""
        from repro import cli

        parsed = cli.driver_kwargs
        monkeypatch.setattr(cli, "driver_kwargs", lambda *a: {**parsed(*a), "schemes": schemes})
        return cli.main(argv)

    def test_serve_chaos_main_reports_bad_scheme(self, monkeypatch, capsys):
        """A usage error: the driver raises it before anything runs, and the
        CLI prints it on stderr with exit 2."""
        argv = ["chaos", "--serve", "--quick"]
        assert self._cli_with_schemes(monkeypatch, argv, ("bogus",)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown serving chaos scheme 'bogus'")
        assert captured.out == ""

    def test_training_chaos_main_reports_bad_scheme(self, monkeypatch, capsys):
        argv = ["chaos", "--quick"]
        assert self._cli_with_schemes(monkeypatch, argv, ("bogus",)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown chaos scheme 'bogus'")
        assert captured.out == ""

    def test_schedule_varies_with_seed_but_stays_in_range(self):
        def steps(schedule):
            return [getattr(f, "step", None) or f.start_step for f in schedule.all_faults()]

        a = default_serving_schedule(0, baseline_steps=20)
        b = default_serving_schedule(1, baseline_steps=20)
        assert steps(a) != steps(b)
        for schedule in (a, b):
            assert all(s <= 19 for s in steps(schedule))

    def test_ledger_records_serve_chaos_kind(self, tmp_path):
        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        run_serve_chaos(0, quick=True, schemes=("optimus",), ledger=led)
        records = led.read()
        assert {r.kind for r in records} == {"serve-chaos"}
        (rec,) = records
        assert rec.extra["token_identical"] is True
        assert rec.extra["recovered_steps"] >= 2
        assert rec.label.startswith("serve-chaos/")

    def test_ledger_records_carry_every_check(self, quick_campaign, quick_ledger):
        """One ``serve-chaos`` record per scheme, carrying the chaos arm's
        tokens and every ledger check of the campaign's report."""
        keys = ("token_identical", "crashes", "retries", "recovered_steps", "recovery_s", "ok")
        records = quick_ledger.read()
        assert [r.scheme for r in records] == ["optimus", "megatron"]
        for r in records:
            check = quick_campaign["checks"][r.scheme]
            assert {k: r.extra[k] for k in keys} == {k: check[k] for k in keys}
            assert r.extra["token_identical"] is True
            (chaos,) = [
                e for e in quick_campaign["arms"] if (e["scheme"], e["arm"]) == (r.scheme, "chaos")
            ]
            assert r.extra["tokens_sha256"] == chaos["tokens_sha256"]

    def test_dash_serve_chaos_section(self, tmp_path):
        from repro.obs.claims import scorecard
        from repro.obs.dash import SECTIONS, render_html

        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        run_serve_chaos(0, quick=True, schemes=("optimus",), ledger=led)
        records = led.read()
        (chaos,) = [s for s in SECTIONS if getattr(s, "title", None) == "Serving under chaos"]
        rows = chaos.rows(records, {})
        assert [r.scheme for r in rows] == ["optimus"]
        assert rows[0].extra["token_identical"] is True
        html_text = render_html(records, scorecard(records))
        assert "<h2>Serving under chaos</h2>" in html_text


class TestBatchedSummaFallback:
    """Armed fault injectors must force SUMMA back to per-rank execution
    (the batched engine cannot replay per-rank collective faults)."""

    def test_armed_injector_disables_batched(self):
        from repro.mesh.mesh import Mesh
        from repro.runtime.simulator import Simulator

        sim = Simulator.for_mesh(q=2)
        Mesh(sim, 2)
        schedule = default_serving_schedule(0, baseline_steps=20)
        inj = FaultInjector(schedule, seed=0, **INJECTOR_KW)
        inj.install(sim)
        try:
            assert not summa._batched_ready(sim)
        finally:
            inj.uninstall()
        assert summa._batched_ready(sim)

    def test_chaos_campaign_byte_equal_under_either_summa_executor(self, monkeypatch):
        """Which SUMMA executor the fault-free arm takes must not change a
        chaos campaign by a byte (the chaos arm's armed injector forces the
        per-rank executor either way)."""
        default = run_serve_chaos(0, quick=True, schemes=("optimus",))
        monkeypatch.setattr(summa, "_batched_ready", lambda sim: False)
        per_rank = run_serve_chaos(0, quick=True, schemes=("optimus",))
        assert json.dumps(per_rank, sort_keys=True) == json.dumps(default, sort_keys=True)


class TestPreemptAB:
    @pytest.fixture(scope="class")
    def ab(self):
        return run_preempt_ab(0, quick=True)

    def test_gate_passes(self, ab):
        assert ab["ok"] is True
        for scheme, gate in ab["gate"].items():
            assert gate["reserve_rejected"] > 0, scheme
            assert gate["admits_more"], scheme
            assert gate["goodput_higher"], scheme

    def test_deterministic(self, ab):
        again = run_preempt_ab(0, quick=True)
        assert json.dumps(again, sort_keys=True) == json.dumps(ab, sort_keys=True)

    def test_arms_cover_swap_and_recompute(self, ab):
        arms = {e["policy"] for e in ab["arms"]}
        assert arms == {"reserve", "preempt-swap", "preempt-recompute"}

    def test_full_report_matches_committed_baseline(self, tmp_path):
        from repro.cli import main as cli_main

        out = tmp_path / "preempt-ab.json"
        assert cli_main(["serve", "--preempt-ab", "--seed", "0", "--out", str(out)]) == 0
        root = pathlib.Path(__file__).resolve().parents[1]
        assert out.read_bytes() == (root / "benchmarks/preempt_ab_baseline.json").read_bytes()


class TestFriendlyErrors:
    def test_missing_baseline_names_path_and_regen_command(self, tmp_path):
        path = str(tmp_path / "missing.json")
        with pytest.raises(ValueError) as exc:
            load_baseline(path)
        msg = str(exc.value)
        assert path in msg
        assert "repro serve" in msg

    def test_corrupt_baseline_names_path(self, tmp_path):
        path = str(tmp_path / "corrupt.json")
        with open(path, "w") as f:
            f.write("{not json")
        with pytest.raises(ValueError) as exc:
            load_baseline(path)
        assert path in str(exc.value)

    def test_wrong_schema_names_path(self, tmp_path):
        path = str(tmp_path / "other.json")
        with open(path, "w") as f:
            json.dump({"report": "something-else"}, f)
        with pytest.raises(ValueError) as exc:
            load_baseline(path)
        assert path in str(exc.value)

    def test_cli_compare_missing_baseline_is_friendly(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "nope.json")
        rc = main(["serve", "--quick", "--seed", "0", "--requests", "4", "--compare", missing])
        assert rc == 2
        msg = capsys.readouterr().err
        assert missing in msg and "repro serve" in msg

    def test_cli_chaos_unknown_scheme_is_friendly(self, capsys):
        from repro.cli import main

        rc = main(["chaos", "--serve", "--quick", "--scheme", "hybrid"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown serving chaos scheme 'hybrid'")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestChaosCLI:
    def test_chaos_serve_writes_byte_identical_reports(self, tmp_path, capsys):
        from repro.cli import main

        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        argv = ["chaos", "--serve", "--quick", "--seed", "0", "--scheme", "optimus", "--out"]
        assert main(argv + [out1]) == 0
        assert main(argv + [out2]) == 0
        with open(out1) as f1, open(out2) as f2:
            assert f1.read() == f2.read()
        with open(out1) as f:
            doc = json.load(f)
        assert doc["report"] == "repro-serve-chaos-v1"
        assert doc["ok"] is True
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--steps", "7"], "--steps"),
            (["--trace-out", "t.json"], "--trace-out"),
            (["--trace-out", "t.json", "--steps", "3"], "--steps"),
        ],
        ids=["steps", "trace-out", "steps-and-trace-out"],
    )
    def test_a_training_flag_with_serve_is_a_usage_error(
        self, argv, flag, tmp_path, monkeypatch, capsys
    ):
        """The serving campaign reads neither flag: it used to exit 0 without
        writing the trace it was asked for.  Given both, the first in the
        parser's order is named."""
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["chaos", "--serve", "--quick", "--scheme", "optimus", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} cannot be combined with --serve\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []  # nothing ran, nothing written


class TestTrafficDeadlines:
    def test_generator_stamps_deadline_without_new_draws(self):
        plain = TrafficGenerator(0, CFG.vocab_size).generate()
        stamped = TrafficGenerator(0, CFG.vocab_size, deadline_s=0.5).generate()
        assert [r.deadline_s for r in stamped] == [0.5] * len(stamped)
        assert [
            (r.rid, r.arrival, r.prompt, r.max_new) for r in plain
        ] == [(r.rid, r.arrival, r.prompt, r.max_new) for r in stamped]

    def test_describe_mentions_deadline_only_when_set(self):
        assert "deadline_s" not in TrafficGenerator(0, CFG.vocab_size).describe()
        doc = TrafficGenerator(0, CFG.vocab_size, deadline_s=0.5).describe()
        assert doc["deadline_s"] == 0.5
