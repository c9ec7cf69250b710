"""The seeded shape-fuzzing equivalence runner."""

import numpy as np
import pytest

from repro.check.fuzz import TOLERANCES, TrialSpec, draw_spec, run_check, run_trial


class TestDrawing:
    def test_specs_satisfy_both_schemes_constraints(self):
        rng = np.random.default_rng(123)
        for t in range(50):
            s = draw_spec(rng, trial=t)
            assert s.batch % s.q == 0
            assert s.hidden % s.q == 0
            assert s.heads % s.q == 0
            assert s.vocab % s.q == 0
            assert s.heads % s.p == 0
            assert s.vocab % s.p == 0
            assert s.dtype in TOLERANCES
            if s.optimizer == "adam":
                assert s.dtype == "float64"  # see draw_spec: ε-amplification

    def test_drawing_is_seed_deterministic(self):
        a = draw_spec(np.random.default_rng(5), trial=0)
        b = draw_spec(np.random.default_rng(5), trial=0)
        assert a == b


class TestTrials:
    def _spec(self, **kw):
        base = dict(
            q=2, p=2, batch=2, seq=4, heads=2, head_dim=4, layers=1,
            vocab=16, dtype="float64", optimizer="sgd", lr=0.05,
            momentum=0.9, weight_decay=0.01, param_seed=1, data_seed=2,
        )
        base.update(kw)
        return TrialSpec(**base)

    def test_trial_passes_with_full_harness(self):
        result = run_trial(self._spec(), strict=True, contracts=True)
        assert result.passed, result.failures
        assert result.max_grad_diff < 1e-12
        assert result.max_param_diff < 1e-12

    def test_adam_trial_passes(self):
        result = run_trial(
            self._spec(optimizer="adam", lr=1e-3, momentum=0.0), strict=True,
            contracts=True,
        )
        assert result.passed, result.failures

    def test_run_check_smoke(self):
        lines = []
        assert run_check(seed=0, trials=1, printer=lines.append)
        assert any("all trials passed" in ln for ln in lines)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_is_a_usage_error(self, trials, capsys):
        """Zero trials used to print "all trials passed" with nothing checked."""
        from repro.cli import main

        assert main(["check", "--trials", str(trials)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --trials: must be >= 1, got {trials}\n"
        assert captured.out == ""
