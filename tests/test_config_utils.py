"""Config presets, validation rules, and the table/byte formatters."""

import pytest

from repro.config import (
    ModelConfig,
    RunConfig,
    table2_weak_scaling,
    table3_strong_scaling,
    tiny_config,
)
from repro.utils.tables import format_bytes, format_table


class TestModelConfig:
    def test_derived_quantities(self):
        cfg = ModelConfig(hidden_size=64, num_heads=4)
        assert cfg.head_dim == 16
        assert cfg.ffn_hidden == 256

    def test_param_count_formula(self):
        cfg = tiny_config()
        h, f = cfg.hidden_size, cfg.ffn_hidden
        expected_layer = (3 * h * h + 3 * h) + (h * h + h) + (h * f + f) + (f * h + h) + 4 * h
        assert cfg.params_per_layer() == expected_layer
        assert cfg.total_params() == (
            cfg.num_layers * expected_layer + 2 * h + cfg.vocab_size * h
        )
        assert cfg.total_params(include_embedding=False) == (
            cfg.num_layers * expected_layer + 2 * h
        )

    def test_optimus_validation(self):
        cfg = tiny_config()
        cfg.validate_for_optimus(2, batch_size=4)
        with pytest.raises(ValueError, match="batch"):
            cfg.validate_for_optimus(2, batch_size=3)
        with pytest.raises(ValueError, match="heads"):
            cfg.validate_for_optimus(4, batch_size=4)
        with pytest.raises(ValueError, match="vocab"):
            tiny_config(vocab_size=50).validate_for_optimus(3, batch_size=3)
        # stem runs skip the vocab constraint
        tiny_config(vocab_size=50).validate_for_optimus(3, 3, include_vocab=False)

    def test_megatron_validation(self):
        cfg = tiny_config()
        cfg.validate_for_megatron(3, batch_size=5)
        with pytest.raises(ValueError, match="heads"):
            cfg.validate_for_megatron(4, batch_size=4)

    def test_run_config_q(self):
        rc = RunConfig(tiny_config(), num_devices=9, batch_size=3)
        assert rc.q == 3
        with pytest.raises(ValueError):
            _ = RunConfig(tiny_config(), num_devices=8, batch_size=4).q


class TestPaperPresets:
    def test_table2_matches_paper_settings(self):
        rows = table2_weak_scaling()
        assert [r["num_devices"] for r in rows] == [4, 16, 36, 64]
        assert [r["model_megatron"].hidden_size for r in rows] == [2048, 4096, 6120, 8192]
        assert [r["batch_optimus"] for r in rows] == [96, 192, 288, 384]
        assert [r["batch_megatron"] for r in rows] == [60, 60, 40, 30]
        for r in rows:
            assert r["model_optimus"].num_layers == 24
            assert r["model_optimus"].seq_len == 512

    def test_table2_batches_divide_mesh(self):
        for r in table2_weak_scaling():
            q = int(round(r["num_devices"] ** 0.5))
            r["model_optimus"].validate_for_optimus(
                q, r["batch_optimus"], include_vocab=False
            )

    def test_table3_matches_paper_settings(self):
        rows = table3_strong_scaling()
        assert [r["model_megatron"].hidden_size for r in rows] == [3072, 3072, 3096, 3072]
        assert all(r["model_optimus"].hidden_size == 3072 for r in rows)
        assert all(r["model_optimus"].num_heads == 24 for r in rows)
        assert all(r["batch_megatron"] == 12 for r in rows)
        for r in rows:
            r["model_megatron"].validate_for_megatron(
                r["num_devices"], r["batch_megatron"], include_vocab=False
            )


class TestFormatters:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.0001]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        out = format_table(["x"], [])
        assert "x" in out

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.00 KiB"
        assert format_bytes(16 * 1024**3) == "16.00 GiB"
