"""CLI entry points and the ASCII plotting utility."""

import importlib
import json
import pathlib

import pytest

from repro.cli import COMMANDS, DRIVERS, PAPER_RESULTS, main, resolve
from repro.experiments import report
from repro.utils.asciiplot import line_plot

ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"


class TestLinePlot:
    def test_basic_structure(self):
        out = line_plot({"a": [1, 2, 3]}, [10, 20, 30], title="T", width=30, height=8)
        lines = out.splitlines()
        assert lines[0] == "T"
        assert any("o a" in l for l in lines)  # legend
        assert "10" in out and "30" in out  # x labels

    def test_multi_series_markers(self):
        out = line_plot({"a": [1, 2], "b": [2, 1]}, [0, 1])
        assert "o a" in out and "x b" in out
        assert out.count("o") >= 2

    def test_log_scale(self):
        out = line_plot({"w": [1, 100, 10000]}, [1, 2, 3], logy=True)
        assert "1e+04" in out or "10000" in out

    def test_log_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            line_plot({"w": [0, 1]}, [1, 2], logy=True)

    def test_constant_series(self):
        out = line_plot({"flat": [5, 5, 5]}, [1, 2, 3])
        assert "flat" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            line_plot({}, [1, 2])
        with pytest.raises(ValueError):
            line_plot({"a": [1]}, [1, 2])

    def test_extremes_hit_borders(self):
        out = line_plot({"a": [0, 10]}, [0, 1], width=20, height=5)
        rows = [l for l in out.splitlines() if "|" in l]
        assert "o" in rows[0]  # max value on the top row
        assert "o" in rows[-1]  # min value on the bottom row


class TestCLI:
    def test_verify_command(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all three implementations agree" in out

    def test_isoefficiency_command(self, capsys):
        assert main(["isoefficiency"]) == 0
        assert capsys.readouterr().out == (RESULTS / "isoefficiency.txt").read_text()

    @pytest.mark.parametrize("command", ["table1", "fig8"])
    def test_paper_command_prints_the_persisted_text(self, command, capsys):
        """``repro <x>`` and ``pytest benchmarks`` print one text (the
        slower commands are byte-compared in CI's paper-tables job)."""
        assert main([command]) == 0
        assert capsys.readouterr().out == (RESULTS / f"{command}.txt").read_text()

    def test_committed_report_is_the_report_of_the_persisted_results(self):
        assert (ROOT / "REPORT.md").read_text() == report.render(report.collect())

    def test_report_command_prints_the_committed_report(self, capsys):
        """``python -m repro report > REPORT.md`` reproduces the file."""
        assert main(["report"]) == 0
        assert capsys.readouterr().out == (ROOT / "REPORT.md").read_text()

    def test_report_command(self, capsys, tmp_path):
        (tmp_path / "table2.txt").write_text("TABLE2 CONTENT")
        text = report.render(report.collect(tmp_path))
        assert "TABLE2 CONTENT" in text
        assert "Missing sections" in text  # the others were not generated
        # empty dir → everything listed missing, header intact
        empty = report.render(report.collect(tmp_path / "nope"))
        assert "Reproduction report" in empty

    def test_unknown_command_rejected(self):
        # host time is hostbench/run.py's business: no in-tree bench command
        for argv in (["frobnicate"], ["bench"], ["dash", "--baseline", "x"]):
            with pytest.raises(SystemExit):
                main(argv)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(".bench", "repro")

    def test_all_known_commands_registered(self):
        assert set(COMMANDS) == {
            "table1", "table2", "table3", "fig7", "fig8", "fig9",
            "isoefficiency", "report", "verify",
        }
        assert list(PAPER_RESULTS) == [
            "table1", "table2", "table3", "fig7", "fig8", "fig9", "isoefficiency"
        ]
        for spec in [*COMMANDS.values(), *DRIVERS.values()]:
            assert callable(resolve(spec)), spec


class TestOutputFiles:
    """Every file a command writes goes through ``repro.utils.write_text``,
    which creates a missing parent directory: the command runs its whole
    workload first, so failing at the write threw the run away."""

    def test_chaos_out(self, tmp_path, capsys):
        out = tmp_path / "new" / "chaos.json"
        argv = ["chaos", "--quick", "--scheme", "optimus", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["ok"] is True
        assert f"wrote {out}" in capsys.readouterr().out

    def test_chaos_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "traces" / "chaos.json"
        argv = ["chaos", "--quick", "--scheme", "optimus", "--trace-out", str(trace)]
        assert main(argv) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "traces" / "chaos-optimus.json").read_text())
        assert doc["traceEvents"]

    def test_critpath_out(self, tmp_path, capsys):
        out = tmp_path / "new" / "cp.json"
        assert main(["critpath", "tiny", "--json", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.read_text() == printed  # the printed document, newline included

    def test_critpath_folded(self, tmp_path, capsys):
        folded = tmp_path / "new" / "cp.folded"
        assert main(["critpath", "tiny", "--folded", str(folded)]) == 0
        assert f"folded flamegraph written to {folded}" in capsys.readouterr().out
        assert folded.read_text().endswith("\n")

    def test_profile_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "new" / "t.json"
        assert main(["profile", "tiny", "--trace-out", str(trace)]) == 0
        assert f"wrote {trace}" in capsys.readouterr().out
        assert json.loads(trace.read_text())["traceEvents"]


class TestUsageErrors:
    """Bad input is ``error: …`` on stderr and exit 2 from ``cli.main``
    alone, before the driver does any work; any other exception of a run
    stays a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("chaos --steps 3", "chaos campaigns need at least 5 steps"),
            ("critpath tiny --ledger L", "--ledger requires --calibrate"),
            ("critpath tiny --json --top 3", "--top cannot be combined with --json"),
            ("ledger compact --dry-run --out X", "--out cannot be combined with --dry-run"),
            (
                "profile tiny --trace-out /dev/null/t.json",
                "--trace-out: cannot write /dev/null/t.json",
            ),
        ],
        ids=[
            "chaos-steps", "critpath-ledger", "critpath-json-top", "ledger-dry-run-out",
            "profile-trace-out-under-a-file",
        ],
    )
    def test_bad_input_is_a_usage_error(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_a_value_error_while_running_is_not_a_usage_error(self, monkeypatch):
        from repro.check import fuzz

        def fail(**kw):
            raise ValueError("not the user's input")

        monkeypatch.setattr(fuzz, "run_check", fail)
        with pytest.raises(ValueError, match="not the user's input"):
            main(["check"])


class TestPackageSurface:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name
        assert repro.__version__

    def test_each_export_is_its_defining_modules_object(self):
        import repro

        for name in repro.__all__[:-1]:
            obj = getattr(repro, name)
            assert obj.__name__ == name
            assert repro._EXPORTS[name] == obj.__module__, name  # not a re-exporter
            assert getattr(importlib.import_module(obj.__module__), name) is obj
        assert repro.__all__[-1] == "__version__"
        assert repro.OptimusModel is importlib.import_module("repro.core.model").OptimusModel

    def test_an_unknown_name_is_an_attribute_error(self):
        import repro

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
        assert not hasattr(repro, "OptimusModel2D")
