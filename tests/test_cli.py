"""Tests for the command-line front end."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("table1", "fig9", "fig10", "fig11", "fig12",
                    "micro"):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_duration_option(self):
        args = build_parser().parse_args(["fig10",
                                          "--duration-ms", "42"])
        assert args.duration_ms == 42

    def test_backend_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--backend", "jit"])


class TestExecution:
    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "WCMP" in out and "14/14" in out

    def test_table1_native_backend(self, capsys):
        assert main(["table1", "--backend", "native"]) == 0

    def test_micro_runs(self, capsys):
        assert main(["micro", "--packets", "50"]) == 0
        out = capsys.readouterr().out
        assert "PIAS" in out and "stack" in out

    @pytest.mark.slow
    def test_fig12_runs(self, capsys):
        assert main(["fig12", "--duration-ms", "5"]) == 0
        out = capsys.readouterr().out
        assert "interpreter" in out


class TestReportCommand:
    def test_report_option_parsed(self):
        args = build_parser().parse_args(
            ["report", "--out", "/tmp/x.md", "--seed", "5"])
        assert args.out == "/tmp/x.md" and args.seed == 5


class TestLatencyCommands:
    def test_latency_serve_options_parsed(self):
        args = build_parser().parse_args(
            ["latency-serve", "--once", "--smoke",
             "--duration-ms", "40", "--port", "8123"])
        assert args.once and args.smoke
        assert args.duration_ms == 40 and args.port == 8123
        with pytest.raises(SystemExit):
            build_parser().parse_args(["latency-serve", "--shards", "2"])

    def test_latency_breakdown_loads_parsed(self):
        args = build_parser().parse_args(
            ["latency-breakdown", "--loads", "0.2,0.8"])
        assert args.loads == "0.2,0.8"

    @pytest.mark.slow
    @pytest.mark.latency
    def test_latency_serve_once_smoke_passes(self, capsys):
        assert main(["latency-serve", "--once", "--smoke",
                     "--duration-ms", "40"]) == 0
        out = capsys.readouterr().out
        assert "latency-serve smoke OK" in out
        assert "unattributed" in out

    @pytest.mark.slow
    @pytest.mark.latency
    def test_latency_breakdown_runs(self, capsys):
        assert main(["latency-breakdown", "--loads", "0.5",
                     "--duration-ms", "30"]) == 0
        out = capsys.readouterr().out
        assert "Latency decomposition vs offered load" in out
