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

    def test_control_demo_takes_hosts_only(self):
        args = build_parser().parse_args(["control-demo", "--hosts", "8"])
        assert args.hosts == 8
        with pytest.raises(SystemExit):
            build_parser().parse_args(["control-demo", "--enclaves", "8"])


class TestExecution:
    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "WCMP" in out and "14/14" in out

    def test_table1_tree_backend(self, capsys):
        assert main(["table1", "--backend", "tree"]) == 0

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
    #: Section titles in report order, and each figure's default
    #: simulated milliseconds (the ones EXPERIMENTS.md was measured
    #: with).
    SECTIONS = ("Table 1 — coverage", "Section 5.4 — interpreter micro",
                "Figure 12 — CPU overheads",
                "Figure 11 — Pulsar storage QoS",
                "Figure 10 — ECMP vs WCMP", "Figure 9 — flow scheduling")
    DURATIONS = {"fig9": 120, "fig10": 100, "fig11": 200, "fig12": 20}

    @pytest.fixture
    def stubbed(self, monkeypatch):
        """Replace every artifact's runner and formatter with a stub
        that records the duration it was given; returns that record."""
        from repro.experiments import fig9, fig10, fig11, fig12, micro
        from repro.functions import library

        durations = {}

        def runner(name):
            def run(seed=1, duration_ms=None):
                durations[name] = duration_ms
                return name
            return run

        for name, module in (("fig9", fig9), ("fig10", fig10),
                             ("fig11", fig11)):
            monkeypatch.setattr(module, "run_all", runner(name))
            monkeypatch.setattr(module, "format_results",
                                lambda result: f"rows of {result}")
        monkeypatch.setattr(fig12, "run_overheads", runner("fig12"))
        monkeypatch.setattr(fig12, "format_result",
                            lambda result: f"rows of {result}")
        monkeypatch.setattr(micro, "run_micro",
                            lambda packets=300, repeat=3: "micro")
        monkeypatch.setattr(micro, "format_results",
                            lambda result: f"rows of {result}")
        monkeypatch.setattr(library, "run_demos",
                            lambda backend="interpreter": {"WCMP": True})
        monkeypatch.setattr(library, "format_table", lambda: "table")
        return durations

    def test_report_option_parsed(self):
        args = build_parser().parse_args(
            ["report", "--out", "/tmp/x.md", "--seed", "5"])
        assert args.out == "/tmp/x.md" and args.seed == 5

    def test_one_section_per_artifact_with_its_duration(self, stubbed,
                                                        tmp_path):
        out = tmp_path / "report.md"
        assert main(["report", "--out", str(out)]) == 0
        text = out.read_text()
        titles = [line[3:] for line in text.splitlines()
                  if line.startswith("## ")]
        assert titles == list(self.SECTIONS)
        assert stubbed == self.DURATIONS
        for name, duration in self.DURATIONS.items():
            assert build_parser().parse_args([name]).duration_ms == \
                duration

    def test_failed_demo_fails_the_report(self, stubbed, monkeypatch,
                                          tmp_path, capsys):
        from repro.functions import library
        monkeypatch.setattr(library, "run_demos",
                            lambda backend="interpreter":
                            {"WCMP": True, "PIAS": False})
        out = tmp_path / "report.md"
        assert main(["report", "--out", str(out)]) == 1
        assert "Table 1 — coverage" in out.read_text()
        assert "FAILED" in capsys.readouterr().out


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
