"""Command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

TRACE_FIXTURES = Path(__file__).parent / "fixtures" / "traces"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_audit_requires_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit"])


class TestCommands:
    def test_list_apps(self, capsys):
        assert main(["list-apps"]) == 0
        out = capsys.readouterr().out
        assert "Netflix" in out
        assert "custom DRM on L3" in out

    def test_audit_known_app(self, capsys):
        assert main(["audit", "Salto"]) == 0
        out = capsys.readouterr().out
        assert "Salto" in out
        assert "match" in out

    def test_audit_unknown_app(self, capsys):
        assert main(["audit", "Blockbuster"]) == 2
        err = capsys.readouterr().err
        assert "unknown app 'Blockbuster'" in err
        assert "Netflix" in err

    def test_attack_breaks_showtime(self, capsys):
        assert main(["attack", "Showtime"]) == 0
        out = capsys.readouterr().out
        assert "best 540p" in out

    def test_attack_resisted_by_disney(self, capsys):
        assert main(["attack", "Disney+"]) == 1
        out = capsys.readouterr().out
        assert "DRM-free recovery:    no" in out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Application -> MediaDRM Server: MediaDrm(UUID)" in out
        assert out.count("Decrypt()") == 1

    def test_figure1_exits_1_when_the_capture_diverges(self, capsys, monkeypatch):
        from repro.core import figures

        monkeypatch.setattr(
            figures, "FIGURE_1_ARROWS", figures.FIGURE_1_ARROWS[:-1]
        )
        assert main(["figure1"]) == 1
        out = capsys.readouterr().out
        # The captured sequence is still printed, whole.
        assert out.count("\n") == len(figures.FIGURE_1_ARROWS) + 1
        assert out.endswith("Media Crypto -> CDM: Decrypt()\n")


class TestUnifiedAppErrors:
    """Every subcommand taking an app shares resolve_app(): exit 2 with
    one stderr line naming the valid apps."""

    CASES = [
        ["audit", "Blockbuster"],
        ["analyze", "Blockbuster"],
        ["attack", "Blockbuster"],
        ["profile", "--app", "Blockbuster"],
        ["trace", "--app", "Blockbuster"],
        ["fleet", "submit", "--apps", "Blockbuster"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: argv[0])
    def test_unknown_app_exits_2_naming_valid_apps(self, argv, capsys, tmp_path):
        if argv[0] == "fleet":
            argv = argv + ["--root", str(tmp_path / "fleet")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one line, not a traceback
        assert "unknown app 'Blockbuster'" in err
        assert "Netflix" in err and "Salto" in err


class TestProfileAndTrace:

    @pytest.mark.parametrize("command", ["profile", "trace"])
    def test_bad_rate_exits_2(self, command, capsys):
        assert main([command, "--app", "Salto", "--rate", "2/3"]) == 2
        assert "sampling rate must be 1/N" in capsys.readouterr().err

    def test_profile_single_app_with_flame_graph(self, capsys, tmp_path):
        flame = tmp_path / "flame.txt"
        assert main(["profile", "--app", "Salto", "--flame", str(flame)]) == 0
        out = capsys.readouterr().out
        assert "critical path — Salto" in out
        assert "self%" in out
        assert "sampling 1/1" in out
        # Collapsed stacks: speedscope/flamegraph.pl-compatible lines.
        lines = flame.read_text().strip().split("\n")
        assert lines and all(" " in line for line in lines)
        assert any(line.startswith("study.app;") for line in lines)

    def test_trace_reports_sampling(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace",
                    "--app",
                    "Salto",
                    "--out",
                    str(out_path),
                    "--rate",
                    "1/4",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sampling 1/4 (seed 1)" in out
        assert out_path.exists()

    def test_trace_diff_flags_the_slowdown_and_exits_nonzero(self, capsys):
        code = main(
            [
                "trace",
                "--diff",
                str(TRACE_FIXTURES / "baseline.jsonl"),
                str(TRACE_FIXTURES / "slowdown.jsonl"),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "license.exchange" in out

    def test_trace_diff_identical_exits_zero(self, capsys):
        fixture = str(TRACE_FIXTURES / "baseline.jsonl")
        assert main(["trace", "--diff", fixture, fixture]) == 0
        assert "no span regressed" in capsys.readouterr().out

    def test_trace_diff_missing_file_exits_2(self, capsys):
        assert main(["trace", "--diff", "nope.jsonl", "nope2.jsonl"]) == 2
        assert "trace --diff" in capsys.readouterr().err
