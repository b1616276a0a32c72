"""Tests for the beaconplace CLI (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_table1_parses(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"

    def test_reproduce_requires_known_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "fig99"])

    def test_counts_parsing(self):
        args = build_parser().parse_args(["--counts", "20,40,60", "table1"])
        assert args.counts == [20, 40, 60]

    def test_counts_rejects_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--counts", "a,b", "table1"])

    def test_place_defaults(self):
        args = build_parser().parse_args(["place"])
        assert args.beacons == 40
        assert args.algorithm == "all"

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_workers_and_journal_defaults(self):
        args = build_parser().parse_args(["reproduce", "fig4"])
        assert args.workers == 1
        assert args.journal is None

    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.mode == "crash"
        assert args.times == [0.0, 25.0, 50.0, 100.0]

    def test_faults_times_rejects_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--times", "a,b"])

    def test_obs_flags_default_off(self):
        args = build_parser().parse_args(["table1"])
        assert args.trace is None
        assert args.profile is False

    def test_trace_and_profile_parse(self):
        args = build_parser().parse_args(
            ["--trace", "rundir", "--profile", "reproduce", "fig4"]
        )
        assert args.trace == "rundir"
        assert args.profile is True

    def test_obs_command_requires_run_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_journal_command_parses(self):
        args = build_parser().parse_args(["journal", "sweep.jsonl", "--compact"])
        assert args.command == "journal"
        assert args.compact is True
        assert args.cells is False


class TestCommands:
    def test_table1_output(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Side" in out
        assert "10201" in out  # P_T
        assert "30 m" in out  # gridSide

    def test_bounds_output(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        assert "R/d" in out
        assert "0.5d" in out

    def test_place_all_algorithms(self, capsys):
        code = main(
            ["--fields", "2", "--counts", "20", "place", "--beacons", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "random" in out and "max" in out and "grid" in out

    def test_place_single_algorithm(self, capsys):
        main(["--fields", "2", "--counts", "20", "place", "--beacons", "20",
              "--algorithm", "grid"])
        out = capsys.readouterr().out
        assert "grid" in out
        assert "random" not in out

    def test_protocol_command(self, capsys):
        code = main(
            ["--counts", "20", "protocol", "--beacons", "25", "--stride", "400",
             "--listen-time", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "agreement with geometric model" in out

    def test_reproduce_fig4_small(self, capsys, tmp_path):
        csv_path = tmp_path / "fig4.csv"
        code = main(
            ["--fields", "2", "--counts", "20,60", "--csv", str(csv_path),
             "reproduce", "fig4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert csv_path.exists()

    def test_reproduce_fig5_small(self, capsys):
        code = main(["--fields", "2", "--counts", "20", "reproduce", "fig5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5a" in out and "Figure 5b" in out

    def test_survey_command(self, capsys):
        code = main(
            ["--counts", "20", "survey", "--beacons", "20", "--path", "spiral",
             "--spacing", "8", "--gps-sigma", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "grid pick" in out
        assert "travel" in out

    def test_activate_command(self, capsys):
        code = main(["--counts", "20", "activate", "--beacons", "150", "--target", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "duty fraction" in out

    def test_regions_command(self, capsys):
        code = main(["--counts", "20", "regions", "--beacons", "30", "--split"])
        assert code == 0
        out = capsys.readouterr().out
        assert "covered regions" in out

    def test_reproduce_fig5_csv_suffixes(self, capsys, tmp_path):
        csv_path = tmp_path / "fig5.csv"
        code = main(
            ["--fields", "1", "--counts", "20", "--csv", str(csv_path),
             "reproduce", "fig5"]
        )
        assert code == 0
        assert (tmp_path / "fig5_mean.csv").exists()
        assert (tmp_path / "fig5_median.csv").exists()

    def test_faults_command(self, capsys):
        code = main(
            ["--fields", "1", "--counts", "8", "faults", "--beacons", "12",
             "--mode", "crash", "--lifetime", "30", "--times", "0,60"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault mode crash" in out
        assert "alive" in out and "grid gain" in out

    def test_faults_mixed_mode(self, capsys):
        code = main(
            ["--fields", "1", "--counts", "8", "faults", "--beacons", "12",
             "--mode", "mixed", "--times", "0,40"]
        )
        assert code == 0
        assert "fault mode mixed" in capsys.readouterr().out

    def test_reproduce_fig4_with_journal_resumes(self, capsys, tmp_path):
        journal = tmp_path / "fig4.jsonl"
        argv = ["--fields", "2", "--counts", "20", "--journal", str(journal),
                "reproduce", "fig4"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert journal.exists()
        # Second run resumes every cell from the journal — same output.
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_workers_run_every_fig6_panel_on_one_pool(
        self, capsys, tmp_path, monkeypatch
    ):
        """``--workers 2`` builds one pool for the command, which all four
        noise panels share, and the figure matches the in-process one."""
        from repro.sim import PoolExecutor

        built = []
        real_init = PoolExecutor.__init__

        def recording_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(PoolExecutor, "__init__", recording_init)
        argv = ["--fields", "1", "--counts", "8", "reproduce", "fig6"]
        assert main(["--csv", str(tmp_path / "inproc.csv"), *argv]) == 0
        assert built == []
        assert main(
            ["--csv", str(tmp_path / "pooled.csv"), "--workers", "2", *argv]
        ) == 0
        assert len(built) == 1
        assert built[0]._pool is None  # closed when the command returned
        assert (tmp_path / "pooled.csv").read_bytes() == (
            tmp_path / "inproc.csv"
        ).read_bytes()

    def test_greedyk_closes_its_journal(self, capsys, tmp_path, monkeypatch):
        """Like every library sweep driver, greedy-k leaves no journal handle
        open once the command returns."""
        from repro.sim import SweepJournal

        opened = []
        real_open = SweepJournal.open.__func__

        def recording_open(cls, path, fingerprint):
            journal = real_open(cls, path, fingerprint)
            opened.append(journal)
            return journal

        monkeypatch.setattr(SweepJournal, "open", classmethod(recording_open))
        journal = tmp_path / "gk.jsonl"
        argv = ["--fields", "1", "--counts", "8", "--journal", str(journal),
                "greedyk", "--beacons", "8", "--k", "1", "--subsample", "10"]
        assert main(argv) == 0
        assert len(opened) == 1
        assert opened[0]._handle is None
        assert len(SweepJournal.open(journal, opened[0].fingerprint)) == 1

    def test_trace_profile_then_obs_summary(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        code = main(
            ["--fields", "1", "--counts", "8", "--trace", str(run_dir),
             "--profile", "reproduce", "fig4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "profiled wall time" in out  # --profile breakdown printed
        assert (run_dir / "trace.jsonl").exists()
        assert (run_dir / "metrics.json").exists()
        assert (run_dir / "profile.txt").exists()

        assert main(["obs", str(run_dir)]) == 0
        summary = capsys.readouterr().out
        assert "sweep.cell" in summary
        assert "sweep.worlds_built" in summary

    def test_trace_off_output_identical(self, capsys, tmp_path):
        argv = ["--fields", "1", "--counts", "8", "reproduce", "fig4"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        run_dir = tmp_path / "run"
        assert main(["--trace", str(run_dir), "--profile"] + argv) == 0
        observed = capsys.readouterr().out
        # The figure body must be byte-identical; obs only appends a report.
        assert observed.startswith(plain.rstrip("\n"))

    def test_obs_command_empty_dir_fails(self, capsys, tmp_path):
        assert main(["obs", str(tmp_path)]) == 1
        assert "no observability artifacts" in capsys.readouterr().err

    def test_journal_command_inspects_and_compacts(self, capsys, tmp_path):
        journal = tmp_path / "fig4.jsonl"
        base = ["--fields", "1", "--counts", "8", "--journal", str(journal)]
        assert main(base + ["reproduce", "fig4"]) == 0
        capsys.readouterr()

        assert main(["journal", str(journal), "--cells"]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out
        assert "done" in out
        assert "cells:" in out

        assert main(["journal", str(journal), "--compact"]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out
        # Journal still resumes cleanly after compaction.
        assert main(base + ["reproduce", "fig4"]) == 0

    def test_journal_command_missing_file_fails(self, capsys, tmp_path):
        assert main(["journal", str(tmp_path / "nope.jsonl")]) == 1
        assert capsys.readouterr().err != ""

    def test_report_command(self, capsys, tmp_path):
        out_path = tmp_path / "report.md"
        code = main(
            ["--fields", "2", "--counts", "20,60", "report", "--output", str(out_path)]
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("# Adaptive Beacon Placement")
        assert "Figure 4" in text
