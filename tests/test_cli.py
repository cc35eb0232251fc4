"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.clusters == 2 and args.devices == 3

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deploy"])


class TestCommands:
    def test_search_space(self, capsys):
        assert main(["search-space", "--blocks", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["blocks"] == 2
        # Eq. (14) with |O| = 7: (2²·49)(3²·49).
        assert payload["architectures"] == (4 * 49) * (9 * 49)

    def test_table1(self, capsys):
        assert main(["table1", "--fleet", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["N"] == 10
        assert payload["ratio"] < 0.05

    def test_energy(self, capsys):
        assert main(["energy", "--vcpus", "4", "--width", "0.5", "--depth", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["energy_joules"] > 0
        assert payload["power_watts"] > 0

    def test_run_small_system(self, capsys):
        code = main([
            "run", "--clusters", "1", "--devices", "2",
            "--classes", "6", "--samples", "18", "--seed", "0",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["mean_accuracy"] <= 1.0
        assert payload["upload_mb"] > 0
        assert len(payload["clusters"]) == 1

    def test_run_rejects_out_of_range_quorum(self, capsys):
        """``--quorum 1.5`` used to run and report phantom retries."""
        code = main([
            "run", "--clusters", "1", "--devices", "2",
            "--classes", "6", "--samples", "18", "--quorum", "1.5",
        ])
        assert code != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "round_quorum must be in (0, 1], got 1.5" in captured.err

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--workers", "-2", "ExecutionPlan.device_workers: worker count must be an int >= -1, got -2"),
            ("--edge-workers", "-2", "ExecutionPlan.edge_workers: worker count must be an int >= -1, got -2"),
            ("--faults", "retries=-1", "retries must be an int >= 0, got -1"),
        ],
    )
    def test_run_rejects_bad_execution_spec_before_any_work(
        self, capsys, monkeypatch, flag, value, named
    ):
        """``--workers -2`` used to pay for every cloud phase and then die
        on a traceback in the first fan-out; ``--edge-workers -2`` was a
        traceback out of ``ACMEConfig()``."""
        from repro.distributed import ACMESystem

        def no_work(*args, **kwargs):
            raise AssertionError("a system was built for a rejected spec")

        monkeypatch.setattr(ACMESystem, "__init__", no_work)
        code = main([
            "run", "--clusters", "1", "--devices", "2",
            "--classes", "6", "--samples", "18", flag, value,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro-cli run: error: ")
        assert named in captured.err

    def test_scale_small_campaign(self, capsys):
        code = main([
            "scale", "--devices", "60", "--clusters", "2", "--rounds", "1",
            "--lru", "4", "--eval-requests", "2",
            "--deadline-quantile", "0.8", "--seed", "0",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_devices"] == 60
        assert sum(payload["cluster_sizes"]) == 60
        assert payload["contributions"] > 0
        assert payload["stragglers"] > 0
        assert 0.0 < payload["participation"] <= 1.0


class TestOneErrorPath:
    """Every command builds and checks its inputs before any work, and
    a bad value is ``repro-cli <cmd>: error: …`` with exit 2 — never a
    traceback, and never a ``ZeroDivisionError`` out of an unchecked
    input."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["run", "--clusters", "0"], "num_clusters must be an int >= 1, got 0"),
            (["scale", "--drop", "1.5"], "drop must be in [0, 1], got 1.5"),
            (
                ["scale", "--deadline-quantile", "1.5"],
                "deadline_quantile must be in [0, 1], got 1.5",
            ),
            (["scale", "--devices", "0"], "0 devices cannot populate 8 clusters"),
            (["energy", "--width", "7"], "width factor must be in (0, 1], got 7.0"),
            (["search-space", "--blocks", "-1"], "num_blocks must be >= 1, got -1"),
            (["table1", "--fleet", "0"], "num_devices must be >= 1, got 0"),
            (["table1", "--devices", "0"], "devices_per_cluster must be >= 1, got 0"),
        ],
    )
    def test_bad_value_is_a_named_error(self, capsys, monkeypatch, argv, named):
        from repro.distributed import ACMESystem, scale

        def no_work(*args, **kwargs):
            raise AssertionError("work started for a rejected value")

        monkeypatch.setattr(ACMESystem, "__init__", no_work)
        monkeypatch.setattr(scale, "run_scale_campaign", no_work)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro-cli {argv[0]}: error: {named}\n"
