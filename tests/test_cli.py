"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_deploy_defaults(self):
        args = build_parser().parse_args(["deploy"])
        assert args.approach == "mirror"
        assert args.instances == 16

    def test_invalid_approach_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deploy", "--approach", "bittorrent"])

    def test_snapshot_rejects_prepropagation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["snapshot", "--approach", "prepropagation"])


class TestCommands:
    def test_deploy_runs_and_prints_metrics(self, capsys):
        rc = main(
            ["deploy", "--instances", "3", "--image-mib", "64",
             "--touched-mib", "6", "--pool", "6"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "avg boot" in out
        assert "network traffic" in out

    @pytest.mark.parametrize("approach", ["mirror", "qcow2-pvfs"])
    def test_snapshot_runs(self, capsys, approach):
        rc = main(
            ["snapshot", "--instances", "2", "--image-mib", "64",
             "--touched-mib", "4", "--diff-mib", "2", "--pool", "6",
             "--approach", approach]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "bytes persisted" in out

    def test_bonnie_runs(self, capsys):
        rc = main(["bonnie", "--image-mib", "64", "--working-mib", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "BlockW" in out and "RndSeek" in out

    def test_info_prints_calibration(self, capsys):
        rc = main(["info"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nic_bandwidth" in out
        assert "chunk_size" in out


class TestTrace:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.figure == "fig4"
        assert args.approach == "mirror"
        assert args.instances == 16
        assert args.out is None

    def test_fig5_rejects_prepropagation(self, capsys):
        rc = main(["trace", "--figure", "fig5", "--approach", "prepropagation"])
        assert rc == 2
        assert "prepropagation" in capsys.readouterr().err

    def test_trace_writes_perfetto_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "fig4.trace.json"
        rc = main(
            ["trace", "-n", "2", "--image-mib", "64", "--touched-mib", "6",
             "--pool", "6", "--out", str(out)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "critical path of boot:" in text
        assert "span coverage:" in text
        assert str(out) in text
        doc = json.loads(out.read_text())
        assert any(ev["ph"] == "X" for ev in doc["traceEvents"])

    def test_fig5_trace_breaks_down_snapshots(self, capsys, tmp_path):
        out = tmp_path / "fig5.trace.json"
        rc = main(
            ["trace", "--figure", "fig5", "-n", "2", "--image-mib", "64",
             "--touched-mib", "4", "--diff-mib", "2", "--pool", "6",
             "--out", str(out)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "critical path of snapshot:" in text
        assert out.exists()

    def test_low_coverage_fails_naming_the_worst_root(self, capsys, tmp_path, monkeypatch):
        from repro import obs

        monkeypatch.setattr(obs, "coverage", lambda root, spans: 0.5)
        rc = main(
            ["trace", "-n", "2", "--image-mib", "64", "--touched-mib", "6",
             "--pool", "6", "--out", str(tmp_path / "fig4.trace.json")]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: span coverage of boot:vm")


class TestSweep:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.figure == "fig4"
        assert args.profile == "quick"
        assert args.jobs is None
        assert args.approach == []
        assert not args.no_cache and not args.refresh

    def test_counts_parsed_as_ints(self):
        args = build_parser().parse_args(["sweep", "--counts", "1,2,8"])
        assert args.counts == [1, 2, 8]

    def test_invalid_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--figure", "fig9"])

    def test_counts_beyond_pool_fail(self, capsys):
        rc = main(["sweep", "--figure", "fig4", "--profile", "quick",
                   "--counts", "100000", "--no-cache"])
        assert rc == 2
        assert "exceed" in capsys.readouterr().err

    def test_quick_sweep_runs(self, capsys):
        rc = main(["sweep", "--figure", "fig4", "--profile", "quick",
                   "--approach", "mirror", "--counts", "1", "--jobs", "1",
                   "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "avg_boot_time" in out
        assert "1 points (1 simulated, 0 from cache)" in out
        assert "jobs=1" in out and "profile=quick" in out

    def test_sweep_uses_cache_dir(self, capsys, tmp_path):
        argv = ["sweep", "--figure", "fig4", "--profile", "quick",
                "--approach", "mirror", "--counts", "1", "--jobs", "1",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "(1 simulated, 0 from cache)" in first
        assert str(tmp_path) in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "(0 simulated, 1 from cache)" in second


class TestChurn:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["churn"])
        assert args.policy == "least-loaded"
        assert args.arrivals == "poisson"
        assert args.profile == "churn-smoke"
        assert args.restore_fraction == 0.0
        assert args.retain_snapshots is False

    def test_churn_restore_flags_print_restore_slos(self, capsys):
        rc = main(["churn", "--deploys", "10", "--rate", "3", "--seed", "3",
                   "--restore-fraction", "0.5", "--retain-snapshots"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "restores:" in out
        assert "from retired chains" in out

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["churn", "--policy", "tetris"])

    def test_churn_prints_slos(self, capsys):
        rc = main(["churn", "--deploys", "10", "--rate", "3", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "boot latency:" in out
        assert "rejection rate:" in out
        assert "GC sweeps" in out


class TestP2P:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["p2p"])
        assert args.directory == "announce"
        assert args.fanout == 2

    def test_invalid_directory_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["p2p", "--directory", "bittorrent"])

    def test_p2p_prints_comparison(self, capsys):
        rc = main(
            ["p2p", "--instances", "3", "--pool", "6", "--image-mib", "64",
             "--touched-mib", "6"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "peer hit ratio" in out
        assert "provider bytes" in out


class TestFaults:
    CLUSTER = ["--instances", "4", "--pool", "8", "--image-mib", "64",
               "--touched-mib", "6"]

    def test_replication_survives_crashes(self, capsys):
        rc = main(["faults", *self.CLUSTER, "--replication", "2", "--crashes", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "survival 100%" in out
        assert "injected:        2 incidents" in out
        assert "provider-crash" in out  # the fault plan is printed

    def test_more_crashes_than_spares_exit_2(self, capsys):
        rc = main(["faults", *self.CLUSTER, "--crashes", "5"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "spare" in captured.err
        assert captured.out == ""


class TestPoolBound:
    @pytest.mark.parametrize("argv", [
        ["topo", "--instances", "40"],
        ["deploy", "--instances", "8", "--pool", "4"],
        ["p2p", "--instances", "8", "--pool", "4"],
        ["trace", "-n", "8", "--pool", "4"],
    ])
    def test_instances_beyond_the_pool_exit_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "exceed the" in err and "pool" in err


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_help_enumerates_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        for sub in ("deploy", "snapshot", "sweep", "churn", "lineage"):
            assert sub in out


class TestLineage:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["lineage"])
        assert args.depth == 0
        assert args.profile == "lineage"
        assert args.policy == "flatten"
        assert args.depth_bound == 4
        assert not args.compact

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lineage", "--policy", "squash"])

    def test_lineage_prints_restore_and_dedup(self, capsys):
        rc = main(["lineage", "--profile", "lineage-smoke", "--depth", "3",
                   "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "restore latency" in out
        assert "dedup accounting" in out
        assert "exclusive+shared==live: ok" in out


class TestTopo:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["topo"])
        assert args.profile == "topo-smoke"
        assert args.instances == 0
        assert args.racks == 4
        assert args.oversubscription == 4.0
        assert args.directory == "announce"
        assert args.replication == 1
        assert not args.no_p2p

    def test_topo_prints_blind_vs_locality(self, capsys):
        rc = main(["topo", "--racks", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "blind" in out and "locality" in out
        assert "cross-rack bytes:" in out
        cut = float(out.split("cross-rack cut:")[1].split("%")[0])
        assert cut >= 50.0  # locality keeps most bytes off the uplinks
