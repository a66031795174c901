"""Tests for the command-line interface."""

import pytest

from repro.cli import _params, build_parser, main


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

    def test_counts_parsed_as_ints(self):
        args = build_parser().parse_args(["sweep", "--counts", "1,2,8"])
        assert args.counts == [1, 2, 8]

    def test_invalid_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--figure", "fig9"])

    def test_counts_beyond_pool_fail(self, capsys):
        rc = main(["sweep", "--figure", "fig4", "--profile", "quick",
                   "--counts", "100000"])
        assert rc == 2
        assert "exceed" in capsys.readouterr().err

    def test_zero_jobs_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--profile", "quick", "--approach", "mirror",
                  "--counts", "1", "--jobs", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "error: argument --jobs: must be positive, got 0" in captured.err
        assert captured.out == ""

    def test_quick_sweep_runs(self, capsys):
        rc = main(["sweep", "--figure", "fig4", "--profile", "quick",
                   "--approach", "mirror", "--counts", "1", "--jobs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "avg_boot_time" in out
        assert "sweep: 1 points simulated in" in out
        assert "jobs=1" in out and "profile=quick" in out


class TestChurn:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["churn"])
        assert args.profile == "churn-smoke"
        # every other flag is unset: ChurnSpec and build_cloud keep their defaults
        assert _params(args) == {"policy": "least-loaded"}

    def test_churn_restore_flags_print_restore_slos(self, capsys):
        rc = main(["churn", "--deploys", "10", "--rate", "3", "--seed", "3",
                   "--restore-fraction", "0.5", "--retain-snapshots"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "restores:" in out
        assert "from retired chains" in out

    def test_retain_snapshots_applies_without_restores(self, capsys):
        """The flag pins every chain by itself: with it, GC reclaims nothing."""
        def storage_line(*flags):
            assert main(["churn", "--deploys", "10", "--rate", "3", "--seed", "3",
                         *flags]) == 0
            out = capsys.readouterr().out
            return next(ln for ln in out.splitlines() if ln.startswith("storage:"))

        assert "reclaimed 0 B" not in storage_line()
        assert "reclaimed 0 B" in storage_line("--retain-snapshots")

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
        assert _params(build_parser().parse_args(["p2p"])) == {}
        args = build_parser().parse_args(
            ["p2p", "--directory", "rendezvous", "--fanout", "3", "--cache-mib", "8"])
        assert _params(args) == {
            "p2p_directory": "rendezvous", "p2p_locate_fanout": 3,
            "p2p_cache_bytes": 8 * 2**20,
        }

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

    @pytest.mark.parametrize("argv", [
        ["deploy", "--instances", "-3"],
        ["snapshot", "--instances", "-2"],
        ["sweep", "--profile", "quick", "--approach", "mirror", "--counts", "-3"],
    ])
    def test_negative_counts_exit_2(self, capsys, argv):
        small = ["--pool", "8", "--image-mib", "64", "--touched-mib", "12"]
        with pytest.raises(SystemExit) as exc:
            main(argv + (small if argv[0] != "sweep" else []))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage:")
        assert "must be positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["deploy", "--instances", "0"],
        ["snapshot", "--instances", "0"],
        ["trace", "-n", "0"],
        ["faults", "--instances", "0"],
        ["p2p", "--instances", "0"],
        ["deploy", "--image-mib", "0"],
        ["deploy", "--touched-mib", "0"],
        ["bonnie", "--image-mib", "0"],
        ["sweep", "--profile", "quick", "--counts", "0"],
        ["sweep", "--profile", "quick", "--counts", "4,0"],
    ])
    def test_zero_sizes_and_counts_exit_2_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage:")
        assert "must be positive, got 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv,dest", [
        (["topo", "--instances", "0"], "instances"),
        (["churn", "--deploys", "0"], "deploys"),
        (["lineage", "--depth", "0"], "depth"),
    ])
    def test_zero_still_means_the_profile_default(self, argv, dest):
        assert getattr(build_parser().parse_args(argv), dest) == 0

    @pytest.mark.parametrize("argv", [
        ["churn", "--rate", "0"],
        ["churn", "--tenants", "0"],
        ["churn", "--mean-lifetime", "-3"],
        ["churn", "--restore-fraction", "2"],
        ["churn", "--gc-interval", "-5"],
        ["p2p", "--fanout", "0"],
        ["topo", "--fanout", "0"],
        ["faults", "--attempts", "0"],
        ["faults", "--rpc-timeout", "0"],
        ["faults", "--base-delay", "-1"],
        ["faults", "--window", "-1"],
        ["faults", "--mttr", "-1"],
        ["faults", "--replication", "0"],
        ["lineage", "--merge-keep-every", "0"],
        ["lineage", "--replication", "0"],
        ["deploy", "--chunk-kib", "0"],
        ["bonnie", "--working-mib", "0"],
        ["deploy", "--pool", "-3"],
        ["faults", "--crashes", "-1"],
        ["p2p", "--cache-mib", "-5"],
        ["churn", "--cache-mib", "-5"],
        ["churn", "--deploys", "-5"],
        ["lineage", "--depth", "-3"],
        ["topo", "--instances", "-2"],
        ["deploy", "--seed", "-1"],
        ["faults", "--faults-seed", "-1"],
        ["snapshot", "--diff-mib", "-1"],
    ])
    def test_out_of_range_numbers_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"error: argument {argv[1]}:" in capsys.readouterr().err


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
        assert _params(args) == {}
        args = build_parser().parse_args(["lineage", "--merge-keep-every", "2"])
        assert _params(args) == {"keep_every": 2}

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lineage", "--policy", "squash"])

    @pytest.mark.parametrize("argv", [
        ["--policy", "merge"], ["--compact"], ["--depth-bound", "2"],
    ])
    def test_no_flag_is_given_then_ignored(self, capsys, argv):
        """The merge is one flag: the old selectors, of which ``--policy``
        and ``--depth-bound`` ran nothing without ``--compact``, are usage
        errors."""
        with pytest.raises(SystemExit) as exc:
            main(["lineage", "--profile", "lineage-smoke", "--depth", "3", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_lineage_prints_restore_and_dedup(self, capsys):
        rc = main(["lineage", "--profile", "lineage-smoke", "--depth", "3",
                   "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "restore latency" in out
        assert "dedup accounting" in out
        assert "exclusive+shared==live: ok" in out
        assert "unmerged" in out and "merge:" not in out

    def test_lineage_merge_prints_what_it_merged(self, capsys):
        rc = main(["lineage", "--profile", "lineage-smoke", "--depth", "8",
                   "--seed", "7", "--merge-keep-every", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "keep every 2" in out
        assert "versions merged" in out


class TestTopo:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["topo"])
        assert args.profile == "topo-smoke"
        assert args.instances == 0
        assert _params(args) == {"racks": 4, "p2p": True}
        assert _params(build_parser().parse_args(["topo", "--no-p2p"]))["p2p"] is False

    @pytest.mark.parametrize("flag,value", [
        ("--racks", "0"), ("--racks", "-2"),
        ("--oversubscription", "0"), ("--oversubscription", "-1"),
    ])
    def test_non_positive_fabric_flag_exits_2_with_usage(self, capsys, flag, value):
        """Refused while parsing, not by a traceback from deep in the build
        (``--oversubscription 0`` used to divide by zero)."""
        with pytest.raises(SystemExit) as exc:
            main(["topo", "--profile", "topo-smoke", "--instances", "4", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}: must be positive, got {value}" in err

    def test_topo_prints_blind_vs_locality(self, capsys):
        rc = main(["topo", "--racks", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "blind" in out and "locality" in out
        assert "cross-rack bytes:" in out
        cut = float(out.split("cross-rack cut:")[1].split("%")[0])
        assert cut >= 50.0  # locality keeps most bytes off the uplinks
