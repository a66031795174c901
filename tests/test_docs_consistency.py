"""Keep the documentation honest: referenced artifacts must exist."""

import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
RESULTS = REPO / "benchmarks" / "results"

#: text that tells a reader what to run (CHANGES / ROADMAP are history)
LIVE_DOCS = (
    "README.md", "EXPERIMENTS.md", "DESIGN.md", "benchmarks/suite/README.md",
    ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml",
)

#: paths retired with the legacy tracked harnesses
DELETED = (
    [f"BENCH_{name}.json" for name in ("simkit", "scale", "churn", "lineage", "topo")]
    + [f"bench_{stem}.py" for stem in ("simperf", "scale")]
    + ["gates.py", "test_perf_harness.py"]
)


def tracked_grid(figure_id):
    """The ``{point: {field: value}}`` of one tracked artifact; every check passed."""
    data = json.loads((RESULTS / f"{figure_id}.json").read_text())
    assert data["checks"] and all(c.startswith("[PASS]") for c in data["checks"])
    return data["points"]


def assert_docs_follow_the_makefile(subsystem):
    """Docs name only `make` targets that exist and no retired path; they
    point at ``make tracked`` and the subsystem's tracked artifact."""
    targets = set(re.findall(r"^([\w-]+):", (REPO / "Makefile").read_text(), re.M))
    for doc in LIVE_DOCS:
        text = (REPO / doc).read_text()
        # in backticks, at the start of a code line, or a CI `run:` step
        named = set(re.findall(r"(?:`|^\s*|run: )make ([a-z][\w-]*)", text, re.M))
        assert named <= targets, f"{doc} names make targets that do not exist: {named - targets}"
        stale = [path for path in DELETED if path in text]
        assert not stale, f"{doc} names retired paths: {stale}"
    assert "tracked" in targets
    assert "make tracked" in (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert f"bench_{subsystem}.py" in (REPO / "Makefile").read_text()
    assert list(RESULTS.glob(f"{subsystem}_*.json"))


class TestDesignDoc:
    def test_every_module_in_map_exists(self):
        text = (REPO / "DESIGN.md").read_text()
        block = text.split("```")[1]  # the module-map code block
        missing = []
        for line in block.splitlines():
            match = re.match(r"\s+(\w+/|\w+\.py)", line)
            if match and ".py" in line:
                rel = line.strip().split()[0]
                # reconstruct path: indentation encodes the package
                continue
        # simpler: every "name.py" token in the block exists somewhere in src/
        for name in set(re.findall(r"(\w+\.py)", block)):
            hits = list((REPO / "src").rglob(name))
            hits += list((REPO / "benchmarks").glob(name))
            if not hits:
                missing.append(name)
        assert not missing, f"DESIGN.md references missing modules: {missing}"

    def test_bench_targets_exist(self):
        text = (REPO / "DESIGN.md").read_text()
        for ref in re.findall(r"`benchmarks/(bench_\w+\.py)", text):
            assert (REPO / "benchmarks" / ref).exists(), ref

    def test_bench_test_names_exist(self):
        text = (REPO / "DESIGN.md").read_text()
        fig4 = (REPO / "benchmarks" / "bench_fig4_multideployment.py").read_text()
        fig5 = (REPO / "benchmarks" / "bench_fig5_multisnapshotting.py").read_text()
        for name in re.findall(r"::(\w+)`", text):
            assert f"def {name}" in fig4 + fig5, name


class TestReadme:
    def test_examples_listed_exist(self):
        text = (REPO / "README.md").read_text()
        for ref in re.findall(r"examples/(\w+\.py)", text):
            assert (REPO / "examples" / ref).exists(), ref

    def test_docs_referenced_exist(self):
        for doc in ("DESIGN.md", "EXPERIMENTS.md", "README.md"):
            assert (REPO / doc).exists()


class TestExperimentsDoc:
    def test_covers_every_figure(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for fig in ("Figure 4", "Figure 5", "Figure 6", "Figure 7", "Figure 8"):
            assert fig in text, f"EXPERIMENTS.md missing {fig}"
        for panel in ("4(a)", "4(b)", "4(c)", "4(d)", "5(a)", "5(b)"):
            assert panel in text, f"EXPERIMENTS.md missing panel {panel}"

    def test_deviations_documented(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        assert "Deviations" in text


class TestChurnDocs:
    def test_design_doc_covers_churn_modules(self):
        text = (REPO / "DESIGN.md").read_text()
        assert "repro.churn" in text
        for mod in ("arrivals.py", "scheduler.py", "lifecycle.py",
                    "slo.py", "engine.py"):
            assert (REPO / "src" / "repro" / "churn" / mod).exists(), mod
            assert mod in text, f"DESIGN.md module map missing churn {mod}"

    def test_experiments_doc_covers_churn(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        assert "churn" in text
        assert "churn_policy.json" in text and "churn_gc.json" in text

    def test_readme_quickstart_covers_churn(self):
        text = (REPO / "README.md").read_text()
        assert "python -m repro churn" in text
        assert "churn_{policy,gc}.json" in text and "make tracked" in text

    def test_tracked_churn_numbers_exist(self):
        assert set(tracked_grid("churn_policy")) == {"first-fit", "least-loaded", "locality"}
        assert set(tracked_grid("churn_gc")) == {"gc", "nogc"}

    def test_makefile_and_ci_wire_churn_smoke(self):
        assert_docs_follow_the_makefile("churn")


class TestLineageDocs:
    def test_design_doc_covers_lineage_modules(self):
        text = (REPO / "DESIGN.md").read_text()
        assert "repro.lineage" in text
        for mod in ("tree.py", "dedup.py", "restore.py", "compact.py"):
            assert (REPO / "src" / "repro" / "lineage" / mod).exists(), mod
            assert mod in text, f"DESIGN.md module map missing lineage {mod}"

    def test_experiments_doc_covers_lineage(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        assert "restore" in text
        assert "lineage_restore.json" in text

    def test_readme_quickstart_covers_lineage(self):
        text = (REPO / "README.md").read_text()
        assert "python -m repro lineage" in text
        assert "lineage_restore.json" in text and "make tracked" in text

    def test_tracked_lineage_numbers_exist(self):
        rows = tracked_grid("lineage_restore")
        depths = sorted(int(label.split("-d")[1]) for label in rows if label.startswith("off-"))
        assert len(depths) >= 2
        for mode in ("off", "flatten"):
            for d in depths:
                assert f"{mode}-d{d}" in rows, f"missing {mode}-d{d}"
        assert f"merge-d{depths[-1]}" in rows

    def test_makefile_and_ci_wire_lineage_smoke(self):
        assert_docs_follow_the_makefile("lineage")


class TestTopoDocs:
    def test_design_doc_covers_topo(self):
        text = (REPO / "DESIGN.md").read_text()
        assert "repro.topo" in text
        assert "fabric.py" in text
        assert (REPO / "src" / "repro" / "topo" / "fabric.py").exists()
        assert "oversubscri" in text  # the fabric's defining knob

    def test_experiments_doc_covers_topo(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        assert "cross-rack" in text.lower()
        assert "topo_sweep.json" in text and "topo_replica.json" in text

    def test_readme_quickstart_covers_topo(self):
        text = (REPO / "README.md").read_text()
        assert "python -m repro topo" in text
        assert "topo_{sweep,replica}.json" in text and "make tracked" in text

    def test_tracked_topo_numbers_exist(self):
        sweep = tracked_grid("topo_sweep")
        counts = {label.split("-n")[1] for label in sweep}
        assert len(counts) >= 2
        for n in counts:
            assert f"blind-n{n}" in sweep
            assert f"locality-n{n}" in sweep
        replica = tracked_grid("topo_replica")
        assert set(replica) == {"blind", "local"}
        assert replica["local"]["cross_rack_payload_bytes"] == 0.0

    def test_makefile_and_ci_wire_topo_smoke(self):
        assert_docs_follow_the_makefile("topo")


class TestRegistryDocs:
    """The README's registry table must match the runner's registries."""

    @staticmethod
    def _fresh_registry():
        # other tests register throwaway profiles into the live registry,
        # so snapshot it in a clean interpreter
        import json
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c",
             "import json; from repro.runner import known_kinds, known_profiles; "
             "print(json.dumps([known_kinds(), known_profiles()]))"],
            capture_output=True, text=True, check=True, cwd=REPO,
        )
        kinds, profiles = json.loads(out.stdout)
        return kinds, profiles

    def test_readme_point_kind_table_matches_registry(self):
        kinds, _profiles = self._fresh_registry()
        text = (REPO / "README.md").read_text()
        table = text.split("| point kind |", 1)[1]
        rows = []
        for line in table.splitlines()[2:]:  # skip header remainder + rule
            m = re.match(r"\| `(\w+)` \|", line)
            if not m:
                break
            rows.append(m.group(1))
        assert sorted(rows) == sorted(kinds)

    def test_readme_profile_list_matches_registry(self):
        _kinds, profiles = self._fresh_registry()
        text = (REPO / "README.md").read_text()
        para = text.split("Profiles bundle", 1)[1].split("\n\n", 1)[0]
        listed = set(re.findall(r"`([\w-]+)`", para))
        assert listed == set(profiles)

    def test_help_epilog_enumerates_registries(self):
        from repro.cli import build_parser
        from repro.runner import known_kinds, known_profiles

        epilog = build_parser().epilog or ""
        for kind in known_kinds():
            assert kind in epilog
        for profile in known_profiles():
            assert profile in epilog


class TestBenchmarkCoverage:
    def test_one_bench_file_per_figure(self):
        bench_dir = REPO / "benchmarks"
        for fig in (4, 5, 6, 7, 8):
            hits = list(bench_dir.glob(f"bench_fig{fig}_*.py"))
            assert hits, f"no benchmark for figure {fig}"

    def test_examples_have_docstrings_and_main(self):
        for script in (REPO / "examples").glob("*.py"):
            text = script.read_text()
            assert text.lstrip().startswith(("#!", '"""')), script.name
            assert "__main__" in text, f"{script.name} is not runnable"
