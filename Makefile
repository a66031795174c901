# Convenience targets for the reproduction.

.PHONY: install test lint bench bench-quick perf scale scale-smoke sweep-smoke p2p-smoke churn churn-smoke lineage lineage-smoke topo topo-smoke suite-smoke outcome-digest examples clean

install:
	pip install -e . || python setup.py develop

test:            ## tier-1 test suite (what CI runs)
	PYTHONPATH=src python -m pytest -x -q

lint:            ## ruff over src/ and tests/ (what the CI lint job runs)
	ruff check src tests

bench:           ## full paper-profile figure reproduction (~25 min)
	pytest benchmarks/ --benchmark-only

bench-quick:     ## scaled-down smoke of every figure (~40 s)
	REPRO_BENCH_PROFILE=quick pytest benchmarks/ --benchmark-only

sweep-smoke:     ## quick-profile fig4 sweep through the parallel runner (2 jobs)
	PYTHONPATH=src python -m repro sweep --figure fig4 --profile quick \
		--approach mirror --jobs 2 --no-cache

p2p-smoke:       ## tiny p2p deployment: peer hits > 0, off-path bit-identical
	PYTHONPATH=src python -m repro p2p --smoke --instances 8 --pool 12 \
		--image-mib 64 --touched-mib 8

perf: sweep-smoke p2p-smoke scale-smoke churn-smoke lineage-smoke topo-smoke ## simulator throughput gates (~2 min)
	PYTHONPATH=src python benchmarks/bench_simperf.py
	PYTHONPATH=src python benchmarks/bench_scale.py
	PYTHONPATH=src python benchmarks/bench_churn.py
	PYTHONPATH=src python benchmarks/bench_lineage.py
	PYTHONPATH=src python benchmarks/bench_topo.py

scale:           ## n in {64,256,512} scale benchmark vs BENCH_scale.json (~1 min)
	PYTHONPATH=src python benchmarks/bench_scale.py

scale-smoke:     ## tiny-n scale-benchmark harness check (asserts gate logic)
	PYTHONPATH=src python benchmarks/bench_scale.py --smoke

churn:           ## tracked churn grids (policies + GC ablation) vs BENCH_churn.json (~2 min)
	PYTHONPATH=src python benchmarks/bench_churn.py

churn-smoke:     ## tiny-n churn harness check (asserts gate logic + CLI smoke)
	PYTHONPATH=src python benchmarks/bench_churn.py --smoke
	PYTHONPATH=src python -m repro churn --smoke --deploys 10 --rate 3 --gc-interval 20

lineage:         ## restore-vs-depth grid (compaction on/off) vs BENCH_lineage.json (~10 s)
	PYTHONPATH=src python benchmarks/bench_lineage.py

lineage-smoke:   ## tiny-depth lineage harness check (asserts gate logic + CLI smoke)
	PYTHONPATH=src python benchmarks/bench_lineage.py --smoke
	PYTHONPATH=src python -m repro lineage --smoke --depth 4 --compact

topo:            ## rack sweep (locality x oversubscription) vs BENCH_topo.json (~1 min)
	PYTHONPATH=src python benchmarks/bench_topo.py

topo-smoke:      ## tiny-fabric topology harness check (asserts gate logic + CLI smoke)
	PYTHONPATH=src python benchmarks/bench_topo.py --smoke
	PYTHONPATH=src python -m repro topo --smoke --racks 4

suite-smoke:     ## benchmark suite at toy sizes + its own tests (~20 s; guards the ledger's by-name patches)
	python3 benchmarks/suite/run.py --smoke
	python -m pytest benchmarks/suite -q

outcome-digest:  ## simulated outcomes at toy sizes equal benchmarks/outcome_digests.json (~10 s; exit 1 with a diff)
	python3 benchmarks/outcome_digest.py --smoke --expect benchmarks/outcome_digests.json

examples:
	python examples/quickstart.py
	python examples/multideployment.py
	python examples/debug_cloning.py
	python examples/montecarlo_suspend_resume.py

clean:           ## drop caches only; tracked figure artifacts stay put
	rm -rf .pytest_cache benchmarks/results/cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
