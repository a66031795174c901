# Convenience targets for the reproduction.

.PHONY: install test lint bench bench-quick sweep-smoke perf tracked suite-smoke outcome-digest examples clean

install:
	pip install -e . || python setup.py develop

test:            ## tier-1 test suite (what CI runs)
	PYTHONPATH=src python -m pytest -x -q

lint:            ## ruff over src/ and tests/ (what the CI lint job runs)
	ruff check src tests

bench:           ## full paper-profile figure reproduction + the tracked grids (~30 min)
	pytest benchmarks/ --benchmark-only

bench-quick:     ## scaled-down smoke of every figure (~40 s; the tracked grids skip)
	REPRO_BENCH_PROFILE=quick pytest benchmarks/ --benchmark-only

sweep-smoke:     ## quick-profile fig4 sweep through the parallel runner (2 jobs)
	PYTHONPATH=src python -m repro sweep --figure fig4 --profile quick \
		--approach mirror --jobs 2 --no-cache

perf:            ## the repo's one benchmark: host time + simulated outcomes per workload (BENCHMARK.json)
	python3 benchmarks/suite/run.py

tracked:         ## every committed benchmarks/results artifact, uncached: the tracked-size churn / lineage / topo / p2p grids, then the quick-profile figure benches; any drift fails (~1.5 min on 2 cores)
	REPRO_BENCH_NO_CACHE=1 pytest benchmarks/bench_churn.py benchmarks/bench_lineage.py \
		benchmarks/bench_topo.py benchmarks/bench_p2p.py --benchmark-only
	REPRO_BENCH_PROFILE=quick REPRO_BENCH_NO_CACHE=1 pytest benchmarks/ --benchmark-only
	git diff --exit-code -- benchmarks/results

suite-smoke:     ## benchmark suite at toy sizes + its own tests (~20 s; guards the ledger's by-name patches)
	python3 benchmarks/suite/run.py --smoke
	python -m pytest benchmarks/suite -q

outcome-digest:  ## simulated outcomes at toy sizes equal benchmarks/outcome_digests.json (~10 s; exit 1 with a diff)
	python3 benchmarks/outcome_digest.py --smoke --expect benchmarks/outcome_digests.json

examples:        ## every script under examples/ (a CI step after tier 1)
	python examples/quickstart.py
	python examples/multideployment.py
	python examples/debug_cloning.py
	python examples/montecarlo_suspend_resume.py
	python examples/webserver_farm.py

clean:           ## drop caches only; tracked figure artifacts stay put
	rm -rf .pytest_cache benchmarks/results/cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
