# Convenience targets for the reproduction.

.PHONY: install test lint bench sweep-smoke perf tracked suite-smoke outcome-digest examples reach clean

install:
	pip install -e . || python setup.py develop

test:            ## tier-1 test suite (what CI runs)
	PYTHONPATH=src python -m pytest -x -q

lint:            ## ruff over src/ and tests/ (what the CI lint job runs)
	ruff check src tests

bench:           ## every row of benchmarks/grids.py, the figures at the paper profile (~5.5 min on 2 cores)
	python3 benchmarks/tracked.py

sweep-smoke:     ## quick-profile fig4 sweep through the parallel runner (2 jobs)
	PYTHONPATH=src python -m repro sweep --figure fig4 --profile quick \
		--approach mirror --jobs 2

perf:            ## the repo's one benchmark: host time + simulated outcomes per workload (BENCHMARK.json)
	python3 benchmarks/suite/run.py

tracked:         ## every committed benchmarks/results artifact: each row of benchmarks/grids.py, the figures at the quick profile, in one sweep; any drift fails (~80 s on 2 cores)
	REPRO_BENCH_PROFILE=quick python3 benchmarks/tracked.py
	git diff --exit-code -- benchmarks/results

suite-smoke:     ## benchmark suite at toy sizes + its own tests (~20 s; guards the ledger's by-name patches)
	python3 benchmarks/suite/run.py --smoke
	python -m pytest benchmarks/suite -q

outcome-digest:  ## simulated outcomes at toy sizes equal benchmarks/outcome_digests.json (~10 s; exit 1 with a diff)
	python3 benchmarks/outcome_digest.py --smoke --expect benchmarks/outcome_digests.json

examples:        ## every script under examples/, by glob; stops at the first that fails (a CI step after tier 1)
	@for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src python "$$script" || exit 1; \
	done

reach:           ## every src/repro function is entered by a program path (examples, CLI, suite smoke, the quick-profile grid rows) or allowlisted with a reason (~2 min on 2 cores)
	python3 benchmarks/reach.py

clean:           ## drop caches only; tracked figure artifacts stay put
	rm -rf .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
