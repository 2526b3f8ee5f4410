# Single-entry developer / CI targets.
#
#   make test          tier-1 test suite (the hard gate every PR must keep green)
#   make regression [REV=<git rev>] [PAIRS=n]
#                      the perf gate: a paired A/B of the benchmark of record
#                      (benchmarks/ab.py) on all four workloads, this checkout
#                      against REV (default HEAD~1), PAIRS pairs each (default
#                      5, ~17 min in all); fails when a metric's median is
#                      worse than REV's by more than its BENCHMARK.json bound,
#                      or REV's runs spread too widely to tell
#   make bench         test, then regression — the full pre-merge gate
#   make bench-burst   quick delivery microbenchmarks only (spray delivery
#                      via Network.transmit_spray and socket sends via
#                      UDPSocket.sendto against singular transmit, JSON
#                      output)
#   make chaos         fault-injection / resilience property suite only
#                      (the `chaos`-marked tests, which `make test` also runs;
#                      includes the kill -9 crash-injection harness)
#   make store-fsck    validate every run store in the repo (runs/ and the
#                      smoke stores .population_smoke_store and
#                      .chaos_campaign_store) via `python -m
#                      repro.experiments fsck` — scans segments for
#                      torn/corrupt records; fails if any store does;
#                      STORE=dir for one
#   make population-smoke  small population landscape end-to-end: a 3×3
#                      grid of heterogeneous mini-fleets through the
#                      durable experiment engine, printed as a
#                      success-probability table
#   make chaos-campaign  small chaos campaign end-to-end: a two-phase
#                      ChaosPlan (calm, then an AS-partition storm) over a
#                      mini-fleet, checkpointed through the run store and
#                      printed as a per-phase degradation report; resume a
#                      killed campaign with
#                      `python -m repro.population.chaos --resume SWEEP_ID`
#   make perfbench W=<workload> [SEED=n] [TRACE=1]
#                      the benchmark of record (perfbench/run.py) on one
#                      workload: table2, fleet, landscape or chaos; prints
#                      the end-to-end metrics, or the per-layer ones with
#                      TRACE=1 (see BENCHMARK.json); exits 1 when its last
#                      line does not read "correct": true
#                      (benchmarks/perfbench_check.py)
#   make perfbench-ab REV=<git rev> W=<workload> [PAIRS=n] [SEED=n]
#                      paired A/B of the benchmark of record: this checkout
#                      against a local worktree of REV, run in alternating
#                      order; prints per-metric medians, REV's IQR and the
#                      win count (benchmarks/ab.py)
#   make reach         reach probe: runs every production surface (examples,
#                      paper benchmarks, perfbench workloads, smoke CLIs,
#                      store fsck/report) under a profiler and lists each
#                      src/repro function none of them called, and each
#                      PopulationSpec/ChaosPlan field none of them set, that
#                      has no entry in benchmarks/reach_allow.txt (one
#                      path:qualname per line plus a reason naming the test
#                      that pins it); prints "N unexplained" and exits 1
#                      when N > 0, when an entry is stale (its function or
#                      field is gone, reached or set) or a surface fails (a perfbench
#                      surface also fails on "correct": false); exits 2,
#                      reporting nothing, when src/ changed during the probe
#                      (benchmarks/reach.py, several minutes)

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test regression bench bench-burst chaos store-fsck population-smoke chaos-campaign perfbench perfbench-ab reach

test:
	$(PYTHON) -m pytest -x -q

chaos:
	$(PYTHON) -m pytest -m chaos -q

regression: REV ?= HEAD~1
regression: PAIRS ?= 5
regression:
	@status=0; for w in table2 fleet landscape chaos; do \
		echo "== $$w: this checkout vs $(REV), $(PAIRS) pairs" >&2; \
		python3 benchmarks/ab.py $(REV) --workload $$w --pairs $(PAIRS) || status=1; \
	done; exit $$status

store-fsck:
	@if [ -n "$(STORE)" ]; then \
		$(PYTHON) -m repro.experiments fsck "$(STORE)"; \
	else \
		status=0; for store in runs .population_smoke_store .chaos_campaign_store; do \
			$(PYTHON) -m repro.experiments fsck $$store --allow-missing || status=1; \
		done; exit $$status; \
	fi

bench: test regression

bench-burst:
	$(PYTHON) benchmarks/bench_micro_netsim.py

population-smoke:
	$(PYTHON) -m repro.population.landscape

chaos-campaign:
	$(PYTHON) -m repro.population.chaos

perfbench:
	@if [ -z "$(W)" ]; then \
		echo "usage: make perfbench W=table2|fleet|landscape|chaos [SEED=n] [TRACE=1]" >&2; \
		exit 2; \
	fi
	python3 benchmarks/perfbench_check.py python3 perfbench/run.py --workload $(W) $(if $(SEED),--seed $(SEED)) --trace $(or $(TRACE),0)

perfbench-ab:
	@if [ -z "$(REV)" ] || [ -z "$(W)" ]; then \
		echo "usage: make perfbench-ab REV=<git rev> W=table2|fleet|landscape|chaos [PAIRS=n] [SEED=n]" >&2; \
		exit 2; \
	fi
	python3 benchmarks/ab.py $(REV) --workload $(W) --pairs $(or $(PAIRS),10) $(if $(SEED),--seed $(SEED))

reach:
	python3 benchmarks/reach.py
