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
#   make store-fsck    validate every run store in the repo (experiment
#                      sweeps under runs/) — scans segments for
#                      torn/corrupt records; STORE=dir for one
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
#                      TRACE=1 (see BENCHMARK.json)
#   make perfbench-ab REV=<git rev> W=<workload> [PAIRS=n] [SEED=n]
#                      paired A/B of the benchmark of record: this checkout
#                      against a local worktree of REV, run in alternating
#                      order; prints per-metric medians, REV's IQR and the
#                      win count (benchmarks/ab.py)
#   make reach         reach probe: runs every production surface (examples,
#                      paper benchmarks, perfbench workloads, smoke CLIs,
#                      store fsck/report) under a profiler and lists each
#                      src/repro function none of them called, with its
#                      line count (benchmarks/reach.py, several minutes)

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
		$(PYTHON) -m repro.experiments.store fsck "$(STORE)"; \
	else \
		$(PYTHON) -m repro.experiments.store fsck runs --allow-missing; \
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
	python3 perfbench/run.py --workload $(W) $(if $(SEED),--seed $(SEED)) --trace $(or $(TRACE),0)

perfbench-ab:
	@if [ -z "$(REV)" ] || [ -z "$(W)" ]; then \
		echo "usage: make perfbench-ab REV=<git rev> W=table2|fleet|landscape|chaos [PAIRS=n] [SEED=n]" >&2; \
		exit 2; \
	fi
	python3 benchmarks/ab.py $(REV) --workload $(W) --pairs $(or $(PAIRS),10) $(if $(SEED),--seed $(SEED))

reach:
	python3 benchmarks/reach.py
