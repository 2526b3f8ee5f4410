# Single-entry developer / CI targets.
#
#   make test          tier-1 test suite (the hard gate every PR must keep green)
#   make regression    fresh benchmark run diffed against the committed
#                      BENCH_netsim.json (fails on >20% throughput regression)
#   make bench         both of the above, in order — the full pre-merge gate
#   make bench-refresh re-run benchmarks and rewrite BENCH_netsim.json
#                      (refuses to overwrite the baseline on regression)
#   make bench-burst   quick burst-engine microbenchmarks only (spray
#                      delivery via Network.transmit_spray + bulk
#                      rate-limiter accounting, JSON output)
#   make chaos         fault-injection / resilience property suite only
#                      (the `chaos`-marked tests, which `make test` also runs;
#                      includes the kill -9 crash-injection harness)
#   make regression-trend  regression gate in trend-aware mode: compares
#                      against the rolling .bench_history/ window and
#                      records the fresh sample when it passes
#   make store-fsck    validate every run store in the repo (experiment
#                      sweeps under runs/ plus the bench history) — scans
#                      segments for torn/corrupt records; STORE=dir for one
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

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test regression regression-trend bench bench-refresh bench-burst chaos store-fsck population-smoke chaos-campaign perfbench perfbench-ab

test:
	$(PYTHON) -m pytest -x -q

chaos:
	$(PYTHON) -m pytest -m chaos -q

regression:
	$(PYTHON) benchmarks/check_regression.py

regression-trend:
	$(PYTHON) benchmarks/check_regression.py --history

store-fsck:
	@if [ -n "$(STORE)" ]; then \
		$(PYTHON) -m repro.experiments.store fsck "$(STORE)"; \
	else \
		$(PYTHON) -m repro.experiments.store fsck runs --allow-missing && \
		$(PYTHON) -m repro.experiments.store fsck .bench_history --allow-missing; \
	fi

bench: test regression

bench-refresh:
	$(PYTHON) benchmarks/run_benchmarks.py

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
