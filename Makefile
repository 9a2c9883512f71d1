# Developer entry points — no tox, no extra deps beyond pytest/hypothesis
# (pytest-benchmark needed only for the bench targets; ruff only for lint).
#
#   make test         tier-1 suite (what CI runs, fixed hypothesis profile)
#   make test-fast    same suite, fewer hypothesis examples
#   make test-migration  the live-migration suites alone
#   make bench-smoke  quick benchmark pass at a reduced live scale
#                     (BENCH_SMOKE_FILES picks the set — CI runs the same)
#   make bench        full benchmark suite (regenerates benchmarks/results/)
#   make bench-matrix workload × architecture compare sweep (`repro matrix
#                     --quick`): skewed/bursty/deep/uniform workloads over
#                     layout/placement/knob cells, R seeded reps per cell,
#                     median + bootstrap CI, trace-replay honesty check;
#                     writes benchmarks/results/matrix.{json,md}. Full grid:
#                     `PYTHONPATH=src python -m repro matrix`
#   make bench-check  perf-regression gate: metered Q1/Q2/Q3 totals vs
#                     benchmarks/baselines.json (rebaseline with
#                     `PYTHONPATH=src python benchmarks/check_baselines.py --write`)
#   make bench-perf W=<workload> [SECONDS=5]
#                     one run of the two-plane perf harness behind
#                     BENCHMARK.json (benchmarks/perf/run.py; workloads:
#                     ingest-a3-paper, ingest-a2-batched, query-sdb-cold,
#                     query-ddb-mixed). Prints every metric; the last
#                     stdout line is the JSON result. Exit code = the
#                     harness's own checks (result sets vs the oracle,
#                     sim plane identical across cycles) — no timing gate
#   make profile W=<workload> PHASE=ingest|queries|migrate [SEED=1] [CYCLES=3]
#                     cProfile of one phase of a perf-harness workload
#                     (benchmarks/profile_phase.py): same plan and call
#                     order as the harness, one warm cycle, then CYCLES
#                     profiled; json.dumps calls per operation, then top
#                     30 by tottime and by cumulative. The profile every
#                     perf PR starts from (ROADMAP aim 1)
#   make lint         ruff check over src/tests/benchmarks/examples
#                     (config: ruff.toml)
#   make loc          logical line count of src/repro, per module and total
#                     (benchmarks/check_loc.py: lines carrying a token that
#                     is no comment, docstring or bare string) — the number
#                     ROADMAP aim 2 asks to go down. A ratchet: fails when
#                     the total exceeds CEILING in that file; a PR that
#                     legitimately grows src/repro raises the constant in
#                     the same diff (the baselines.json convention)
#   make lint-prov    provlint — the project's AST invariant checker
#                     (metering/billing coverage, determinism, ':v'
#                     wire-format ownership, router handles);
#                     stdlib-only, no install needed
#
# The seven deployment knobs are constructor arguments of
# repro.sim.Simulation / ClientFleet (and `repro demo` flags), documented
# in one place: the docstring of Cloud.__init__ in src/repro/sim.py
#   PYTHONPATH=src python -c "from repro.sim import Cloud; help(Cloud.__init__)"
# No environment variable sets them. tests/adversary/test_config_grid.py
# (in `make test`) runs a pairwise-covering grid of them against the
# default configuration.

PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest
BENCH = cd benchmarks && PYTHONPATH=../src $(PYTHON) -m pytest -o python_files='bench_*.py'

# The benchmarks bench-smoke runs (kept in one place so CI and local
# smoke stay in sync — extend this list as new benchmarks land).
BENCH_SMOKE_FILES = bench_sharding_scaleout.py bench_concurrent_gather.py \
	bench_multibackend.py bench_migration_live.py bench_table3_query.py \
	bench_group_commit.py bench_read_cache.py bench_workload_matrix.py \
	bench_planner.py

# The live-migration suites alone (fleet writing while a layout
# migration runs).
MIGRATION_TEST_FILES = tests/unit/test_migration_handle.py \
	tests/unit/test_live_migration.py tests/unit/test_index_capacity.py \
	tests/properties/test_prop_migration.py \
	tests/integration/test_fleet_live_migration.py

SECONDS ?= 5
SEED ?= 1
CYCLES ?= 3

.PHONY: test test-fast test-migration bench bench-smoke bench-matrix bench-check bench-perf profile lint lint-prov loc

test:
	HYPOTHESIS_PROFILE=ci $(PYTEST) -x -q

test-fast:
	HYPOTHESIS_PROFILE=dev $(PYTEST) -x -q

test-migration:
	HYPOTHESIS_PROFILE=ci $(PYTEST) -x -q $(MIGRATION_TEST_FILES)

bench-smoke:
	$(BENCH) -q -x --benchmark-disable $(BENCH_SMOKE_FILES)

bench:
	$(BENCH) -q

bench-matrix:
	PYTHONPATH=src $(PYTHON) -m repro matrix --quick --out benchmarks/results

bench-check:
	PYTHONPATH=src $(PYTHON) benchmarks/check_baselines.py

bench-perf:
	$(PYTHON) benchmarks/perf/run.py --workload $(W) --seconds $(SECONDS)

profile:
	$(PYTHON) benchmarks/profile_phase.py --workload $(W) --phase $(PHASE) \
		--seed $(SEED) --cycles $(CYCLES)

lint:
	ruff check src tests benchmarks examples

loc:
	$(PYTHON) benchmarks/check_loc.py

lint-prov:
	PYTHONPATH=src $(PYTHON) -m repro.devtools.provlint src tests benchmarks examples
