# Developer entry points — no tox, no extra deps beyond pytest/hypothesis
# (pytest-benchmark needed only for the bench targets; ruff only for lint).
#
#   make test         tier-1 suite (what CI runs, fixed hypothesis profile)
#   make test-fast    same suite, fewer hypothesis examples
#   make test-variants  `make test` once per CI knob-variant row
#                     (TEST_VARIANTS below mirrors the eight `include:`
#                     rows of .github/workflows/ci.yml) — the passes
#                     that otherwise exist only in CI; ~1 min per row
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
# Knobs the suite honours (also exercised by the CI matrix):
#   REPRO_QUERY_CONCURRENCY=N    modeled scatter-gather wave width (execution
#                                is sequential; N prices the wave's makespan)
#   REPRO_BACKEND_PLACEMENT=...  default shard backend placement:
#                                sdb | ddb | mixed | "0:sdb,1:ddb"
#                                (mixed = even shards on SimpleDB, odd on
#                                the DynamoDB-style store; shard 0 stays sdb)
#   REPRO_DDB_INDEXES=...        global secondary indexes on DynamoDB-placed
#                                shards: comma-separated key attributes with
#                                optional '+included' projections — e.g.
#                                "name,input" (= 'auto'); unset/empty = none.
#                                A '+*' include is the ALL projection (entries
#                                carry the whole item — what index-streamed
#                                migration reads need); an '@WCU[:RCU]' suffix
#                                gives the index its own provisioned capacity
#                                (default: maintenance charges the base table's
#                                window). With indexes, Q2/Q3 on ddb shards are
#                                GSI Queries (scan fallback when absent/stale);
#                                bench_multibackend.py quantifies Scan vs GSI
#                                vs SimpleDB-Select (it is in BENCH_SMOKE_FILES)
#   REPRO_WRITE_BATCH=N          group-commit width for the batched write
#                                path (also `repro demo --write-batch N`):
#                                the client coalescer buffers provenance
#                                puts and flushes them through the batch
#                                APIs (BatchPutAttributes / BatchWriteItem),
#                                and the A3 commit daemon applies rounds of
#                                N transactions with batched puts and
#                                DeleteMessageBatch. One write path at
#                                every width: 1 (default) is a batch of
#                                one sent as single-item requests — the
#                                paper's one-request-per-item protocol,
#                                byte-identical on the meter; the width
#                                only picks single-item vs batch requests;
#                                bench_group_commit.py quantifies the
#                                ops/item and USD/item savings at 8 and 25
#   REPRO_MIGRATION=...          default `repro demo --migrate` spec: e.g.
#                                "shards=8,placement=mixed" (online live
#                                migration — copy/double-write/catch-up/
#                                cutover/drop under traffic) or
#                                "shards=4,online=false" (offline quiet-window
#                                rebalance). bench_migration_live.py compares
#                                the two modes ops/bytes/USD under a writing
#                                fleet; `make test-migration` runs just the
#                                live-migration suites (what the CI
#                                live-migration job executes)
#   REPRO_READ_CACHE=SPEC        ElastiCache-style read-cache tier fronting
#                                the provenance backends (also `repro demo
#                                --read-cache [SPEC]`). Unset/empty/off
#                                (default) builds no cache — byte-identical
#                                on the meter; "1"/"on" = defaults (256 KiB
#                                node, 5 s staleness bound); a bare integer
#                                sets capacity; "capacity=N,staleness=S"
#                                sets both. One cache authority per account
#                                owns the node: bounded LRU with metered
#                                hits/misses/evictions on the elasticache.*
#                                billing keys, write-through invalidation on
#                                every put/delete path (group-commit batches
#                                and migration double-writes included), and
#                                version-fenced memoised Q2/Q3 closures so
#                                repeated queries collapse to a few cache
#                                consults. No entry is ever served older
#                                than the staleness bound.
#                                bench_read_cache.py quantifies the repeat
#                                collapse; the read-cache/* bench-gate keys
#                                pin it both ways.
#   REPRO_QUERY_PLANNER=MODE     access-path planning for the query engines
#                                (also `repro demo --planner MODE`):
#                                off (default) = the historical first-fit
#                                dispatch, byte-identical on the meter;
#                                first-fit = same paths, but every planned
#                                phase carries a predicted_cost next to the
#                                metered spend (the honesty baseline);
#                                cost = cheapest estimated path from
#                                PriceBook rates + incrementally-maintained
#                                DescribeTable/DomainMetadata statistics —
#                                composite "hash/range" GSIs (e.g.
#                                "name/nonce+*,type/nonce") then serve
#                                version-window queries as one range Query
#                                slice. bench_planner.py pins cost ≤
#                                first-fit and the prediction error bound;
#                                the planner/* bench-gate keys freeze both
#                                regimes.
#   REPRO_SANITIZE=1             opt-in runtime sanitizer: at the end of every
#                                sharded query the engine audits that its
#                                per-stream and memo Meter.scoped contexts
#                                sum to the query's own scope, per (service,
#                                op) request count and per-service bytes out
#                                (spend outside them would be missing from
#                                per-shard accounting). Violations are
#                                recorded, not raised; the test conftest
#                                fails the test that grew the registry. Off
#                                (default) = byte-identical to the plain
#                                build. CI runs one matrix pass with it on.

PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest
BENCH = cd benchmarks && PYTHONPATH=../src $(PYTHON) -m pytest -o python_files='bench_*.py'

# The benchmarks bench-smoke runs (kept in one place so CI and local
# smoke stay in sync — extend this list as new benchmarks land).
BENCH_SMOKE_FILES = bench_sharding_scaleout.py bench_concurrent_gather.py \
	bench_multibackend.py bench_migration_live.py bench_table3_query.py \
	bench_group_commit.py bench_read_cache.py bench_workload_matrix.py \
	bench_planner.py

# The CI knob-variant passes, one row each: the `include:` rows of the
# tests matrix in .github/workflows/ci.yml (keep the two in sync). A row
# is its REPRO_* assignments joined by ';' and single-quoted. The
# CONCURRENCY=4 rows change wave width and modeled latency only
# (execution is sequential); the SANITIZE=1 row exercises the spend check.
TEST_VARIANTS = \
	'REPRO_QUERY_CONCURRENCY=4' \
	'REPRO_QUERY_CONCURRENCY=4;REPRO_BACKEND_PLACEMENT=mixed' \
	'REPRO_QUERY_CONCURRENCY=4;REPRO_BACKEND_PLACEMENT=ddb;REPRO_DDB_INDEXES=name,input' \
	'REPRO_QUERY_CONCURRENCY=4;REPRO_BACKEND_PLACEMENT=mixed;REPRO_DDB_INDEXES=name,input' \
	'REPRO_WRITE_BATCH=8' \
	'REPRO_QUERY_CONCURRENCY=4;REPRO_SANITIZE=1' \
	'REPRO_QUERY_CONCURRENCY=4;REPRO_READ_CACHE=1' \
	'REPRO_QUERY_CONCURRENCY=4;REPRO_BACKEND_PLACEMENT=ddb;REPRO_DDB_INDEXES=name/nonce+*,type/nonce,name,input;REPRO_QUERY_PLANNER=cost'

# The live-migration suites alone (fleet writing while a layout
# migration runs) — what the CI live-migration job executes.
MIGRATION_TEST_FILES = tests/unit/test_migration_handle.py \
	tests/unit/test_live_migration.py tests/unit/test_index_capacity.py \
	tests/properties/test_prop_migration.py \
	tests/integration/test_fleet_live_migration.py

SECONDS ?= 5
SEED ?= 1
CYCLES ?= 3

.PHONY: test test-fast test-variants test-migration bench bench-smoke bench-matrix bench-check bench-perf profile lint lint-prov loc

test:
	HYPOTHESIS_PROFILE=ci $(PYTEST) -x -q

test-fast:
	HYPOTHESIS_PROFILE=dev $(PYTEST) -x -q

test-variants:
	@set -ef; for row in $(TEST_VARIANTS); do \
		echo "== make test under $$row"; \
		env $$(echo "$$row" | tr ';' ' ') $(MAKE) --no-print-directory test; \
	done

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
