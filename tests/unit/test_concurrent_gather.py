"""Scatter-gather waves: accounting exactness, determinism, latency.

The invariants the wave dispatcher must uphold at every modeled width:

* **per-shard exactness** — ``sum(per_shard ops/bytes)`` equals the
  query's global meter delta for Q1/Q2/Q3 at every shard count and
  ``concurrency`` (one nested meter scope per stream);
* **width equivalence** — a ``concurrency=4`` engine returns exactly
  the width-1 engine's refs, operation counts, and per-shard triples
  (the width only prices the wave's makespan);
* **determinism** — repeating a concurrent query on an identically
  seeded deployment reproduces the measurement bit-for-bit;
* **latency model shape** — the modeled critical path never exceeds the
  sequential sum, collapses to it at ``concurrency=1``, and beats it
  when independent shard streams actually overlap.
"""

from __future__ import annotations

import pytest

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.passlib.capture import PassSystem
from repro.query.engine import SimpleDBEngine, parse_nonce
from repro.query.latency import DEFAULT_LATENCY_MODEL, makespan
from repro.sim import Simulation

SHARD_COUNTS = (1, 4)
CONCURRENCY_MODES = (1, 4)


def pipeline_trace(n_jobs: int = 5):
    """blast → summarize chains across several directories."""
    pas = PassSystem(workload="gather")
    pas.stage_input("db/nr", b"database")
    for job in range(n_jobs):
        with pas.process("blast", argv=f"-q {job}") as blast:
            blast.read("db/nr")
            blast.write(f"out/{job % 3}/hits-{job}.dat", f"h{job}".encode())
            blast.close(f"out/{job % 3}/hits-{job}.dat")
        with pas.process("summarize") as post:
            post.read(f"out/{job % 3}/hits-{job}.dat")
            post.write(f"sum/{job}.txt", f"s{job}".encode())
            post.close(f"sum/{job}.txt")
    return list(pas.drain_flushes())


@pytest.fixture(scope="module")
def trace():
    return pipeline_trace()


@pytest.fixture(scope="module")
def loaded_sims(trace):
    # read_cache pinned off: these tests pin exact backend-request
    # accounting across repeated queries on shared sims — a memo hit
    # would (correctly) answer later runs with zero backend waves.
    # The cache's own accounting has dedicated tests.
    sims = {}
    for shards in SHARD_COUNTS:
        sim = Simulation(
            architecture="s3+simpledb", seed=7, shards=shards,
            read_cache="off",
        )
        sim.store_events(trace, collect=False)
        sims[shards] = sim
    return sims


def engine_for(sim, concurrency):
    return SimpleDBEngine(
        sim.account, router=sim.store.router, concurrency=concurrency
    )


def run_query(engine, name, trace):
    if name == "q1":
        return engine.q1(trace[-1].subject)
    if name == "q1_all":
        return engine.q1_all()
    if name == "q2":
        return engine.q2_outputs_of("blast")
    return engine.q3_descendants_of("blast")


class TestPerShardAccounting:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("concurrency", CONCURRENCY_MODES)
    @pytest.mark.parametrize("query", ["q1", "q1_all", "q2", "q3"])
    def test_per_shard_sums_to_query_total(
        self, loaded_sims, trace, shards, concurrency, query
    ):
        engine = engine_for(loaded_sims[shards], concurrency)
        m = run_query(engine, query, trace)
        assert m.per_shard, f"{query} produced no per-shard accounting"
        assert sum(ops for _, ops, _ in m.per_shard) == m.operations
        assert sum(nbytes for _, _, nbytes in m.per_shard) == m.bytes_out
        assert len(m.per_shard) <= shards

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("query", ["q1", "q1_all", "q2", "q3"])
    def test_concurrent_identical_to_sequential(
        self, loaded_sims, trace, shards, query
    ):
        sim = loaded_sims[shards]
        seq = run_query(engine_for(sim, 1), query, trace)
        conc_engine = engine_for(sim, 4)
        conc = run_query(conc_engine, query, trace)
        assert conc.refs == seq.refs
        assert conc.operations == seq.operations
        assert conc.bytes_out == seq.bytes_out
        assert conc.per_shard == seq.per_shard


class TestDeterminism:
    def test_concurrent_run_is_reproducible(self, trace):
        def measure():
            sim = Simulation(architecture="s3+simpledb", seed=21, shards=4)
            sim.store_events(trace, collect=False)
            engine = engine_for(sim, 4)
            q2 = engine.q2_outputs_of("blast")
            q3 = engine.q3_descendants_of("blast")
            return q2, q3

        first_q2, first_q3 = measure()
        second_q2, second_q3 = measure()
        for first, second in ((first_q2, second_q2), (first_q3, second_q3)):
            assert first.refs == second.refs
            assert first.operations == second.operations
            assert first.per_shard == second.per_shard
            assert first.latency == second.latency
            assert first.sequential_latency == second.sequential_latency


class TestLatencyModel:
    def test_sequential_engine_latency_is_the_sum(self, loaded_sims, trace):
        m = run_query(engine_for(loaded_sims[4], 1), "q2", trace)
        assert m.latency == pytest.approx(m.sequential_latency)
        assert m.speedup == pytest.approx(1.0)

    def test_critical_path_never_exceeds_sequential(self, loaded_sims, trace):
        for shards in SHARD_COUNTS:
            engine = engine_for(loaded_sims[shards], 4)
            for query in ("q1", "q1_all", "q2", "q3"):
                m = run_query(engine, query, trace)
                assert m.latency <= m.sequential_latency + 1e-12

    def test_scatter_overlap_beats_sequential(self, loaded_sims, trace):
        engine = engine_for(loaded_sims[4], 4)
        m = run_query(engine, "q2", trace)
        # Four independent shard streams on four workers: the critical
        # path must come in well under the one-at-a-time sum.
        assert m.latency < 0.6 * m.sequential_latency

    def test_measurement_usage_prices_like_the_accumulated_streams(
        self, loaded_sims, trace
    ):
        m = run_query(engine_for(loaded_sims[4], 1), "q3", trace)
        # The model is linear in request counts, so pricing the global
        # delta must agree with the per-stream accumulation.
        assert DEFAULT_LATENCY_MODEL.stream_seconds(m.usage) == pytest.approx(
            m.sequential_latency
        )


class TestMakespan:
    def test_one_worker_is_the_sum(self):
        assert makespan([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_unbounded_pool_is_the_max(self):
        assert makespan([1.0, 2.0, 3.0], 8) == pytest.approx(3.0)

    def test_bounded_pool_list_schedules_in_order(self):
        assert makespan([3.0, 1.0, 1.0, 1.0], 2) == pytest.approx(3.0)
        assert makespan([1.0, 1.0, 1.0, 1.0], 2) == pytest.approx(2.0)

    def test_empty_wave_is_free(self):
        assert makespan([], 4) == 0.0

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            makespan([1.0], 0)


class TestMeterScopes:
    def test_scope_captures_only_its_own_block(self):
        account = AWSAccount(seed=3, consistency=ConsistencyConfig.strong())
        account.simpledb.create_domain("d")
        account.simpledb.put_attributes("d", "item", [("type", "file")])
        account.simpledb.get_attributes("d", "item")
        with account.meter.scoped() as scope:
            account.simpledb.get_attributes("d", "item")
        with account.meter.scoped() as sibling:
            account.simpledb.get_attributes("d", "item")
        account.simpledb.get_attributes("d", "item")
        # Four GetAttributes were issued; each scope saw only the one
        # made inside its block.
        assert scope.usage().request_count(op="GetAttributes") == 1
        assert sibling.usage().request_count(op="GetAttributes") == 1

    def test_nested_scopes_both_credited(self):
        account = AWSAccount(seed=3, consistency=ConsistencyConfig.strong())
        account.simpledb.create_domain("d")
        with account.meter.scoped() as outer:
            account.simpledb.list_domains()
            with account.meter.scoped() as inner:
                account.simpledb.list_domains()
        assert inner.usage().request_count() == 1
        assert outer.usage().request_count() == 2

    def test_scope_sum_equals_global_delta(self):
        account = AWSAccount(seed=3, consistency=ConsistencyConfig.strong())
        account.simpledb.create_domain("d")
        account.simpledb.put_attributes("d", "item", [("type", "file")])
        before = account.meter.snapshot()
        scopes = []
        for _ in range(3):
            with account.meter.scoped() as scope:
                account.simpledb.get_attributes("d", "item")
            scopes.append(scope)
        spent = account.meter.snapshot() - before
        assert sum(s.request_count() for s in scopes) == spent.request_count()
        assert sum(s.transfer_out() for s in scopes) == spent.transfer_out()


class TestKnobs:
    def test_engine_rejects_nonpositive_concurrency(self, strong_account):
        with pytest.raises(ValueError):
            SimpleDBEngine(strong_account, concurrency=0)

    def test_none_is_width_one(self, strong_account):
        assert SimpleDBEngine(strong_account).concurrency == 1
        assert SimpleDBEngine(strong_account, concurrency=6).concurrency == 6

    @pytest.mark.parametrize("malformed", ["abc", 0, -2, 2.5, True])
    def test_malformed_argument_names_the_knob(self, strong_account, malformed):
        with pytest.raises(ValueError, match="concurrency must be an integer >= 1"):
            SimpleDBEngine(strong_account, concurrency=malformed)

    def test_fractional_width_fails_before_any_query(self, trace):
        """A fractional width used to build fine and then raise a
        ``TypeError`` inside ``makespan`` on the first scatter query."""
        sim = Simulation(architecture="s3+simpledb", seed=7, shards=4,
                         concurrency=2.5)
        sim.store_events(trace, collect=False)
        with pytest.raises(ValueError, match=r"concurrency.*2\.5"):
            sim.query_engine()

    def test_simulation_passes_concurrency_through(self, trace):
        sim = Simulation(architecture="s3+simpledb", seed=7, shards=2,
                         concurrency=3)
        sim.store_events(trace, collect=False)
        engine = sim.query_engine()
        assert engine.concurrency == 3


class TestNonceParsing:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("v0001", 1), ("v0042", 42), ("7", 7), (" v0003 ", 3),
            ("", None), ("v", None), ("vv1", None), ("abc", None),
            ("v12x", None), ("v-1", None), ("1.5", None),
            # Non-ASCII digits would be a second spelling of a version.
            ("v٣", None), ("v０００２", None), ("٣", None), ("v²", None),
        ],
    )
    def test_parse_nonce(self, raw, expected):
        assert parse_nonce(raw) == expected
