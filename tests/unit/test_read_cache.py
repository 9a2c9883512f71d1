"""Unit tests for the ElastiCache-style read-cache authority.

Covers the authority in isolation — LRU capacity and eviction order,
hit/miss/fill metering on the ``elasticache`` key, fenced fills, the
staleness age-out, item-vs-memo invalidation semantics — plus the knob
plumbing (spec grammar, account/sim/fleet/CLI wiring) and the price-book lines the meter keys must match.
Last, the node memory the query engine's scatter memos occupy.
"""

from __future__ import annotations

import pytest

from repro.aws import billing
from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.billing import ELASTICACHE, Meter, PriceBook
from repro.aws.elasticache import (
    CACHE_STALENESS_BOUND,
    DEFAULT_CAPACITY,
    ReadCacheAuthority,
    attrs_nbytes,
    build_read_cache,
    resolve_read_cache,
)
from repro.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def meter(clock):
    return Meter(clock)


def authority(clock, meter, capacity=DEFAULT_CAPACITY, staleness=CACHE_STALENESS_BOUND):
    return ReadCacheAuthority(
        clock, meter, capacity=capacity, staleness_bound=staleness
    )


def attrs_of(size: int, key: str = "k"):
    """An attribute map whose node-memory estimate is exactly ``size``."""
    assert size > len(key)
    return {key: ("x" * (size - len(key)),)}


class TestSpecResolution:
    def test_argument_is_normalised(self):
        assert resolve_read_cache(" ON ") == "on"
        assert resolve_read_cache("4096") == "4096"

    @pytest.mark.parametrize("spec", ["", "  ", "0", "off", "none", "false", False, None])
    def test_disabled_spellings(self, spec):
        assert resolve_read_cache(spec) == ""

    def test_boolean_true_means_defaults(self, clock, meter):
        cache = build_read_cache(True, clock, meter)
        assert cache is not None
        assert cache.capacity == DEFAULT_CAPACITY
        assert cache.staleness_bound == CACHE_STALENESS_BOUND

    def test_off_builds_nothing(self, clock, meter):
        assert build_read_cache(None, clock, meter) is None
        assert build_read_cache("off", clock, meter) is None

    def test_plain_digits_set_capacity(self, clock, meter):
        cache = build_read_cache("4096", clock, meter)
        assert cache.capacity == 4096
        assert cache.staleness_bound == CACHE_STALENESS_BOUND

    def test_option_pairs(self, clock, meter):
        cache = build_read_cache("capacity=512,staleness=2.5", clock, meter)
        assert cache.capacity == 512
        assert cache.staleness_bound == 2.5

    @pytest.mark.parametrize("spec", ["capacity", "weird=1", "capacity=512,bogus=2"])
    def test_malformed_specs_raise(self, spec, clock, meter):
        with pytest.raises(ValueError):
            build_read_cache(spec, clock, meter)

    def test_rejects_degenerate_parameters(self, clock, meter):
        with pytest.raises(ValueError):
            ReadCacheAuthority(clock, meter, capacity=0)
        with pytest.raises(ValueError):
            ReadCacheAuthority(clock, meter, staleness_bound=-1.0)

    def test_attrs_nbytes_counts_names_and_values(self):
        assert attrs_nbytes({"type": ("file",), "input": ("a", "bc")}) == (
            len("type") + len("file") + len("input") + 3
        )


class TestItemEntries:
    def test_miss_then_fill_then_hit(self, clock, meter):
        cache = authority(clock, meter)
        hit, value = cache.get_item("obj_v0001")
        assert (hit, value) == (False, None)
        fence = cache.fence()
        attrs = {"type": ("file",)}
        assert cache.put_item("obj_v0001", attrs, fence)
        hit, value = cache.get_item("obj_v0001")
        assert hit and value == attrs
        assert cache.hits == 1 and cache.misses == 1

    def test_own_invalidation_drops_the_entry(self, clock, meter):
        cache = authority(clock, meter)
        cache.put_item("a_v0001", {"k": ("v",)}, cache.fence())
        cache.invalidate("a_v0001")
        assert cache.get_item("a_v0001") == (False, None)
        assert cache.invalidations == 1

    def test_writes_to_other_items_do_not_disturb_it(self, clock, meter):
        cache = authority(clock, meter)
        cache.put_item("a_v0001", {"k": ("v",)}, cache.fence())
        cache.invalidate("b_v0001")
        hit, _ = cache.get_item("a_v0001")
        assert hit

    def test_age_out_past_the_staleness_bound(self, clock, meter):
        cache = authority(clock, meter, staleness=2.0)
        cache.put_item("a_v0001", {"k": ("v",)}, cache.fence())
        clock.advance(1.9)
        hit, _ = cache.get_item("a_v0001")
        assert hit
        assert cache.max_served_age == pytest.approx(1.9)
        clock.advance(0.2)
        assert cache.get_item("a_v0001") == (False, None)
        assert cache.entry_count() == 0  # dropped, not just skipped
        assert cache.max_served_age <= 2.0

    def test_fenced_fill_refused_after_any_invalidation(self, clock, meter):
        cache = authority(clock, meter)
        fence = cache.fence()
        cache.invalidate("other_v0001")
        assert not cache.put_item("a_v0001", {"k": ("v",)}, fence)
        assert cache.refused_fills == 1
        assert cache.get_item("a_v0001") == (False, None)

    def test_invalidate_many_bumps_generation_once(self, clock, meter):
        cache = authority(clock, meter)
        before = cache.generation
        cache.invalidate_many(["a_v0001", "b_v0001", "c_v0001"])
        assert cache.generation == before + 1
        assert cache.invalidations == 3
        cache.invalidate_many([])
        assert cache.generation == before + 1  # empty batch is free


class TestMemoEntries:
    def test_memo_round_trip(self, clock, meter):
        cache = authority(clock, meter)
        hit, value, fence = cache.memo_get(("q2", "blast"))
        assert not hit
        assert cache.memo_put(("q2", "blast"), fence, {"r1", "r2"}, 16)
        hit, value, _ = cache.memo_get(("q2", "blast"))
        assert hit and value == {"r1", "r2"}

    def test_any_invalidation_supersedes_memos(self, clock, meter):
        cache = authority(clock, meter)
        _, _, fence = cache.memo_get(("q2", "blast"))
        cache.memo_put(("q2", "blast"), fence, {"r"}, 8)
        cache.invalidate("unrelated_v0001")
        hit, _, _ = cache.memo_get(("q2", "blast"))
        assert not hit

    def test_memo_and_item_keys_never_collide(self, clock, meter):
        cache = authority(clock, meter)
        cache.put_item("x", {"k": ("v",)}, cache.fence())
        hit, _, _ = cache.memo_get(("x",))
        assert not hit


class TestLRUCapacity:
    def test_eviction_follows_recency_of_use(self, clock, meter):
        cache = authority(clock, meter, capacity=100)
        for name in ("a", "b"):
            cache.put_item(name, attrs_of(50), cache.fence())
        cache.get_item("a")  # refresh a: b becomes least recent
        cache.put_item("c", attrs_of(50), cache.fence())
        assert cache.get_item("a")[0]
        assert not cache.get_item("b")[0]
        assert cache.get_item("c")[0]
        assert cache.evictions == 1

    def test_stored_bytes_never_exceed_capacity(self, clock, meter):
        cache = authority(clock, meter, capacity=120)
        for index in range(10):
            cache.put_item(f"n{index}", attrs_of(40), cache.fence())
            assert cache.stored_nbytes() <= 120
        assert meter.stored_bytes(ELASTICACHE) == cache.stored_nbytes()

    def test_oversized_value_is_refused_not_thrashed(self, clock, meter):
        cache = authority(clock, meter, capacity=64)
        cache.put_item("small", attrs_of(32), cache.fence())
        assert not cache.put_item("huge", attrs_of(65), cache.fence())
        assert cache.refused_fills == 1
        assert cache.get_item("small")[0]  # nothing was evicted for it

    def test_refill_replaces_rather_than_doubles(self, clock, meter):
        cache = authority(clock, meter, capacity=100)
        cache.put_item("a", attrs_of(40), cache.fence())
        cache.put_item("a", attrs_of(60), cache.fence())
        assert cache.entry_count() == 1
        assert cache.stored_nbytes() == 60


class TestMetering:
    def test_consults_and_fills_are_metered_requests(self, clock, meter):
        cache = authority(clock, meter)
        cache.get_item("a")                                    # miss
        cache.put_item("a", attrs_of(30), cache.fence())       # fill
        cache.get_item("a")                                    # hit
        usage = meter.snapshot()
        assert usage.request_count(ELASTICACHE, "Get") == 2
        assert usage.request_count(ELASTICACHE, "Put") == 1
        assert usage.transfer_in(ELASTICACHE) == 30
        assert usage.transfer_out(ELASTICACHE) == 30

    def test_fence_and_invalidation_are_not_metered(self, clock, meter):
        cache = authority(clock, meter)
        before = meter.snapshot()
        cache.fence()
        cache.invalidate("a")
        cache.invalidate_many(["b", "c"])
        assert meter.snapshot() - before == billing.Usage.empty()

    def test_eviction_returns_node_memory_to_the_meter(self, clock, meter):
        cache = authority(clock, meter, capacity=100)
        cache.put_item("a", attrs_of(60), cache.fence())
        cache.put_item("b", attrs_of(60), cache.fence())  # evicts a
        assert meter.stored_bytes(ELASTICACHE) == 60
        cache.invalidate("b")
        assert meter.stored_bytes(ELASTICACHE) == 0

    def test_price_book_prices_cache_usage(self, clock, meter):
        cache = authority(clock, meter)
        cache.get_item("a")
        cache.put_item("a", attrs_of(30), cache.fence())
        clock.advance(3600.0)  # accrue node-memory byte-hours
        lines = dict(PriceBook().cost(meter.snapshot()).lines)
        assert lines["elasticache.requests"] > 0
        assert lines["elasticache.transfer.in"] > 0
        assert lines["elasticache.storage"] > 0


class TestWiring:
    def test_account_default_is_off_and_byte_identical(self):
        account = AWSAccount(seed=1, consistency=ConsistencyConfig.strong())
        assert account.read_cache is None

    def test_account_option_spec(self):
        account = AWSAccount(
            seed=1, consistency=ConsistencyConfig.strong(),
            read_cache="capacity=2048,staleness=1.5",
        )
        assert account.read_cache.capacity == 2048
        assert account.read_cache.staleness_bound == 1.5

    def test_simulation_and_fleet_pass_the_knob_through(self):
        from repro.fleet import ClientFleet
        from repro.sim import Simulation

        sim = Simulation(architecture="s3+simpledb", seed=1, read_cache="on")
        assert sim.account.read_cache is not None
        assert sim.query_engine().cache is sim.account.read_cache
        assert Simulation(architecture="s3+simpledb", seed=1).account.read_cache is None
        fleet = ClientFleet(architecture="s3+simpledb", n_clients=1, read_cache="on")
        assert fleet.account.read_cache is not None

    def test_cli_flag_grammar(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["demo"]).read_cache is None
        assert parser.parse_args(["demo", "--read-cache"]).read_cache == "on"
        assert (
            parser.parse_args(["demo", "--read-cache", "capacity=512"]).read_cache
            == "capacity=512"
        )


class TestMemoNodeMemory:
    """What the engine's scatter memos weigh in node memory (metered as
    ElastiCache storage): UTF-8 bytes of each ref's wire encoding, plus
    the type for a ``(ref, kind)`` match. Literals recorded when refs
    were still dataclasses, before they became tuples themselves."""

    @pytest.fixture
    def sim(self):
        from repro.sim import Simulation
        from repro.workloads import CombinedWorkload

        sim = Simulation(
            "s3+simpledb", seed=5, consistency=ConsistencyConfig.strong(),
            shards=2, read_cache="on", planner="off",
        )
        sim.store_events(CombinedWorkload().generate(seed=7, scale=0.3).events, collect=False)
        sim.settle()
        return sim

    def test_phase_sets_and_match_sets(self, sim):
        from repro.query.engine import _memo_nbytes

        engine = sim.query_engine()
        instances = engine._program_instances("blast")
        matches = engine._objects_with_inputs(instances)
        assert (len(instances), _memo_nbytes(instances)) == (7, 147)
        assert (len(matches), _memo_nbytes(matches)) == (7, 252)

    def test_stored_bytes_after_a_cached_q2(self, sim):
        engine = sim.query_engine()
        first = engine.q2_outputs_of("blast")
        assert (engine.cache.entry_count(), engine.cache.stored_nbytes()) == (2, 147 + 252)
        assert sim.account.meter.stored_bytes(ELASTICACHE) == 399
        again = engine.q2_outputs_of("blast")
        assert again.refs == first.refs and again.operations == 0
        assert engine.cache.stored_nbytes() == 399
