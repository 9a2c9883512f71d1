"""Unit tests: composite hash+range GSIs and the cost-based planner.

What the tentpole adds below the engines, pinned piece by piece:

* **grammar** — ``"hash/range"`` specs parse into composite
  :class:`IndexSpec` forms (``+*`` = ALL projection) and coexist with
  the plain single-key forms;
* **range Queries** — a ``range_condition`` serves exactly the
  partition slice, in range order, billed on the distinct
  ``dynamodb-gsi-range`` key; malformed conditions and plain indexes
  reject it;
* **statistics** — ``describe_table`` histograms (per-key and
  per-range-value entry counts *and exact byte totals*) are maintained
  incrementally through puts and deletes — the planner's cost model
  never samples;
* **planner plumbing** — mode resolution (``None`` is off) and
  validation;
* **version_history** — with a fresh composite ``(name, nonce)`` ALL
  index, the revision chain is one paged range Query: identical bundle
  list, strictly fewer metered read operations than the per-version
  probe loop (the regression the satellite demands).
"""

from __future__ import annotations

import pytest

from repro.aws import billing
from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.backend import parse_index_specs
from repro.passlib.capture import PassSystem
from repro.query.planner import resolve_planner
from repro.sim import Simulation


@pytest.fixture
def ddb():
    account = AWSAccount(seed=7, consistency=ConsistencyConfig.strong())
    account.dynamodb.create_table("t")
    account.dynamodb.create_index("t", parse_index_specs("k/r+*")[0])
    for i in range(6):
        account.dynamodb.update_item(
            "t", f"item{i}", [("k", "part"), ("r", f"{i:04d}"), ("payload", "x" * 8)]
        )
    return account


class TestCompositeGrammar:
    def test_hash_range_spec_parses(self):
        composite, plain = parse_index_specs("name/nonce+*,name")
        assert composite.name == "gsi-name-nonce"
        assert composite.key_attribute == "name"
        assert composite.range_attribute == "nonce"
        assert composite.project_all
        assert plain.range_attribute is None

    def test_composite_without_projection_keeps_default_include(self):
        (spec,) = parse_index_specs("type/nonce")
        assert spec.name == "gsi-type-nonce"
        assert spec.range_attribute == "nonce"
        assert not spec.project_all
        assert spec.include == ("type",)


class TestRangeQueries:
    def test_between_serves_the_slice_in_range_order(self, ddb):
        result = ddb.dynamodb.query_index(
            "t", "gsi-k-r", ["part"], range_condition=("between", "0001", "0003")
        )
        assert [name for name, _ in result.entries] == ["item1", "item2", "item3"]
        assert all(attrs["r"] for _, attrs in result.entries)

    @pytest.mark.parametrize(
        "condition,expected",
        [
            ((">=", "0004"), ["item4", "item5"]),
            (("<=", "0000"), ["item0"]),
            ((">", "0004"), ["item5"]),
            (("<", "0001"), ["item0"]),
        ],
    )
    def test_open_conditions(self, ddb, condition, expected):
        result = ddb.dynamodb.query_index(
            "t", "gsi-k-r", ["part"], range_condition=condition
        )
        assert [name for name, _ in result.entries] == expected

    def test_range_query_bills_the_distinct_gsi_range_key(self, ddb):
        before = ddb.meter.snapshot()
        ddb.dynamodb.query_index(
            "t", "gsi-k-r", ["part"], range_condition=(">=", "0002")
        )
        spent = ddb.meter.snapshot() - before
        assert spent.request_count(billing.DDB_GSI_RANGE, "Query") == 1
        assert spent.request_count(billing.DDB_GSI) == 0
        assert spent.read_units(billing.DDB_GSI_RANGE) > 0
        lines = dict(ddb.prices.cost(spent).lines)
        assert lines["dynamodb.gsi.range.read_units"] > 0

    def test_plain_index_rejects_range_condition(self, ddb):
        ddb.dynamodb.create_index("t", parse_index_specs("k")[0])
        with pytest.raises(ValueError, match="no range key"):
            ddb.dynamodb.query_index(
                "t", "gsi-k", ["part"], range_condition=(">=", "0002")
            )

    def test_malformed_conditions_rejected(self, ddb):
        for condition in (("~=", "x"), ("between", "a"), (">=",)):
            with pytest.raises(ValueError):
                ddb.dynamodb.query_index(
                    "t", "gsi-k-r", ["part"], range_condition=condition
                )


class TestIncrementalStatistics:
    def index_stats(self, account):
        return account.dynamodb.describe_table("t")["indexes"]["gsi-k-r"]

    def test_histograms_cover_every_entry_exactly(self, ddb):
        stats = self.index_stats(ddb)
        assert stats["range_attribute"] == "r"
        assert stats["key_counts"] == {"part": 6}
        assert stats["range_counts"] == {f"{i:04d}": 1 for i in range(6)}
        assert stats["key_bytes"]["part"] == stats["entry_bytes"]
        assert sum(stats["range_bytes"].values()) == stats["entry_bytes"]

    def test_deletes_shrink_the_histograms(self, ddb):
        ddb.dynamodb.delete_item("t", "item3")
        stats = self.index_stats(ddb)
        assert stats["key_counts"] == {"part": 5}
        assert "0003" not in stats["range_counts"]
        assert "0003" not in stats["range_bytes"]
        assert stats["key_bytes"]["part"] == stats["entry_bytes"]

    def test_growth_updates_bytes_but_not_counts(self, ddb):
        before = self.index_stats(ddb)
        ddb.dynamodb.update_item("t", "item2", [("payload", "y" * 40)])
        after = self.index_stats(ddb)
        assert after["key_counts"] == before["key_counts"]
        assert after["range_counts"] == before["range_counts"]
        assert after["key_bytes"]["part"] > before["key_bytes"]["part"]
        assert after["range_bytes"]["0002"] > before["range_bytes"]["0002"]

    def test_describe_table_is_metered_as_one_request(self, ddb):
        before = ddb.meter.snapshot()
        ddb.dynamodb.describe_table("t")
        spent = ddb.meter.snapshot() - before
        assert spent.request_count(billing.DDB, "DescribeTable") == 1


class TestPlannerResolution:
    def test_explicit_modes(self):
        assert resolve_planner("first-fit") == "first-fit"
        assert resolve_planner("COST") == "cost"

    def test_default_and_disabled_spellings(self):
        assert resolve_planner(None) == "off"
        assert resolve_planner("") == "off"
        assert resolve_planner("none") == "off"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown planner mode"):
            resolve_planner("greedy")


def revision_trace(n_versions=5):
    pas = PassSystem(workload="revisions")
    for i in range(n_versions):
        with pas.process("editor", argv=f"--rev {i}") as proc:
            proc.write("doc", f"v{i}".encode())
            proc.close("doc")
    return pas.drain_flushes()


class TestVersionHistoryIndexedPath:
    """The satellite regression: composite (name, nonce) ALL index →
    identical bundle list, strictly fewer metered read operations."""

    def loaded(self, ddb_indexes):
        sim = Simulation(
            architecture="s3+simpledb",
            seed=3,
            shards=1,
            placement="ddb",
            ddb_indexes=ddb_indexes,
        )
        sim.store_events(revision_trace(), collect=False)
        return sim

    def test_indexed_path_identical_and_strictly_cheaper(self):
        indexed_sim = self.loaded("name/nonce+*,name,input")
        probe_sim = self.loaded("name,input")

        def history_with_ops(sim):
            before = sim.account.meter.snapshot()
            history = sim.store.version_history("doc")
            spent = sim.account.meter.snapshot() - before
            return history, spent

        indexed, indexed_spent = history_with_ops(indexed_sim)
        probed, probe_spent = history_with_ops(probe_sim)

        assert [b.subject for b in indexed] == [b.subject for b in probed]
        assert [set(b.records) for b in indexed] == [
            set(b.records) for b in probed
        ]
        assert [b.subject.version for b in indexed] == [1, 2, 3, 4, 5]

        assert indexed_spent.request_count() < probe_spent.request_count()
        # The chain is served off the range index, not per-version reads.
        assert indexed_spent.request_count(billing.DDB_GSI_RANGE, "Query") >= 1
        assert indexed_spent.request_count(billing.DDB, "GetItem") == 0
        assert probe_spent.request_count(billing.DDB, "GetItem") > 5

    def test_scan_fallback_preserved_without_composite_index(self):
        probe_sim = self.loaded("name,input")
        history = probe_sim.store.version_history("doc")
        assert [b.subject.version for b in history] == [1, 2, 3, 4, 5]
