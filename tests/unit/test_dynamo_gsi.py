"""Unit + fuzz tests for the DynamoDB-style global secondary indexes.

What must hold for GSI-served queries to be sound and honestly priced:

* maintenance — every base put/delete updates the index's entry space,
  asynchronously (the index converges on its own replica schedule) and
  sparsely (items lacking the key attribute have no entries);
* amplification — changed entries cost index write units; unchanged
  replays cost nothing; backfilling an index on a populated table is
  metered the same way;
* queries — batch key-value Query pages by the shared byte budget,
  returns projected entries only, always at eventual-read pricing;
* fallbacks — the backend adapter scans when no index fits a predicate
  (or the index lags past the staleness bound) and results never differ;
* convergence fuzz (mirroring ``test_sdb_query_fuzz``'s style) —
  interleaved puts/deletes/index-queries under eventual consistency
  never surface data that was never written, and quiescing converges
  the index to exactly what the base table implies.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import errors
from repro.aws import billing
from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.backend import DynamoBackend, parse_index_specs
from repro.aws.dynamo import IndexSpec
from repro.aws.sdb_query import parse_query
from repro.units import DDB_PAGE_BYTES


@pytest.fixture
def account():
    return AWSAccount(seed=7, consistency=ConsistencyConfig.strong())


@pytest.fixture
def ddb(account):
    account.dynamodb.create_table("t")
    account.dynamodb.create_index("t", IndexSpec("gsi-k", "k", include=("t",)))
    return account.dynamodb


class TestIndexSpecs:
    def test_parse_defaults_and_includes(self):
        specs = parse_index_specs("name,input")
        assert [s.name for s in specs] == ["gsi-name", "gsi-input"]
        assert all(s.include == ("type",) for s in specs)
        explicit = parse_index_specs("input+type+name")
        assert explicit[0].projected_attributes == {"input", "type", "name"}

    def test_parse_auto_off_and_passthrough(self):
        assert parse_index_specs("") == ()
        assert parse_index_specs("none") == ()
        auto = parse_index_specs("auto")
        assert {s.key_attribute for s in auto} == {"name", "input"}
        ready = (IndexSpec("i", "k"),)
        assert parse_index_specs(ready) == ready

    def test_parse_none_is_no_indexes(self):
        assert parse_index_specs() == ()
        assert parse_index_specs(None) == ()

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_index_specs("name,+type")


class TestMaintenance:
    def test_entries_track_puts_one_per_value(self, ddb):
        ddb.update_item("t", "item", [("k", "a"), ("k", "b"), ("t", "file")])
        entries = ddb.authoritative_index_entries("t", "gsi-k")
        assert set(entries) == {("a", "item"), ("b", "item")}
        assert entries[("a", "item")] == {"k": ("a", "b"), "t": ("file",)}

    def test_sparse_items_without_key_attribute(self, ddb):
        ddb.update_item("t", "plain", [("t", "file")])
        assert ddb.authoritative_index_entries("t", "gsi-k") == {}

    def test_projection_excludes_unlisted_attributes(self, ddb):
        ddb.update_item("t", "item", [("k", "a"), ("x", "secret")])
        entries = ddb.authoritative_index_entries("t", "gsi-k")
        assert entries[("a", "item")] == {"k": ("a",)}

    def test_replayed_put_amplifies_nothing(self, account, ddb):
        adds = [("k", "a"), ("t", "file")]
        ddb.update_item("t", "item", adds)
        before = account.meter.snapshot()
        ddb.update_item("t", "item", adds)
        spent = account.meter.snapshot() - before
        assert spent.write_units(billing.DDB_GSI) == 0.0

    def test_delete_removes_entries_and_charges(self, account, ddb):
        ddb.update_item("t", "item", [("k", "a"), ("k", "b")])
        stored = account.meter.stored_bytes(billing.DDB_GSI)
        assert stored > 0
        before = account.meter.snapshot()
        ddb.delete_item("t", "item")
        spent = account.meter.snapshot() - before
        assert spent.write_units(billing.DDB_GSI) >= 2.0  # one per entry
        assert ddb.authoritative_index_entries("t", "gsi-k") == {}
        assert account.meter.stored_bytes(billing.DDB_GSI) == 0

    def test_backfill_on_populated_table_is_metered(self, account):
        ddb = account.dynamodb
        ddb.create_table("late")
        for index in range(5):
            ddb.update_item("late", f"i{index}", [("k", "a"), ("t", "file")])
        before = account.meter.snapshot()
        backfill = ddb.create_index("late", IndexSpec("gsi-k", "k"))
        spent = account.meter.snapshot() - before
        assert backfill == spent.write_units(billing.DDB_GSI) == 5.0
        assert len(ddb.authoritative_index_entries("late", "gsi-k")) == 5
        # Re-creating is idempotent: no new charge, entries untouched.
        assert ddb.create_index("late", IndexSpec("gsi-k", "k")) == 0.0

    def test_delete_table_frees_index_storage(self, account, ddb):
        ddb.update_item("t", "item", [("k", "a")])
        ddb.create_index("t", IndexSpec("gsi-2", "k"))
        assert account.meter.stored_bytes(billing.DDB_GSI) > 0
        ddb.delete_table("t")
        assert account.meter.stored_bytes(billing.DDB_GSI) == 0

    def test_index_write_units_charge_admission_window(self, account):
        """An indexed table throttles sooner: base + index units share
        the provisioned write window (GSI back-pressure)."""
        ddb = account.dynamodb
        ddb.create_table("tiny", read_capacity=5, write_capacity=3)
        ddb.create_index("tiny", IndexSpec("gsi-k", "k"))
        ddb.update_item("tiny", "a", [("k", "v")])  # 1 base + 1 index unit
        with pytest.raises(errors.ProvisionedThroughputExceeded):
            ddb.update_item("tiny", "b", [("k", "v")])  # needs 2 more


class TestIndexQuery:
    def test_batch_values_dedup_is_callers_job(self, ddb):
        ddb.update_item("t", "multi", [("k", "a"), ("k", "b")])
        page = ddb.query_index("t", "gsi-k", ["a", "b"])
        # One entry per (value, item): the service does not deduplicate.
        assert [name for name, _ in page.entries] == ["multi", "multi"]

    def test_misses_still_cost_the_minimum_unit(self, account, ddb):
        before = account.meter.snapshot()
        page = ddb.query_index("t", "gsi-k", ["absent"])
        spent = account.meter.snapshot() - before
        assert page.entries == ()
        assert spent.read_units(billing.DDB_GSI) == 0.5
        assert spent.request_count(billing.DDB_GSI, "Query") == 1

    def test_pagination_walks_every_entry_once(self, ddb):
        wide = "x" * 600
        for index in range(40):
            ddb.update_item("t", f"i{index:02d}", [("k", "a"), ("t", wide)])
        seen, start, pages = [], None, 0
        while True:
            page = ddb.query_index("t", "gsi-k", ["a"], exclusive_start_key=start)
            seen.extend(name for name, _ in page.entries)
            pages += 1
            start = page.last_evaluated_key
            if start is None:
                break
        assert seen == [f"i{index:02d}" for index in range(40)]
        # ~700 B entries against the shared byte budget: several pages.
        assert pages >= (40 * 700) // DDB_PAGE_BYTES

    def test_query_reads_whole_partitions_in_value_order(self, ddb):
        """Hash values that prefix one another are separate partitions,
        several wanted values come back in value order whatever order
        they were asked in, and a token inside one partition resumes
        there and carries on into the next."""
        for name, value in [("i1", "a"), ("i2", "ab"), ("i3", "b"), ("i4", "a"),
                            ("", "a"), ("i5", "a\x01")]:
            ddb.update_item("t", name, [("k", value)])

        def names(page):
            return [name for name, _ in page.entries]

        assert names(ddb.query_index("t", "gsi-k", ["a"])) == ["", "i1", "i4"]
        assert names(ddb.query_index("t", "gsi-k", ["ab"])) == ["i2"]
        first = ddb.query_index("t", "gsi-k", ["b", "a", "b"], limit=2)
        assert names(first) == ["", "i1"]
        rest = ddb.query_index(
            "t", "gsi-k", ["b", "a"], exclusive_start_key=first.last_evaluated_key
        )
        assert (names(rest), rest.last_evaluated_key) == (["i4", "i3"], None)

    def test_unknown_index_and_empty_values_rejected(self, ddb):
        with pytest.raises(errors.NoSuchIndex):
            ddb.query_index("t", "nope", ["a"])
        with pytest.raises(ValueError):
            ddb.query_index("t", "gsi-k", [])

    def test_billing_lines_itemised(self, account, ddb):
        ddb.update_item("t", "item", [("k", "a")])
        ddb.query_index("t", "gsi-k", ["a"])
        cost = account.prices.cost(account.meter.snapshot())
        labels = {label for label, _ in cost.lines}
        assert {
            "dynamodb.gsi.read_units",
            "dynamodb.gsi.write_units",
            "dynamodb.gsi.transfer.out",
            "dynamodb.gsi.storage",
        } <= labels


class TestAdapterPlanning:
    def make_adapter(self, account, **kwargs):
        adapter = DynamoBackend(
            account.dynamodb, index_specs=(IndexSpec("gsi-k", "k", ("t",)),),
            **kwargs,
        )
        adapter.provision("p")
        return adapter

    def test_equality_predicate_served_by_index(self, account):
        adapter = self.make_adapter(account)
        adapter.put_provenance_item("p", "hit", [("k", "a"), ("t", "file")])
        adapter.put_provenance_item("p", "miss", [("k", "z"), ("t", "file")])
        before = account.meter.snapshot()
        rows = list(adapter.query_pages("p", "['k' = 'a']", ["t"]))
        spent = account.meter.snapshot() - before
        assert rows == [("hit", {"t": ("file",)})]
        assert adapter.gsi_queries == 1
        assert spent.request_count(billing.DDB, "Scan") == 0
        assert spent.request_count(billing.DDB_GSI, "Query") == 1

    def test_multivalued_match_deduplicated_by_adapter(self, account):
        adapter = self.make_adapter(account)
        adapter.put_provenance_item("p", "multi", [("k", "a"), ("k", "b")])
        rows = list(
            adapter.query_pages("p", "['k' = 'a' or 'k' = 'b']", ["t"])
        )
        assert [name for name, _ in rows] == ["multi"]
        assert adapter.gsi_queries == 1

    def test_full_projection_request_falls_back_to_scan(self, account):
        """wanted=None asks for every attribute — an INCLUDE projection
        cannot promise that, so the adapter scans."""
        adapter = self.make_adapter(account)
        adapter.put_provenance_item("p", "item", [("k", "a"), ("x", "1")])
        rows = list(adapter.query_pages("p", "['k' = 'a']", None))
        assert rows == [("item", {"k": ("a",), "x": ("1",)})]
        assert adapter.gsi_queries == 0 and adapter.scan_fallbacks == 1

    def test_non_equality_predicate_falls_back_to_scan(self, account):
        adapter = self.make_adapter(account)
        adapter.put_provenance_item("p", "item", [("k", "abc")])
        before = account.meter.snapshot()
        rows = list(
            adapter.query_pages("p", "['k' starts-with 'ab']", ["k"])
        )
        spent = account.meter.snapshot() - before
        assert [name for name, _ in rows] == ["item"]
        assert adapter.scan_fallbacks == 1
        assert spent.request_count(billing.DDB, "Scan") >= 1

    def test_projection_gap_falls_back_to_scan(self, account):
        adapter = self.make_adapter(account)
        adapter.put_provenance_item("p", "item", [("k", "a"), ("x", "1")])
        rows = list(adapter.query_pages("p", "['k' = 'a']", ["x"]))
        assert rows == [("item", {"x": ("1",)})]
        assert adapter.gsi_queries == 0 and adapter.scan_fallbacks == 1

    def test_intersection_predicate_uses_index_and_refilters(self, account):
        adapter = self.make_adapter(account)
        adapter.put_provenance_item("p", "good", [("k", "a"), ("t", "file")])
        adapter.put_provenance_item("p", "bad", [("k", "a"), ("t", "proc")])
        rows = list(
            adapter.query_pages(
                "p", "['k' = 'a'] intersection ['t' = 'file']", ["t"]
            )
        )
        assert [name for name, _ in rows] == ["good"]
        assert adapter.gsi_queries == 1

    def test_stale_entry_does_not_mask_the_items_fresh_entry(
        self, account, monkeypatch
    ):
        """An item holding two indexed values has two entries. When the
        first one's replica still carries the pre-update projection
        (failing the predicate) and the second has converged, the item
        must still be returned: entries are filtered by the predicate
        *before* they count as seen."""
        adapter = self.make_adapter(account)
        adapter.put_provenance_item("p", "item", [("k", "a"), ("t", "proc")])
        adapter.put_provenance_item("p", "item", [("k", "b"), ("t", "file")])
        serve = account.dynamodb.query_index

        def first_entry_lags(*args, **kwargs):
            page = serve(*args, **kwargs)
            (name, fresh), *rest = page.entries
            assert (name, fresh) == rest[0] == (
                "item", {"k": ("a", "b"), "t": ("file", "proc")}
            )
            stale = {"k": ("a",), "t": ("proc",)}
            return dataclasses.replace(page, entries=((name, stale), *rest))

        monkeypatch.setattr(account.dynamodb, "query_index", first_entry_lags)
        rows = list(
            adapter.query_pages(
                "p",
                "['k' = 'a' or 'k' = 'b'] intersection ['t' = 'file']",
                ["t"],
            )
        )
        assert rows == [("item", {"t": ("file", "proc")})]
        assert adapter.gsi_queries == 1

    def test_every_path_finds_a_match_split_across_values(self, account):
        """``['r' >= 'a'] intersection ['r' <= 'a']`` matches r = {'0',
        'b'}: each bracket holds of a different value. The range slice
        a composite-index path reads must not be the intersection of
        the two brackets' bounds, which no value of the item is in."""
        adapter = DynamoBackend(account.dynamodb, index_specs="k/r+*")
        adapter.provision("p")
        adapter.put_provenance_item("p", "split", [("k", "a"), ("r", "b"), ("r", "0")])
        expression = "['k' = 'a'] intersection ['r' >= 'a'] intersection ['r' <= 'a']"
        paths = adapter.candidate_paths("p", parse_query(expression), None)
        assert [path.kind for path in paths] == ["scan", "gsi", "gsi-range"]
        for path in paths:
            rows = adapter.query_pages("p", expression, None, path=path)
            assert [name for name, _ in rows] == ["split"], path.kind

    def test_results_identical_index_vs_scan(self, account):
        """Same items on an indexed and an unindexed table: the GSI
        access path and the scan path answer identically (indexes are a
        per-table property, so the split needs two tables)."""
        indexed = self.make_adapter(account)
        plain = DynamoBackend(account.dynamodb, index_specs="")
        plain.provision("q")
        for i in range(12):
            item = (f"i{i}", [("k", "ab"[i % 2]), ("t", "file")])
            indexed.put_provenance_item("p", *item)
            plain.put_provenance_item("q", *item)
        expression = "['k' = 'a']"
        assert list(indexed.query_pages("p", expression, ["t"])) == list(
            plain.query_pages("q", expression, ["t"])
        )
        assert indexed.gsi_queries == 1
        assert plain.gsi_queries == 0 and plain.scan_fallbacks == 0


class TestStalenessBound:
    def test_lagging_index_forces_scan_then_recovers(self):
        account = AWSAccount(
            seed=5,
            consistency=ConsistencyConfig.eventual(
                window=8.0, immediate_fraction=0.0
            ),
        )
        # Strongly consistent base reads: the point is that the *index*
        # is behind (index reads have no strong option), so the adapter
        # must prefer the scan while the lag exceeds the bound.
        adapter = DynamoBackend(
            account.dynamodb,
            consistent_reads=True,
            index_specs=(IndexSpec("gsi-k", "k", ("t",)),),
            index_staleness_bound=0.5,
        )
        adapter.provision("p")
        adapter.put_provenance_item("p", "item", [("k", "a"), ("t", "file")])
        assert account.dynamodb._index("p", "gsi-k").replicas.pending_installs > 0
        account.clock.advance(1.0)  # lag now exceeds the 0.5 s bound
        assert account.dynamodb.index_lag_seconds("p", "gsi-k") > 0.5
        rows = list(adapter.query_pages("p", "['k' = 'a']", ["t"]))
        assert [name for name, _ in rows] == ["item"]  # scan still answers
        assert adapter.stale_index_fallbacks == 1 and adapter.gsi_queries == 0
        account.quiesce()
        assert account.dynamodb.index_lag_seconds("p", "gsi-k") == 0.0
        list(adapter.query_pages("p", "['k' = 'a']", ["t"]))
        assert adapter.gsi_queries == 1

    def test_steady_write_stream_does_not_inflate_lag(self):
        """Lag is the age of the oldest *outstanding* install, not the
        length of the busy period: a steady write stream whose installs
        always overlap must report lag bounded by the delay window, so
        the staleness fallback never latches permanently."""
        account = AWSAccount(
            seed=9,
            consistency=ConsistencyConfig.eventual(
                window=1.0, immediate_fraction=0.0
            ),
        )
        ddb = account.dynamodb
        ddb.create_table("t")
        ddb.create_index("t", IndexSpec("gsi-k", "k"))
        for step in range(30):
            ddb.update_item("t", f"i{step}", [("k", "a")])
            account.clock.advance(0.4)
            assert ddb.index_lag_seconds("t", "gsi-k") <= 1.0 + 1e-9
        account.quiesce()
        assert ddb.index_lag_seconds("t", "gsi-k") == 0.0


# -- convergence fuzzing -----------------------------------------------------

_keys = st.sampled_from([f"item-{i}" for i in range(6)])
_values = st.sampled_from(["a", "b", "c"])


@st.composite
def interleavings(draw):
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("put"), _keys, _values, _values),
                st.tuples(st.just("delete"), _keys),
                st.tuples(st.just("query"), _values),
                st.tuples(st.just("advance"), st.floats(0.1, 2.0)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return ops


@settings(max_examples=60, deadline=None)
@given(ops=interleavings(), seed=st.integers(0, 10_000))
def test_gsi_fuzz_interleaved_ops_never_invent_data(ops, seed):
    """Under eventual index convergence, an index query may be stale —
    but everything it returns was once written, and after quiescence the
    index agrees exactly with the base table."""
    account = AWSAccount(
        seed=seed,
        consistency=ConsistencyConfig.eventual(window=3.0, immediate_fraction=0.3),
    )
    ddb = account.dynamodb
    ddb.create_table("t")
    ddb.create_index("t", IndexSpec("gsi-k", "k", include=("t",)))
    ever_added: dict[str, set[tuple[str, str]]] = {}
    for op in ops:
        if op[0] == "put":
            _, key, k_value, t_value = op
            ddb.update_item("t", key, [("k", k_value), ("t", t_value)])
            ever_added.setdefault(key, set()).update(
                {("k", k_value), ("t", t_value)}
            )
        elif op[0] == "delete":
            ddb.delete_item("t", op[1])
        elif op[0] == "query":
            page = ddb.query_index("t", "gsi-k", [op[1]])
            for item_name, attrs in page.entries:
                assert item_name in ever_added, "index invented an item"
                for attribute, values in attrs.items():
                    for value in values:
                        assert (attribute, value) in ever_added[item_name], (
                            f"index invented {attribute}={value!r} "
                            f"for {item_name}"
                        )
        else:
            account.clock.advance(op[1])

    account.quiesce()
    # Convergence: for every key value, the index answers exactly what
    # the base table's authoritative state implies.
    for value in ("a", "b", "c"):
        page = ddb.query_index("t", "gsi-k", [value])
        got = dict(page.entries)
        expected = {}
        for item_name in ddb.authoritative_item_names("t"):
            state = ddb.authoritative_item("t", item_name)
            if value in state.get("k", ()):
                expected[item_name] = {
                    a: v for a, v in state.items() if a in ("k", "t")
                }
        assert got == expected
    assert ddb._index("t", "gsi-k").replicas.is_converged()
