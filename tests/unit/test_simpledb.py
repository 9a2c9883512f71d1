"""Unit tests for the SimpleDB simulator."""

import pytest

from repro import errors
from repro.aws import billing
from repro.aws.sdb_query import parse_query
from repro.aws.simpledb import Attribute
from repro.units import KB
from tests.oracles import store_names


@pytest.fixture
def sdb(strong_account):
    strong_account.simpledb.create_domain("d")
    return strong_account.simpledb


class TestDomains:
    def test_create_is_idempotent(self, sdb):
        sdb.create_domain("d")
        assert "d" in store_names(sdb)

    def test_missing_domain_rejected(self, sdb):
        with pytest.raises(errors.NoSuchDomain):
            sdb.put_attributes("nope", "item", [("a", "1")])

    def test_delete_domain(self, sdb):
        sdb.put_attributes("d", "i", [("a", "1")])
        sdb.delete_domain("d")
        assert "d" not in store_names(sdb)


class TestPutGetAttributes:
    def test_roundtrip(self, sdb):
        sdb.put_attributes("d", "foo_2", [("input", "bar:2"), ("type", "file")])
        attrs = sdb.get_attributes("d", "foo_2")
        assert attrs == {"input": ("bar:2",), "type": ("file",)}

    def test_multivalued_attributes(self, sdb):
        """§2.2: an item can have multiple attributes with the same name."""
        sdb.put_attributes("d", "i", [("phone", "111"), ("phone", "222")])
        assert set(sdb.get_attributes("d", "i")["phone"]) == {"111", "222"}

    def test_put_accumulates_without_replace(self, sdb):
        sdb.put_attributes("d", "i", [("a", "1")])
        sdb.put_attributes("d", "i", [("a", "2")])
        assert set(sdb.get_attributes("d", "i")["a"]) == {"1", "2"}

    def test_replace_clears_previous_values(self, sdb):
        sdb.put_attributes("d", "i", [("a", "1"), ("a", "2")])
        sdb.put_attributes("d", "i", [Attribute("a", "3", replace=True)])
        assert sdb.get_attributes("d", "i")["a"] == ("3",)

    def test_put_is_idempotent(self, sdb):
        """§2.2: running PutAttributes multiple times is not an error."""
        attrs = [("a", "1"), ("b", "2")]
        sdb.put_attributes("d", "i", attrs)
        sdb.put_attributes("d", "i", attrs)
        assert sdb.get_attributes("d", "i") == {"a": ("1",), "b": ("2",)}

    def test_value_size_limit(self, sdb):
        with pytest.raises(errors.AttributeValueTooLong):
            sdb.put_attributes("d", "i", [("a", "v" * (KB + 1))])

    def test_value_at_limit_accepted(self, sdb):
        sdb.put_attributes("d", "i", [("a", "v" * KB)])

    def test_attrs_per_call_limit(self, sdb):
        """§4.2: 'SimpleDB allows us to store only 100 attributes per call'."""
        too_many = [(f"a{i}", "v") for i in range(101)]
        with pytest.raises(errors.NumberSubmittedAttributesExceeded):
            sdb.put_attributes("d", "i", too_many)
        sdb.put_attributes("d", "i", too_many[:100])

    def test_attrs_per_item_limit(self, sdb):
        """§2.2: 'a maximum of 256 attribute-value pairs' per item."""
        for start in range(0, 256, 64):
            sdb.put_attributes(
                "d", "i", [(f"a{start + i}", "v") for i in range(64)]
            )
        with pytest.raises(errors.NumberItemAttributesExceeded):
            sdb.put_attributes("d", "i", [("overflow", "v")])

    def test_get_missing_item_returns_empty(self, sdb):
        assert sdb.get_attributes("d", "ghost") == {}

    def test_get_attribute_subset(self, sdb):
        sdb.put_attributes("d", "i", [("a", "1"), ("b", "2"), ("c", "3")])
        assert sdb.get_attributes("d", "i", ["a", "c"]) == {
            "a": ("1",),
            "c": ("3",),
        }


class TestDeleteAttributes:
    def test_delete_whole_item(self, sdb):
        sdb.put_attributes("d", "i", [("a", "1")])
        sdb.delete_attributes("d", "i")
        assert sdb.get_attributes("d", "i") == {}

    def test_delete_named_attribute(self, sdb):
        sdb.put_attributes("d", "i", [("a", "1"), ("b", "2")])
        sdb.delete_attributes("d", "i", ["a"])
        assert sdb.get_attributes("d", "i") == {"b": ("2",)}

    def test_delete_specific_value(self, sdb):
        sdb.put_attributes("d", "i", [("a", "1"), ("a", "2")])
        sdb.delete_attributes("d", "i", [("a", "1")])
        assert sdb.get_attributes("d", "i")["a"] == ("2",)

    def test_delete_is_idempotent(self, sdb):
        """§2.2: DeleteAttributes repeated 'will not generate an error'."""
        sdb.delete_attributes("d", "ghost")
        sdb.put_attributes("d", "i", [("a", "1")])
        sdb.delete_attributes("d", "i", ["a"])
        sdb.delete_attributes("d", "i", ["a"])

    def test_item_vanishes_when_last_attribute_deleted(self, sdb):
        sdb.put_attributes("d", "i", [("a", "1")])
        sdb.delete_attributes("d", "i", [("a", "1")])
        assert sdb.item_count("d") == 0


class TestQuery:
    @pytest.fixture
    def populated(self, sdb):
        sdb.put_attributes("d", "foo_1", [("type", "file"), ("ver", "0001")])
        sdb.put_attributes("d", "foo_2", [("type", "file"), ("ver", "0002"),
                                          ("input", "proc/blast.1:v0001")])
        sdb.put_attributes("d", "blast_1", [("type", "process"), ("name", "blast")])
        return sdb

    def test_query_all(self, populated):
        result = populated.query("d")
        assert result.item_names == ("blast_1", "foo_1", "foo_2")

    def test_query_predicate(self, populated):
        result = populated.query("d", "['type' = 'file']")
        assert result.item_names == ("foo_1", "foo_2")

    def test_query_intersection(self, populated):
        result = populated.query(
            "d", "['type' = 'process'] intersection ['name' = 'blast']"
        )
        assert result.item_names == ("blast_1",)

    def test_query_with_attributes_projection(self, populated):
        result = populated.query_with_attributes(
            "d", "['type' = 'file']", attribute_names=["ver"]
        )
        assert dict(result.items)["foo_2"] == {"ver": ("0002",)}

    def test_query_pagination(self, sdb):
        for i in range(600):
            sdb.put_attributes("d", f"item_{i:04d}", [("a", "v")])
        page1 = sdb.query("d")
        assert len(page1.item_names) == 250  # the 2009 page limit
        page2 = sdb.query("d", next_token=page1.next_token)
        page3 = sdb.query("d", next_token=page2.next_token)
        assert page3.next_token is None
        total = len(page1.item_names) + len(page2.item_names) + len(page3.item_names)
        assert total == 600

    @pytest.mark.parametrize("api", ["query", "query_with_attributes"])
    def test_page_size_below_one_rejected_unmetered(self, populated, strong_account, api):
        before = strong_account.meter.snapshot()
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_items must be >= 1"):
                getattr(populated, api)("d", None, max_items=bad)
        spent = strong_account.meter.snapshot() - before
        assert spent.request_count(billing.SDB) == 0
        assert spent.box_usage_hours == 0

    def test_bad_next_token(self, populated):
        with pytest.raises(errors.InvalidNextToken):
            populated.query("d", next_token="garbage")

    @pytest.mark.parametrize("api", ["query", "query_with_attributes"])
    @pytest.mark.parametrize("page_size", [1, 2, 3])
    def test_a_walk_pages_each_matching_row_once_in_name_order(self, sdb, api, page_size):
        """Items written out of name order, one of them not matching:
        every page resumes past the last name served, so the walk yields
        each match once, in name order, whatever the page size."""
        for name, k in zip("dbca", "3120"):
            sdb.put_attributes("d", name, [("k", k)])
        sdb.put_attributes("d", "bb", [("other", "x")])
        seen, token = [], None
        while True:
            page = getattr(sdb, api)(
                "d", "['k' >= '0']", max_items=page_size, next_token=token
            )
            seen += page.item_names
            token = page.next_token
            if token is None:
                break
        assert seen == ["a", "b", "c", "d"]

    @pytest.mark.parametrize(
        "bad", ["", "before:foo_1", "AFTER:foo_1", "after-key:[0, 1]"]
    )
    def test_a_token_the_service_does_not_mint_is_malformed(self, populated, bad):
        with pytest.raises(errors.InvalidNextToken):
            populated.query("d", "['type' = 'file']", next_token=bad)

    def test_a_sort_clause_and_a_sort_key_token_are_malformed(self, populated):
        """Rows come in name order only: a trailing ``sort`` clause is a
        malformed expression, and a token naming a sort key instead of
        an item name is a malformed token."""
        with pytest.raises(errors.InvalidQueryExpression):
            parse_query("['a' = 'b'] sort 'a'")
        with pytest.raises(errors.InvalidQueryExpression):
            populated.query("d", "['type' = 'file'] sort 'ver'")
        for bad in ("after-key:", 'after-key:["0001", "foo_1"]'):
            with pytest.raises(errors.InvalidNextToken):
                populated.query("d", "['type' = 'file']", next_token=bad)


class TestEventualConsistency:
    def test_fresh_item_may_be_missing_from_query(self, eventual_account):
        """§2.2: an inserted item 'might not be returned in a query that
        is run immediately after the insert'."""
        sdb = eventual_account.simpledb
        sdb.create_domain("e")
        missing = 0
        for i in range(30):
            sdb.put_attributes("e", f"i{i}", [("a", "v")])
            if f"i{i}" not in sdb.query("e").item_names:
                missing += 1
        assert missing > 0
        eventual_account.quiesce()
        assert len(sdb.query("e").item_names) == 30
