"""Unit tests for the SimpleDB query languages (bracket Query + SELECT)."""

import pytest

from repro.aws.sdb_query import (
    CompiledQuery,
    parse_query,
    parse_select,
    run_query,
)
from repro.errors import InvalidQueryExpression

ITEMS = [
    ("apple_1", {"type": ("file",), "color": ("red", "green"), "size": ("0005",)}),
    ("banana_1", {"type": ("file",), "color": ("yellow",), "size": ("0007",)}),
    ("blast_1", {"type": ("process",), "name": ("blast",)}),
    ("cherry_1", {"type": ("file",), "color": ("red",), "size": ("0002",)}),
]


def names(query: CompiledQuery) -> list[str]:
    return [name for name, _ in run_query(ITEMS, query)]


class TestBracketLanguage:
    def test_empty_matches_all(self):
        assert names(parse_query(None)) == [n for n, _ in ITEMS]
        assert names(parse_query("   ")) == [n for n, _ in ITEMS]

    def test_equality(self):
        assert names(parse_query("['color' = 'red']")) == ["apple_1", "cherry_1"]

    def test_multivalue_any_semantics(self):
        # apple has color {red, green}: matches green too.
        assert "apple_1" in names(parse_query("['color' = 'green']"))

    def test_or_within_predicate(self):
        query = parse_query("['color' = 'yellow' or 'color' = 'green']")
        assert names(query) == ["apple_1", "banana_1"]

    def test_and_within_predicate_is_range(self):
        query = parse_query("['size' > '0002' and 'size' < '0007']")
        assert names(query) == ["apple_1"]

    def test_and_requires_single_value_satisfying_both(self):
        # No single color is both red and green.
        query = parse_query("['color' = 'red' and 'color' = 'green']")
        assert names(query) == []

    def test_cross_attribute_in_one_bracket_rejected(self):
        with pytest.raises(InvalidQueryExpression):
            parse_query("['color' = 'red' and 'type' = 'file']")

    def test_intersection(self):
        query = parse_query("['type' = 'file'] intersection ['color' = 'red']")
        assert names(query) == ["apple_1", "cherry_1"]

    def test_union(self):
        query = parse_query("['name' = 'blast'] union ['color' = 'yellow']")
        assert names(query) == ["banana_1", "blast_1"]

    def test_not(self):
        query = parse_query("not ['type' = 'process']")
        assert names(query) == ["apple_1", "banana_1", "cherry_1"]

    def test_starts_with(self):
        query = parse_query("['color' starts-with 're']")
        assert names(query) == ["apple_1", "cherry_1"]

    def test_missing_attribute_never_matches(self):
        assert names(parse_query("['name' != 'x']")) == ["blast_1"]

    def test_inequalities(self):
        assert names(parse_query("['size' >= '0005']")) == ["apple_1", "banana_1"]
        assert names(parse_query("['size' <= '0002']")) == ["cherry_1"]

    def test_sort(self):
        query = parse_query("['type' = 'file'] sort 'size' desc")
        assert names(query) == ["banana_1", "apple_1", "cherry_1"]

    def test_parenthesised_set_expression(self):
        query = parse_query(
            "(['color' = 'red'] union ['color' = 'yellow']) "
            "intersection ['type' = 'file']"
        )
        assert names(query) == ["apple_1", "banana_1", "cherry_1"]

    @pytest.mark.parametrize(
        "bad",
        [
            "['a' = ",
            "['a' ~ 'b']",
            "'a' = 'b'",
            "['a' = 'b'] intersect ['c' = 'd'] garbage",
            "[]",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(InvalidQueryExpression):
            parse_query(bad)

    def test_quote_escaping(self):
        query = parse_query("['name' = 'o''brien']")
        items = [("x", {"name": ("o'brien",)})]
        assert [n for n, _ in run_query(items, query)] == ["x"]


class TestSelect:
    def test_basic(self):
        statement = parse_select("select * from d where type = 'file'")
        assert statement.domain == "d"
        assert statement.projection == ("*",)
        assert [n for n, _ in run_query(ITEMS, statement.query)] == [
            "apple_1", "banana_1", "cherry_1",
        ]

    def test_and_or_not(self):
        statement = parse_select(
            "select * from d where type = 'file' and not color = 'red'"
        )
        assert [n for n, _ in run_query(ITEMS, statement.query)] == ["banana_1"]

    def test_in_list(self):
        statement = parse_select(
            "select * from d where color in ('yellow', 'green')"
        )
        assert [n for n, _ in run_query(ITEMS, statement.query)] == [
            "apple_1", "banana_1",
        ]

    def test_between(self):
        statement = parse_select(
            "select * from d where size between '0003' and '0008'"
        )
        assert [n for n, _ in run_query(ITEMS, statement.query)] == [
            "apple_1", "banana_1",
        ]

    def test_like(self):
        statement = parse_select("select * from d where name like 'bla%'")
        assert [n for n, _ in run_query(ITEMS, statement.query)] == ["blast_1"]

    def test_is_null_and_not_null(self):
        null_q = parse_select("select * from d where name is null").query
        assert "blast_1" not in [n for n, _ in run_query(ITEMS, null_q)]
        not_null = parse_select("select * from d where name is not null").query
        assert [n for n, _ in run_query(ITEMS, not_null)] == ["blast_1"]

    def test_every_requires_all_values(self):
        statement = parse_select("select * from d where every(color) = 'red'")
        # apple has {red, green}: not every value is red; cherry qualifies.
        assert [n for n, _ in run_query(ITEMS, statement.query)] == ["cherry_1"]

    def test_order_and_limit(self):
        statement = parse_select(
            "select * from d where type = 'file' order by size desc limit 2"
        )
        assert statement.limit == 2
        ordered = [n for n, _ in run_query(ITEMS, statement.query)]
        assert ordered[:2] == ["banana_1", "apple_1"]

    def test_count_star(self):
        statement = parse_select("select count(*) from d where type = 'file'")
        assert statement.is_count

    def test_parentheses(self):
        statement = parse_select(
            "select * from d where (color = 'red' or color = 'yellow') "
            "and size >= '0005'"
        )
        assert [n for n, _ in run_query(ITEMS, statement.query)] == [
            "apple_1", "banana_1",
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            "update d set a = 'b'",
            "select from d",
            "select * where a = 'b'",
            "select * from d where a like '%suffix'",
            "select * from d limit many",
            "select * from d limit 0",
            "select * from d limit -1",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(InvalidQueryExpression):
            parse_select(bad)
