"""Unit tests for the SimpleDB bracket Query language."""

import pytest

from repro.aws.sdb_query import CompiledQuery, matching, parse_query
from repro.errors import InvalidQueryExpression

ITEMS = [
    ("apple_1", {"type": ("file",), "color": ("red", "green"), "size": ("0005",)}),
    ("banana_1", {"type": ("file",), "color": ("yellow",), "size": ("0007",)}),
    ("blast_1", {"type": ("process",), "name": ("blast",)}),
    ("cherry_1", {"type": ("file",), "color": ("red",), "size": ("0002",)}),
]


def names(query: CompiledQuery) -> list[str]:
    return [name for name, _ in matching(ITEMS, query)]


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

    def test_intersection_with_a_negated_predicate(self):
        query = parse_query("['type' = 'file'] intersection not ['color' = 'red']")
        assert names(query) == ["banana_1"]

    def test_or_chain_within_predicate(self):
        query = parse_query(
            "['color' = 'yellow' or 'color' = 'green' or 'color' = 'blue']"
        )
        assert names(query) == ["apple_1", "banana_1"]

    def test_closed_range_within_predicate(self):
        query = parse_query("['size' >= '0003' and 'size' <= '0008']")
        assert names(query) == ["apple_1", "banana_1"]

    def test_does_not_start_with(self):
        # apple's green does not start with 're', so apple matches too.
        query = parse_query("['color' does-not-start-with 're']")
        assert names(query) == ["apple_1", "banana_1"]

    def test_not_keeps_items_missing_the_attribute(self):
        assert names(parse_query("not ['name' = 'blast']")) == [
            "apple_1", "banana_1", "cherry_1",
        ]
        # An empty prefix holds of every value: the holders of 'name'.
        assert names(parse_query("['name' starts-with '']")) == ["blast_1"]

    def test_every_value_is_a_match_minus_a_mismatch(self):
        # Some color is red and no color is anything else: cherry only.
        query = parse_query("['color' = 'red'] intersection not ['color' != 'red']")
        assert names(query) == ["cherry_1"]

    def test_double_negation(self):
        assert names(parse_query("not not ['type' = 'process']")) == ["blast_1"]

    def test_union_narrowed_by_a_range(self):
        query = parse_query(
            "(['color' = 'red'] union ['color' = 'yellow']) "
            "intersection ['size' >= '0005']"
        )
        assert names(query) == ["apple_1", "banana_1"]

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
            "['a' = 'b'] union",
            "not",
            "(['a' = 'b']",
            "['a' = 'b' or 'c' = 'd']",
            "['a' starts-with]",
            "['a' = 'b'], ['c' = 'd']",
            "['a' = 'b'] limit 2",
            "['a' = 'b'] ['c' = 'd']",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(InvalidQueryExpression):
            parse_query(bad)

    def test_quote_escaping(self):
        query = parse_query("['name' = 'o''brien']")
        items = [("x", {"name": ("o'brien",)})]
        assert [n for n, _ in matching(items, query)] == ["x"]

