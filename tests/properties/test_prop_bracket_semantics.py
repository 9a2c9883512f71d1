"""Property tests: the bracket Query language's per-value semantics.

A bracket names one attribute, and its comparisons bind one *value* of
it: ``or`` inside a bracket is a union of brackets, ``and`` inside one
is a range on a single value — which equals the intersection of two
brackets only where the attribute holds one value. The compiled
matcher is checked against the interpretive oracle throughout.
"""

from hypothesis import given, settings, strategies as st

from repro.aws.sdb_query import matching, parse_query
from tests.oracles import reference_rows

attr_names = st.sampled_from(["type", "name", "ver"])
attr_values = st.text(alphabet="abc12", min_size=1, max_size=4)

items_strategy = st.dictionaries(
    keys=st.text(alphabet="wxyz", min_size=1, max_size=4),
    values=st.dictionaries(
        keys=attr_names,
        values=st.lists(attr_values, min_size=1, max_size=3).map(tuple),
        min_size=0,
        max_size=3,
    ),
    min_size=0,
    max_size=10,
).map(lambda d: sorted(d.items()))

single_valued_items = st.dictionaries(
    keys=st.text(alphabet="wxyz", min_size=1, max_size=4),
    values=st.dictionaries(
        keys=attr_names,
        values=attr_values.map(lambda v: (v,)),
        min_size=0,
        max_size=3,
    ),
    min_size=0,
    max_size=10,
).map(lambda d: sorted(d.items()))


def served(items, expression):
    return [n for n, _ in matching(items, parse_query(expression))]


def reference(items, expression):
    return [n for n, _ in reference_rows(items, parse_query(expression))]


@settings(max_examples=80, deadline=None)
@given(items=items_strategy, attribute=attr_names, value=attr_values)
def test_equality_agrees_with_the_reference(items, attribute, value):
    expression = f"['{attribute}' = '{value}']"
    assert served(items, expression) == reference(items, expression)
    assert served(items, expression) == [
        n for n, attrs in items if value in attrs.get(attribute, ())
    ]


@settings(max_examples=80, deadline=None)
@given(
    items=items_strategy,
    a1=attr_names,
    v1=attr_values,
    a2=attr_names,
    v2=attr_values,
)
def test_intersection_agrees_with_the_reference(items, a1, v1, a2, v2):
    expression = f"['{a1}' = '{v1}'] intersection ['{a2}' = '{v2}']"
    assert served(items, expression) == reference(items, expression)


@settings(max_examples=80, deadline=None)
@given(
    items=items_strategy,
    attribute=attr_names,
    v1=attr_values,
    v2=attr_values,
)
def test_or_within_predicate_is_a_union_of_predicates(items, attribute, v1, v2):
    within = f"['{attribute}' = '{v1}' or '{attribute}' = '{v2}']"
    across = f"['{attribute}' = '{v1}'] union ['{attribute}' = '{v2}']"
    assert served(items, within) == served(items, across) == reference(items, within)


@settings(max_examples=80, deadline=None)
@given(items=items_strategy, attribute=attr_names, value=attr_values)
def test_not_agrees_with_the_reference(items, attribute, value):
    expression = f"not ['{attribute}' = '{value}']"
    assert served(items, expression) == reference(items, expression)


@settings(max_examples=80, deadline=None)
@given(items=single_valued_items, attribute=attr_names, lo=attr_values, hi=attr_values)
def test_range_within_predicate_is_an_intersection_single_valued(
    items, attribute, lo, hi
):
    """On single-valued attributes a bracket range equals the
    intersection of its two bounds; on multi-valued ones the two differ
    — see ``test_range_within_predicate_binds_one_value``."""
    if lo > hi:
        lo, hi = hi, lo
    within = f"['{attribute}' >= '{lo}' and '{attribute}' <= '{hi}']"
    across = f"['{attribute}' >= '{lo}'] intersection ['{attribute}' <= '{hi}']"
    assert served(items, within) == served(items, across) == reference(items, within)


def test_range_within_predicate_binds_one_value():
    """Values {a, z}: a distinct value satisfies each bound, so the
    intersection of the bounds matches, but no single value lies inside
    the bracket range."""
    items = [("w", {"ver": ("a", "z")})]
    assert served(items, "['ver' >= 'b' and 'ver' <= 'y']") == []
    assert served(items, "['ver' >= 'b'] intersection ['ver' <= 'y']") == ["w"]


@settings(max_examples=60, deadline=None)
@given(items=items_strategy, attribute=attr_names, prefix=attr_values)
def test_starts_with_is_a_prefix_test_on_some_value(items, attribute, prefix):
    expression = f"['{attribute}' starts-with '{prefix}']"
    assert served(items, expression) == reference(items, expression)
    assert served(items, expression) == [
        n
        for n, attrs in items
        if any(v.startswith(prefix) for v in attrs.get(attribute, ()))
    ]
