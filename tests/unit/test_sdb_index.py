"""SimpleDB's attribute index ≡ a replica scan, differentially.

The service answers a query from its postings when the drawn replica
provably equals the authoritative state and the predicate pins an
attribute, and scans the replica otherwise; either way a page resumes
at its token. Both must return exactly what the pre-index service did:
filter the visible items, in name order, with the *interpretive*
matcher, which lives on in ``tests/oracles.py`` (``reference_matches``)
as the oracle for the compiled closures too, then drop every row up to
the token.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.sdb_query import CompiledQuery, parse_query
from repro.aws.simpledb import Attribute
from tests.oracles import reference_matches, reference_rows

from test_sdb_query_fuzz import _attrs, bracket_expressions

DOMAIN = "d"

def count_matcher_calls(monkeypatch) -> Counter:
    """Count, under ``"items"``, every item a compiled query's matcher is
    run on, whichever code runs it."""
    calls: Counter = Counter()

    def matches(query):
        predicate = query.predicate.matches

        def counted(attrs):
            calls["items"] += 1
            return predicate(attrs)

        return counted

    # A property is a data descriptor, so it also shadows the matcher a
    # memoised (shared) CompiledQuery has already cached on itself.
    monkeypatch.setattr(CompiledQuery, "matches", property(matches))
    return calls


# -- generators --------------------------------------------------------------

# Item values and query literals share one small pool, so predicates hit.
POOL = ["a", "b", "ab", "abc", "0", "a0", "b:0", "c_"]
_pool = st.sampled_from(POOL)
_names = st.sampled_from([f"item-{i}" for i in range(7)])


@st.composite
def equality_brackets(draw):
    attribute = draw(_attrs)
    values = draw(st.lists(_pool, min_size=1, max_size=4))
    return "[" + " or ".join(f"'{attribute}' = '{v}'" for v in values) + "]"


@st.composite
def bracket_queries(draw):
    """Brackets under the set operators."""
    term = st.one_of(equality_brackets(), bracket_expressions(values=_pool))
    expression = draw(term)
    for _ in range(draw(st.integers(0, 2))):
        joiner = draw(st.sampled_from(["intersection", "union", "intersection not"]))
        expression += f" {joiner} {draw(term)}"
    if draw(st.booleans()):
        expression = f"not {expression}"
    return expression


@st.composite
def broad_pinned_queries(draw):
    """A predicate pinned to every pool value of one attribute — each
    item holding it is a candidate, so its postings walk spans pages —
    optionally narrowed by a random bracket."""
    attribute = draw(_attrs)
    expression = "[" + " or ".join(f"'{attribute}' = '{v}'" for v in POOL) + "]"
    if draw(st.booleans()):
        expression += f" intersection not {draw(bracket_expressions(values=_pool))}"
    return draw(st.sampled_from(["query", "query-with-attributes"])), expression


_put_attrs = st.lists(
    st.builds(Attribute, _attrs, _pool, st.booleans()), min_size=1, max_size=4
)
_mutations = st.one_of(
    st.tuples(st.just("put"), _names, _put_attrs),
    st.tuples(
        st.just("batch"),
        st.lists(st.tuples(_names, _put_attrs), min_size=1, max_size=4),
    ),
    st.tuples(st.just("delete-attribute"), _names, _attrs),
    st.tuples(st.just("delete-value"), _names, _attrs, _pool),
    st.tuples(st.just("delete-item"), _names),
)


def apply(sdb, mutation) -> None:
    kind, *args = mutation
    if kind == "put":
        sdb.put_attributes(DOMAIN, *args)
    elif kind == "batch":
        sdb.batch_put_attributes(DOMAIN, *args)
    elif kind == "delete-attribute":
        sdb.delete_attributes(DOMAIN, args[0], [args[1]])
    elif kind == "delete-value":
        sdb.delete_attributes(DOMAIN, args[0], [(args[1], args[2])])
    else:
        sdb.delete_attributes(DOMAIN, args[0])


def account_with(consistency, mutations=(), seed=11) -> AWSAccount:
    account = AWSAccount(seed=seed, consistency=consistency)
    account.simpledb.create_domain(DOMAIN)
    for mutation in mutations:
        apply(account.simpledb, mutation)
    return account


def authoritative(sdb):
    return [
        (name, sdb.authoritative_item(DOMAIN, name))
        for name in sdb.authoritative_item_names(DOMAIN)
    ]


def request(sdb, language, text, page_size, token=None):
    """One page through the service API: (name, attrs) rows and the
    next token. Query pages carry names only, so attrs are then
    ``None``."""
    if language == "query":
        page = sdb.query(DOMAIN, text, max_items=page_size, next_token=token)
        return [(name, None) for name in page.item_names], page.next_token
    page = sdb.query_with_attributes(
        DOMAIN, text, max_items=page_size, next_token=token
    )
    return list(page.items), page.next_token


def ask(sdb, language, text, page_size):
    """Every page of one query, concatenated."""
    rows, token = request(sdb, language, text, page_size)
    while token is not None:
        page, resumed = request(sdb, language, text, page_size, token)
        assert resumed != token, "a page that resumes where it began never ends"
        rows, token = rows + page, resumed
    return rows


def as_served(language, rows):
    return [(name, None) for name, _ in rows] if language == "query" else rows


def expected(items, language, text):
    return as_served(language, reference_rows(items, parse_query(text)))


def rows_past(rows, last):
    """The reference rows a page resumed after the name ``last`` may serve."""
    if last is None:
        return rows
    return [row for row in rows if row[0] > last]


def size_for_three_pages(rows) -> int:
    """A page size that splits ``rows`` into at least three pages, when
    there are at least three rows."""
    return max(1, len(rows) // 3)


_queries = st.tuples(
    st.sampled_from(["query", "query-with-attributes"]), bracket_queries()
)

EVENTUAL = ConsistencyConfig.eventual(window=2.0, immediate_fraction=0.4)


# -- index ≡ scan ------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    mutations=st.lists(_mutations, min_size=1, max_size=12),
    queries=st.lists(_queries, min_size=1, max_size=4),
    broad=broad_pinned_queries(),
    page_size=st.integers(1, 4),
)
def test_strong_model_pages_equal_the_reference_scan(mutations, queries, broad, page_size):
    """No install is ever pending: every pinned predicate takes the
    postings path, an unpinned one the scan, and every page walk — each
    page seeks past the last name served — is the reference's rows, each
    exactly once, in order, at a random page size and at one that crosses
    three pages."""
    sdb = account_with(ConsistencyConfig.strong(), mutations).simpledb
    items = authoritative(sdb)
    for language, text in [broad, *queries]:
        want = expected(items, language, text)
        if len(want) >= 3:
            event(f"3+ pages: {'postings' if parse_query(text).pinned else 'scan'}")
        for size in (page_size, size_for_three_pages(want)):
            assert ask(sdb, language, text, size) == want


@settings(max_examples=150, deadline=None)
@given(
    mutations=st.lists(_mutations, min_size=1, max_size=12),
    queries=st.lists(_queries, min_size=1, max_size=4),
    broad=broad_pinned_queries(),
)
def test_eventual_window_scans_the_drawn_replica_then_converges(mutations, queries, broad):
    """Inside the window the postings (which describe the authority)
    must stay out of it: each page is the reference over the replica its
    request drew, past the last row the previous page served, missing
    fresh writes exactly as it always could. A twin service fed the same
    seed and calls makes the same draw through ``ordered_snapshot``.
    After quiesce the index path takes over and the answer is the
    authoritative one."""
    account = account_with(EVENTUAL, mutations)
    sdb, twin = account.simpledb, account_with(EVENTUAL, mutations).simpledb
    event(f"installs pending: {sdb._domain(DOMAIN).pending_installs > 0}")
    for language, text in [broad, *queries]:
        query, token, last = parse_query(text), None, None
        while True:
            drawn = list(twin._domain(DOMAIN).ordered_snapshot().between())
            rest = rows_past(reference_rows(drawn, query), last)
            got, token = request(sdb, language, text, 2, token)
            assert got == as_served(language, rest[:2])
            assert (token is None) == (len(rest) <= 2)
            if token is None:
                break
            last = rest[1][0]
    account.quiesce()
    items = authoritative(sdb)
    for language, text in [broad, *queries]:
        want = expected(items, language, text)
        for size in (3, size_for_three_pages(want)):
            assert ask(sdb, language, text, size) == want


def test_which_path_ran(monkeypatch):
    """The scan is skipped exactly when it may be: items the matcher runs
    on are the candidates under a converged replica, the whole replica
    inside a window or for a predicate that pins nothing — and box usage
    is billed on the visible item count either way."""
    calls = count_matcher_calls(monkeypatch)
    account = account_with(EVENTUAL, seed=3)
    sdb = account.simpledb
    for i in range(40):
        sdb.put_attributes(DOMAIN, f"i{i:02d}", [("type", "file"), ("k", f"{i % 4}")])
    account.quiesce()

    def ask_one_page(expression):
        """Names, box usage and items examined by one (whole) page."""
        before, examined = account.meter.snapshot(), calls["items"]
        names = sdb.query(DOMAIN, expression).item_names
        spent = account.meter.snapshot() - before
        return names, spent.box_usage_hours, calls["items"] - examined

    pinned, pinned_usage, examined = ask_one_page("['k' = '1']")
    assert examined == 10
    narrowest, _, examined = ask_one_page(
        "['type' = 'file'] intersection ['k' = '1' or 'k' = '2']"
    )
    assert examined == 20 and len(narrowest) == 20
    unpinned, unpinned_usage, examined = ask_one_page("not ['k' != '1']")
    assert examined == 40
    assert pinned == unpinned
    assert pinned_usage == unpinned_usage

    sdb.put_attributes(DOMAIN, "fresh", [("k", "1")])
    assert sdb._domain(DOMAIN).pending_installs > 0
    _, _, examined = ask_one_page("['k' = '1']")
    assert examined in (40, 41)  # the drawn replica, fresh item or not
    account.quiesce()
    names, _, examined = ask_one_page("['k' = '1']")
    assert "fresh" in names and examined == 11


def test_one_replica_draw_per_request_on_both_paths():
    """Three services, same seed, same calls — except that where the
    first asks pinned predicates (postings once quiesced), the second
    asks unpinned ones (always a scan) and the third makes a point read
    (one replica draw, by definition). Their RNG streams must stay in
    step: the writes that follow draw the same delays and the point
    reads the same replicas, so all observe one stale/fresh pattern."""

    def pinned(sdb):
        sdb.query(DOMAIN, "['k' = '1']")
        sdb.query_with_attributes(DOMAIN, "['k' = '1' or 'k' = '2']")

    def unpinned(sdb):
        sdb.query(DOMAIN, "not ['k' != '1']")
        sdb.query_with_attributes(DOMAIN, None)

    def point_reads(sdb):
        sdb.get_attributes(DOMAIN, "i0")
        sdb.get_attributes(DOMAIN, "i0")

    observed = []
    for requests in (pinned, unpinned, point_reads):
        account = account_with(EVENTUAL, seed=9)
        sdb = account.simpledb
        for i in range(12):
            sdb.put_attributes(DOMAIN, f"i{i}", [("k", f"{i % 3}")])
        requests(sdb)  # in-window: a scan either way
        account.quiesce()
        for _ in range(5):
            requests(sdb)
        for i in range(12):
            sdb.put_attributes(DOMAIN, f"j{i}", [("k", "1")])
        observed.append(
            [bool(sdb.get_attributes(DOMAIN, f"j{i % 12}")) for i in range(60)]
        )
    assert observed[0] == observed[1] == observed[2]
    assert len(set(observed[0])) == 2  # the pattern does discriminate


# -- statistics and postings upkeep -----------------------------------------

def recount(sdb) -> dict:
    """DomainMetadata from scratch, off the authoritative items."""
    items = authoritative(sdb)
    pairs = [(a, v) for _, attrs in items for a, vs in attrs.items() for v in vs]
    return {
        "item_count": len(items),
        "item_bytes": sum(len(a.encode()) + len(v.encode()) for a, v in pairs),
        "attributes": {
            attr: {
                "distinct_values": len({v for a, v in pairs if a == attr}),
                "value_count": sum(a == attr for a, _ in pairs),
            }
            for attr in {a for a, _ in pairs}
        },
    }


@settings(max_examples=150, deadline=None)
@given(mutations=st.lists(_mutations, min_size=1, max_size=16))
def test_domain_metadata_equals_a_recount(mutations):
    sdb = account_with(ConsistencyConfig.strong()).simpledb
    for mutation in mutations:
        apply(sdb, mutation)
        assert sdb.domain_metadata(DOMAIN) == recount(sdb)
    for name in sdb.authoritative_item_names(DOMAIN):
        sdb.delete_attributes(DOMAIN, name)
    assert sdb.domain_metadata(DOMAIN) == {
        "item_count": 0, "item_bytes": 0, "attributes": {},
    }
    assert sdb._postings == {DOMAIN: {}}


def test_postings_do_not_outlive_their_domain():
    """Neither the postings nor a query's sorted candidate names: the same
    query asked of a re-created domain must not be served the old
    domain's candidates."""
    sdb = account_with(ConsistencyConfig.strong()).simpledb
    sdb.put_attributes(DOMAIN, "i", [("k", "1")])
    assert sdb.query(DOMAIN, "['k' = '1']").item_names == ("i",)
    sdb.delete_domain(DOMAIN)
    assert sdb._postings == {}
    assert sdb._orderings == {}
    sdb.create_domain(DOMAIN)
    assert sdb.domain_metadata(DOMAIN)["attributes"] == {}
    assert sdb.query(DOMAIN, "['k' = '1']").item_names == ()
    sdb.put_attributes(DOMAIN, "j", [("k", "1")])
    assert sdb.query(DOMAIN, "['k' = '1']").item_names == ("j",)


# -- compiled matcher ≡ interpreter -----------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    query=_queries,
    attrs=st.dictionaries(
        keys=_attrs, values=st.lists(_pool, min_size=1, max_size=3).map(tuple)
    ),
)
def test_compiled_matcher_equals_the_interpreter(query, attrs):
    node = parse_query(query[1]).predicate
    assert node.matches(attrs) is reference_matches(node, attrs)


@settings(max_examples=300, deadline=None)
@given(
    query=_queries,
    attrs=st.dictionaries(
        keys=_attrs, values=st.lists(_pool, min_size=1, max_size=3).map(tuple)
    ),
)
def test_every_match_holds_a_pinned_value_and_a_value_in_each_range(query, attrs):
    """The superset guarantees the postings and the DynamoDB index paths
    rest on, judged by the interpreter: an item the predicate matches
    holds one of each pinned attribute's values and, for each ranged
    attribute, one value inside its range."""
    parsed = parse_query(query[1])
    if not reference_matches(parsed.predicate, attrs):
        return
    event(f"pins {len(parsed.pinned)}, ranges {len(parsed.ranges)}")
    for attribute, values in parsed.pinned.items():
        assert set(attrs.get(attribute, ())) & set(values)
    for attribute, (lo, hi) in parsed.ranges.items():
        assert any(
            (lo is None or lo <= value) and (hi is None or value <= hi)
            for value in attrs.get(attribute, ())
        )


def test_two_sides_bounding_one_attribute_keep_the_left_range():
    """Bounds from the two sides of an ``and`` do not intersect (each
    may hold of a different value), so one side's range is kept: the
    left. One bracket is one value, so its groups still intersect."""
    assert parse_query("['k' >= 'b'] intersection ['k' <= 'c']").ranges == {
        "k": ("b", None)
    }
    assert parse_query("['k' <= 'c'] intersection ['k' >= 'b']").ranges == {
        "k": (None, "c")
    }
    assert parse_query("['k' >= 'b' and 'k' <= 'c']").ranges == {"k": ("b", "c")}


VALUES = {"k": ("ab", "b")}


@pytest.mark.parametrize(
    "text, verdict",
    [
        ("['k' = 'b']", True),
        ("['k' = 'a']", False),
        ("['k' != 'ab']", True),
        ("['k' < 'ab']", False),
        ("['k' <= 'ab']", True),
        ("['k' > 'b']", False),
        ("['k' >= 'b']", True),
        ("['k' starts-with 'a']", True),
        ("['k' does-not-start-with 'a']", True),
        ("['k' does-not-start-with 'a' and 'k' does-not-start-with 'b']", False),
        ("['k' > 'a' and 'k' < 'b']", True),
        ("['k' = 'b' and 'k' starts-with 'a']", False),  # one value, both groups
        ("['missing' != 'x']", False),
        ("['k' = 'x' or 'k' = 'b']", True),
        ("['k' = 'x'] union ['k' = 'ab']", True),
        ("not (['k' = 'ab'] intersection ['k' = 'b'])", False),
        ("['k' = 'ab'] intersection not ['missing' = 'x']", True),
        ("['k' = 'x' or 'k' = 'y']", False),
        ("['k' >= 'b' and 'k' <= 'c']", True),
        ("['k' > 'ab' and 'k' < 'b']", False),  # no value strictly between
        ("['k' starts-with 'c'] union ['k' = 'b']", True),
        ("not ['k' = 'b']", False),
        ("not ['missing' = 'x']", True),
        ("['k' = 'ab'] intersection ['k' = 'b']", True),  # a value each
    ],
)
def test_every_comparator_compiles_to_its_meaning(text, verdict):
    node = parse_query(text).predicate
    assert node.matches(VALUES) is verdict
    assert reference_matches(node, VALUES) is verdict
    assert node.matches({}) is reference_matches(node, {})
