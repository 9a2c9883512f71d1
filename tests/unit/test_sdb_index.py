"""SimpleDB's attribute index ≡ a replica scan, differentially.

The service answers a query from its postings when the drawn replica
provably equals the authoritative state and the predicate pins an
attribute, and scans the replica otherwise; either way a page resumes
at its token. Both must return exactly what the pre-index service did:
filter and sort the visible items, with the *interpretive* matcher,
which lives on here as the oracle (``reference_matches``) for the
compiled closures too, then drop every row up to the token.
"""

from __future__ import annotations

import operator
from collections import Counter

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.sdb_query import (
    BoolOp,
    BracketPredicate,
    Comparison,
    CompiledQuery,
    MatchAll,
    Not,
    Null,
    parse_query,
    parse_select,
)
from repro.aws.simpledb import Attribute

from test_sdb_query_fuzz import _attrs, bracket_expressions

DOMAIN = "d"

# -- the oracle: the interpreter the compiled matchers replaced -------------

_REFERENCE_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "starts-with": lambda a, b: a.startswith(b),
    "does-not-start-with": lambda a, b: not a.startswith(b),
}


def reference_matches(node, attrs) -> bool:
    if isinstance(node, Comparison):
        values = attrs.get(node.attribute)
        if not values:
            return False
        quantify = all if node.every else any
        return quantify(_REFERENCE_OPS[node.op](v, node.value) for v in values)
    if isinstance(node, BracketPredicate):
        return any(
            all(
                any(_REFERENCE_OPS[c.op](value, c.value) for c in group)
                for group in node.conjunctions
            )
            for value in attrs.get(node.attribute) or ()
        )
    if isinstance(node, Null):
        present = bool(attrs.get(node.attribute))
        return present if node.negated else not present
    if isinstance(node, Not):
        return not reference_matches(node.operand, attrs)
    if isinstance(node, BoolOp):
        left = reference_matches(node.left, attrs)
        right = reference_matches(node.right, attrs)
        return (left and right) if node.op == "and" else (left or right)
    assert isinstance(node, MatchAll)
    return True


def reference_rows(items, query):
    """What the pre-index service returned for ``query`` over ``items``."""
    matched = [(n, a) for n, a in items if reference_matches(query.predicate, a)]
    matched.sort(key=lambda pair: query.sort_key(*pair))
    if query.sort_descending:
        matched.reverse()
    return [(name, dict(attrs)) for name, attrs in matched]


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
_sorts = st.sampled_from(["", " asc", " desc"])


@st.composite
def equality_brackets(draw):
    attribute = draw(_attrs)
    values = draw(st.lists(_pool, min_size=1, max_size=4))
    return "[" + " or ".join(f"'{attribute}' = '{v}'" for v in values) + "]"


@st.composite
def bracket_queries(draw):
    """Brackets under the set operators, optionally sorted."""
    term = st.one_of(equality_brackets(), bracket_expressions(values=_pool))
    expression = draw(term)
    for _ in range(draw(st.integers(0, 2))):
        joiner = draw(st.sampled_from(["intersection", "union", "intersection not"]))
        expression += f" {joiner} {draw(term)}"
    if draw(st.booleans()):
        expression = f"not {expression}"
    if draw(st.booleans()):
        expression += f" sort '{draw(_attrs)}'{draw(_sorts)}"
    return expression


@st.composite
def broad_pinned_queries(draw):
    """A predicate pinned to every pool value of one attribute — each
    item holding it is a candidate, so its postings walk spans pages —
    optionally narrowed by a random bracket and sorted."""
    attribute = draw(_attrs)
    expression = "[" + " or ".join(f"'{attribute}' = '{v}'" for v in POOL) + "]"
    if draw(st.booleans()):
        expression += f" intersection not {draw(bracket_expressions(values=_pool))}"
    if draw(st.booleans()):
        expression += f" sort '{draw(_attrs)}'{draw(_sorts)}"
    return draw(st.sampled_from(["query", "query-with-attributes"])), expression


@st.composite
def select_conditions(draw, depth=2):
    attribute = draw(_attrs)
    shape = draw(st.integers(0, 8 if depth else 5))
    if shape == 0:
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        return f"{attribute} {op} '{draw(_pool)}'"
    if shape == 1:
        op = draw(st.sampled_from(["=", "!=", "<", ">="]))
        return f"every({attribute}) {op} '{draw(_pool)}'"
    if shape == 2:
        values = draw(st.lists(_pool, min_size=1, max_size=4))
        return f"{attribute} in (" + ", ".join(f"'{v}'" for v in values) + ")"
    if shape == 3:
        return f"{attribute} between '{draw(_pool)}' and '{draw(_pool)}'"
    if shape == 4:
        return f"{attribute} like '{draw(_pool)}%'"
    if shape == 5:
        return f"{attribute} is {draw(st.sampled_from(['', 'not ']))}null"
    inner = select_conditions(depth=depth - 1)
    if shape == 6:
        return f"not ({draw(inner)})"
    joiner = "and" if shape == 7 else "or"
    return f"({draw(inner)}) {joiner} ({draw(inner)})"


@st.composite
def select_statements(draw):
    statement = f"select * from {DOMAIN}"
    if draw(st.integers(0, 5)):
        statement += f" where {draw(select_conditions())}"
    if draw(st.booleans()):
        statement += f" order by {draw(_attrs)}{draw(_sorts)}"
    return statement


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
    if language == "select":
        page = sdb.select(f"{text} limit {page_size}", next_token=token)
        return list(page.items), page.next_token
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


def compiled(language, text):
    return parse_select(text).query if language == "select" else parse_query(text)


def as_served(language, rows):
    return [(name, None) for name, _ in rows] if language == "query" else rows


def expected(items, language, text):
    return as_served(language, reference_rows(items, compiled(language, text)))


def rows_past(rows, query, last):
    """The reference rows a page resumed after sort key ``last`` may serve."""
    if last is None:
        return rows
    beyond = operator.lt if query.sort_descending else operator.gt
    return [row for row in rows if beyond(query.sort_key(*row), last)]


def size_for_three_pages(rows) -> int:
    """A page size that splits ``rows`` into at least three pages, when
    there are at least three rows."""
    return max(1, len(rows) // 3)


_queries = st.one_of(
    st.tuples(st.sampled_from(["query", "query-with-attributes"]), bracket_queries()),
    st.tuples(st.just("select"), select_statements()),
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
    postings path, an unpinned one the scan, and every page walk —
    unsorted ones seek past the last name served, sorted ones resume on
    the sort key — is the reference's rows, each exactly once, in order,
    at a random page size and at one that crosses three pages."""
    sdb = account_with(ConsistencyConfig.strong(), mutations).simpledb
    items = authoritative(sdb)
    for language, text in [broad, *queries]:
        want = expected(items, language, text)
        if len(want) >= 3:
            query = compiled(language, text)
            path = "postings" if query.pinned else "scan"
            event(f"3+ pages: {path}, sorted = {query.sort_attribute is not None}")
        for size in (page_size, size_for_three_pages(want)):
            assert ask(sdb, language, text, size) == want
    if queries[0][0] == "select":
        counted = sdb.select(queries[0][1].replace("*", "count(*)", 1))
        assert counted.count == len(expected(items, *queries[0]))


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
        query, token, last = compiled(language, text), None, None
        while True:
            drawn = list(twin._domain(DOMAIN).ordered_snapshot().between())
            rest = rows_past(reference_rows(drawn, query), query, last)
            got, token = request(sdb, language, text, 2, token)
            assert got == as_served(language, rest[:2])
            assert (token is None) == (len(rest) <= 2)
            if token is None:
                break
            last = query.sort_key(*rest[1])
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
        sdb.select(f"select * from {DOMAIN} where k in ('1', '2')")

    def unpinned(sdb):
        sdb.query(DOMAIN, "not ['k' != '1']")
        sdb.select(f"select * from {DOMAIN}")

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
    sdb = account_with(ConsistencyConfig.strong()).simpledb
    sdb.put_attributes(DOMAIN, "i", [("k", "1")])
    sdb.delete_domain(DOMAIN)
    assert sdb._postings == {}
    sdb.create_domain(DOMAIN)
    assert sdb.domain_metadata(DOMAIN)["attributes"] == {}
    assert sdb.query(DOMAIN, "['k' = '1']").item_names == ()


# -- compiled matcher ≡ interpreter -----------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    query=_queries,
    attrs=st.dictionaries(
        keys=_attrs, values=st.lists(_pool, min_size=1, max_size=3).map(tuple)
    ),
)
def test_compiled_matcher_equals_the_interpreter(query, attrs):
    node = compiled(*query).predicate
    assert node.matches(attrs) is reference_matches(node, attrs)


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
        ("select * from d where k = 'ab'", True),
        ("select * from d where every(k) >= 'ab'", True),
        ("select * from d where every(k) = 'ab'", False),
        ("select * from d where every(missing) = 'x'", False),
        ("select * from d where k like 'a%'", True),
        ("select * from d where k in ('x', 'b')", True),
        ("select * from d where k between 'b' and 'c'", True),
        ("select * from d where k is null", False),
        ("select * from d where missing is null", True),
        ("select * from d where k is not null", True),
        ("select * from d where not (k = 'ab' and k = 'b')", False),
    ],
)
def test_every_comparator_compiles_to_its_meaning(text, verdict):
    language = "select" if text.startswith("select") else "query"
    node = compiled(language, text).predicate
    assert node.matches(VALUES) is verdict
    assert reference_matches(node, VALUES) is verdict
    assert node.matches({}) is reference_matches(node, {})
