"""Fuzz/edge tests locking in sdb_query parser + pagination behaviour.

The shard router fans queries out across domains and replays pagination
tokens per shard, so the parser's edge behaviour — empty brackets, huge
cross-reference disjunctions, tokens that outlive the page they came
from — must be pinned down before anything is layered on top.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import errors
from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.sdb_query import matching, parse_query
from repro.passlib.records import ObjectRef
from repro.query.engine import REF_BATCH
from repro.sharding import ShardRouter


# -- empty / degenerate bracket predicates ---------------------------------

class TestEmptyPredicates:
    def test_empty_bracket_is_rejected(self):
        with pytest.raises(errors.InvalidQueryExpression):
            parse_query("[]")

    def test_dangling_or_is_rejected(self):
        with pytest.raises(errors.InvalidQueryExpression):
            parse_query("['type' = 'file' or]")

    def test_bracket_missing_value_is_rejected(self):
        with pytest.raises(errors.InvalidQueryExpression):
            parse_query("['type' =]")

    def test_none_and_blank_match_all(self):
        items = [("a", {"x": ("1",)}), ("b", {})]
        assert list(matching(items, parse_query(None))) == items
        assert list(matching(items, parse_query(""))) == items
        assert list(matching(items, parse_query("   "))) == items

    def test_lone_set_operator_is_rejected(self):
        with pytest.raises(errors.InvalidQueryExpression):
            parse_query("intersection")

    def test_empty_parentheses_are_rejected(self):
        with pytest.raises(errors.InvalidQueryExpression):
            parse_query("()")


# -- >REF_BATCH cross-reference disjunctions -------------------------------

class TestWideReferenceDisjunctions:
    def make_refs(self, count):
        return [ObjectRef(f"dir/file-{i:04d}", 1 + i % 3) for i in range(count)]

    def test_bracket_disjunction_beyond_ref_batch(self):
        refs = self.make_refs(REF_BATCH * 2 + 5)
        disjunction = " or ".join(f"'input' = '{r.encode()}'" for r in refs)
        query = parse_query(f"[{disjunction}]")
        hit = {"input": (refs[REF_BATCH].encode(),)}
        miss = {"input": ("other:v0001",)}
        assert query.matches(hit)
        assert not query.matches(miss)

    def test_union_chain_beyond_ref_batch(self):
        refs = self.make_refs(REF_BATCH + 7)
        chain = " union ".join(f"['input' = '{r.encode()}']" for r in refs)
        query = parse_query(chain)
        assert query.matches({"input": (refs[-1].encode(),)})
        assert not query.matches({"input": ("nope:v0001",)})

    def test_both_spellings_agree_at_width(self):
        refs = self.make_refs(REF_BATCH * 3)
        items = [
            (r.item_name, {"input": (r.encode(),), "type": ("file",)}) for r in refs
        ] + [("stranger_v0001", {"type": ("file",)})]
        disjunction = " or ".join(f"'input' = '{r.encode()}'" for r in refs)
        chain = " union ".join(f"['input' = '{r.encode()}']" for r in refs)
        bracket = list(matching(items, parse_query(f"[{disjunction}]")))
        union = list(matching(items, parse_query(chain)))
        assert [n for n, _ in bracket] == [n for n, _ in union]
        assert len(bracket) == len(refs)


# -- pagination tokens across shard boundaries -----------------------------

class TestPaginationAcrossShards:
    def loaded_service(self, shards: int = 3, items_per_shard_hint: int = 40):
        account = AWSAccount(seed=5, consistency=ConsistencyConfig.strong())
        # These tests pin SimpleDB's pagination-token wire semantics
        # (writes below go straight to the SimpleDB service).
        router = ShardRouter(shards, placement="sdb")
        router.provision(account)
        for index in range(shards * items_per_shard_hint):
            name = f"dir{index % 5}/obj-{index:04d}_v0001"
            domain = router.domain_for_item(name)
            account.simpledb.put_attributes(domain, name, [("type", "file")])
        return account, router

    def test_token_from_one_shard_rejected_shape_on_another(self):
        """A next_token is only meaningful against the shard that minted
        it — replayed on a different shard it silently resumes *that*
        shard's ordering (SimpleDB semantics: token = last item name)."""
        account, router = self.loaded_service()
        first, second = router.domains[0], router.domains[1]
        page = account.simpledb.query(first, None, max_items=10)
        assert page.next_token is not None
        replayed = account.simpledb.query(second, None, next_token=page.next_token)
        native = account.simpledb.query(second, None)
        boundary = page.next_token[len("after:"):]
        assert set(replayed.item_names) == {
            n for n in native.item_names if n > boundary
        }

    def test_malformed_token_raises_invalid_next_token(self):
        account, router = self.loaded_service()
        with pytest.raises(errors.InvalidNextToken):
            account.simpledb.query(router.domains[0], None, next_token="bogus")

    def test_full_paged_walk_per_shard_sees_every_item_once(self):
        account, router = self.loaded_service()
        seen: list[str] = []
        for domain in router.domains:
            token = None
            while True:
                page = account.simpledb.query(
                    domain, None, max_items=7, next_token=token
                )
                seen.extend(page.item_names)
                token = page.next_token
                if token is None:
                    break
        expected = sorted(
            name
            for domain in router.domains
            for name in account.simpledb.authoritative_item_names(domain)
        )
        assert sorted(seen) == expected
        assert len(seen) == len(set(seen))

    def test_token_past_the_last_item_yields_empty_page(self):
        account, router = self.loaded_service()
        domain = router.domains[0]
        page = account.simpledb.query(domain, None, next_token="after:~~~~")
        assert page.item_names == ()
        assert page.next_token is None


# -- grammar fuzzing --------------------------------------------------------

_values = st.text(alphabet="abc0:/_-", min_size=1, max_size=8)
_attrs = st.sampled_from(["type", "name", "input", "ver"])
_ops = st.sampled_from(
    ["=", "!=", "<", "<=", ">", ">=", "starts-with", "does-not-start-with"]
)


@st.composite
def bracket_expressions(draw, values=_values):
    attribute = draw(_attrs)
    n_terms = draw(st.integers(min_value=1, max_value=6))
    connectives = [draw(st.sampled_from(["or", "and"])) for _ in range(n_terms - 1)]
    parts = []
    for index in range(n_terms):
        op = draw(_ops)
        value = draw(values).replace("'", "''")
        parts.append(f"'{attribute}' {op} '{value}'")
        if index < n_terms - 1:
            parts.append(connectives[index])
    return "[" + " ".join(parts) + "]"


@settings(max_examples=120, deadline=None)
@given(
    expression=st.one_of(
        bracket_expressions(),
        st.text(alphabet="[]'=<>!asdfo ", max_size=30),
    ),
    attrs=st.dictionaries(
        keys=_attrs,
        values=st.lists(_values, min_size=1, max_size=3).map(tuple),
        max_size=3,
    ),
)
def test_parser_never_crashes_outside_its_error_type(expression, attrs):
    """Any input either parses (and then evaluates total) or raises
    InvalidQueryExpression — no other exception type escapes."""
    try:
        query = parse_query(expression)
    except errors.InvalidQueryExpression:
        return
    assert query.matches(attrs) in (True, False)


_words = st.sampled_from(
    ["[", "]", "(", ")", "'a'", "'b'", "''", "=", "!=", ">=", "starts-with",
     "or", "and", "not", "union", "intersection", "sort", "desc", "limit", "2"]
)


@settings(max_examples=150, deadline=None)
@given(words=st.lists(_words, max_size=12))
def test_parser_never_crashes_on_a_soup_of_its_own_words(words):
    """Sequences of the language's own tokens — and of the sort and
    limit words it does not have — either parse or raise
    InvalidQueryExpression."""
    try:
        query = parse_query(" ".join(words))
    except errors.InvalidQueryExpression:
        return
    assert query.matches({"a": ("b",)}) in (True, False)
