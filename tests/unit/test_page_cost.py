"""A page costs what it serves, not the size of what it pages through.

SimpleDB Query / QueryWithAttributes / Select and S3 LIST resume at
their token on the drawn replica's key order and stop one row past the
page. The tests here count the work a walk does — items a query's
compiled matcher is run on, keys a LIST examines — so they are exact
and deterministic. A walk of N matching items in pages of P examines
at most N + ⌈N/P⌉ of them (each page's look-ahead row is examined again
as the next page's first), and walking 4N costs about four times
walking N. A pager that filters and sorts the whole domain on every
page costs N per page, and sixteen times as much.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.sdb_query import run_query
from tests.oracles import reference_list

from test_sdb_index import DOMAIN, ask, compiled, count_matcher_calls

BUCKET = "b"
PAGE = 10
N = 100


# -- SimpleDB ----------------------------------------------------------------

def domain_of(n: int):
    """A strongly consistent domain of ``n`` items, written in reverse
    name order: 90 % ``type = file``, ``k`` cycling through 0..6."""
    sdb = AWSAccount(seed=5, consistency=ConsistencyConfig.strong()).simpledb
    sdb.create_domain(DOMAIN)
    for i in reversed(range(n)):
        kind = "proc" if i % 10 == 0 else "file"
        sdb.put_attributes(DOMAIN, f"item-{i:05d}", [("type", kind), ("k", str(i % 7))])
    return sdb


# (language, text), each matching most of the domain: the scan path and
# the postings path (``type`` pinned), where every item examined matches...
EVERY_MATCH = {
    "scan": ("query-with-attributes", None),
    "postings": ("query-with-attributes", "['type' = 'file']"),
    "select-postings": ("select", f"select * from {DOMAIN} where type = 'file'"),
}
# ...and where some do not. A page's look-ahead row is then preceded by
# the non-matches crossed to reach it, and the next page, resuming past
# the last row *served*, examines those again too.
SKIPPING = {
    "scan-skipping": ("query", "not ['k' = '0']"),
    "postings-skipping": (
        "query-with-attributes", "['type' = 'file'] intersection not ['k' = '0']"
    ),
}


def walk_cost(monkeypatch, n, language, text) -> tuple[list[str], int]:
    """(names served, matcher evaluations) by a walk of a domain of ``n``
    items in pages of ``PAGE``."""
    sdb = domain_of(n)
    calls = count_matcher_calls(monkeypatch)
    names = [name for name, _ in ask(sdb, language, text, PAGE)]
    cost = calls["items"]
    monkeypatch.undo()
    items = [
        (name, sdb.authoritative_item(DOMAIN, name))
        for name in sdb.authoritative_item_names(DOMAIN)
    ]
    assert names == [name for name, _ in run_query(items, compiled(language, text))]
    return names, cost


@pytest.mark.parametrize(
    "language, text", EVERY_MATCH.values(), ids=EVERY_MATCH.keys()
)
def test_a_walk_examines_each_item_once_plus_one_per_page(monkeypatch, language, text):
    names, cost = walk_cost(monkeypatch, 2 * N, language, text)
    assert len(names) > N  # most of the domain, so many pages
    assert cost <= 2 * N + math.ceil(2 * N / PAGE)


@pytest.mark.parametrize(
    "language, text",
    [*EVERY_MATCH.values(), *SKIPPING.values()],
    ids=[*EVERY_MATCH, *SKIPPING],
)
def test_walking_four_times_the_items_costs_four_times_as_much(
    monkeypatch, language, text
):
    _, small = walk_cost(monkeypatch, N, language, text)
    _, large = walk_cost(monkeypatch, 4 * N, language, text)
    assert large <= 4.4 * small


# -- S3 LIST -----------------------------------------------------------------

def bucket_of(names):
    """A strongly consistent bucket holding ``names`` as keys that count
    how often they are examined (``str.startswith``), under ``"keys"``."""
    examined: Counter = Counter()

    class Key(str):
        def startswith(self, *args):
            examined["keys"] += 1
            return str.startswith(self, *args)

    s3 = AWSAccount(seed=5, consistency=ConsistencyConfig.strong()).s3
    s3.create_bucket(BUCKET)
    for name in reversed(names):
        s3.put(BUCKET, Key(name), b"x")
    return s3, examined


def list_walk(s3, prefix) -> list[str]:
    keys, marker = [], None
    while True:
        page = s3.list_keys(BUCKET, prefix=prefix, marker=marker, max_keys=PAGE)
        keys += page.keys
        if not page.is_truncated:
            return keys
        assert page.next_marker != marker, "a page that resumes where it began never ends"
        marker = page.next_marker


def list_cost(n, prefix) -> tuple[int, int]:
    """(keys listed, keys examined) by a LIST walk under ``prefix`` of a
    bucket holding ``n`` keys under each of ``a/``, ``m/`` and ``z/``."""
    names = [f"{top}/{i:05d}" for top in "amz" for i in range(n)]
    s3, examined = bucket_of(names)
    listed = list_walk(s3, prefix)
    assert listed == [name for name in names if name.startswith(prefix)]
    return len(listed), examined["keys"]


@pytest.mark.parametrize("prefix", ["", "m/"])
def test_a_list_walk_examines_each_key_once_plus_one_per_page(prefix):
    listed, cost = list_cost(2 * N, prefix)
    assert cost <= listed + math.ceil(listed / PAGE)


@pytest.mark.parametrize("prefix", ["", "m/"])
def test_listing_four_times_the_keys_costs_four_times_as_much(prefix):
    assert list_cost(4 * N, prefix)[1] <= 4.4 * list_cost(N, prefix)[1]


# Keys that prefix one another; prefixes and markers that fall before,
# inside, between and past them.
_keys = st.sampled_from(["a", "a/", "a/b", "a/c", "ab", "b", "b/a", "c"])
_prefixes = st.sampled_from(["", "a", "a/", "a/b", "b/", "bb", "z"])
_markers = st.one_of(st.none(), _keys, st.sampled_from(["", "0", "a/bb", "b/", "zz"]))
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _keys),
        st.tuples(st.just("delete"), _keys),
        st.tuples(st.just("advance"), st.sampled_from([0.3, 1.0, 5.0])),
        st.tuples(st.just("list"), _prefixes, _markers, st.integers(1, 4)),
    ),
    min_size=1,
    max_size=24,
)


@pytest.mark.parametrize(
    "consistency",
    [ConsistencyConfig.strong(), ConsistencyConfig.eventual(window=2.0, immediate_fraction=0.4)],
    ids=["strong", "eventual"],
)
@settings(max_examples=200, deadline=None)
@given(steps=_steps)
def test_every_list_page_equals_the_reference(consistency, steps):
    """Same keys, truncation flag and marker, same meter, same RNG state
    after every LIST as the sort-and-filter reference on a twin account
    fed the same seed and calls — whether the drawn replica was the live
    view or a lagging one."""
    account, twin = (AWSAccount(seed=11, consistency=consistency) for _ in range(2))
    for each in (account, twin):
        each.s3.create_bucket(BUCKET)
    s3 = account.s3
    for step in steps:
        if step[0] == "list":
            event(f"installs pending = {s3._bucket(BUCKET).pending_installs > 0}")
            got = s3.list_keys(BUCKET, *step[1:])
            assert got == reference_list(twin.s3, BUCKET, *step[1:])
            assert account.meter.snapshot() == twin.meter.snapshot()
            assert s3._rng.getstate() == twin.s3._rng.getstate()
            continue
        for each in (account, twin):
            if step[0] == "put":
                each.s3.put(BUCKET, step[1], b"x")
            elif step[0] == "delete":
                each.s3.delete(BUCKET, step[1])
            else:
                each.clock.advance(step[1])
