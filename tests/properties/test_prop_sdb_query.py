"""Property tests: SimpleDB query-language algebra and SQS delivery."""

import random

from hypothesis import given, settings, strategies as st

from repro.aws.sdb_query import matching, parse_query

attr_names = st.sampled_from(["type", "name", "input", "ver"])
attr_values = st.text(alphabet="abcd01", min_size=1, max_size=4)

items_strategy = st.dictionaries(
    keys=st.text(alphabet="ghij", min_size=1, max_size=4),
    values=st.dictionaries(
        keys=attr_names,
        values=st.lists(attr_values, min_size=1, max_size=3).map(tuple),
        min_size=0,
        max_size=4,
    ),
    min_size=0,
    max_size=12,
).map(lambda d: sorted(d.items()))


def names(items, expression):
    return {n for n, _ in matching(items, parse_query(expression))}


@st.composite
def predicates(draw):
    attribute = draw(attr_names)
    op = draw(st.sampled_from(["=", "!=", "<", ">", "starts-with"]))
    value = draw(attr_values)
    return f"['{attribute}' {op} '{value}']"


class TestSetAlgebra:
    @settings(max_examples=80, deadline=None)
    @given(items=items_strategy, p=predicates(), q=predicates())
    def test_union_is_set_union(self, items, p, q):
        assert names(items, f"{p} union {q}") == names(items, p) | names(items, q)

    @settings(max_examples=80, deadline=None)
    @given(items=items_strategy, p=predicates(), q=predicates())
    def test_intersection_is_set_intersection(self, items, p, q):
        assert names(items, f"{p} intersection {q}") == (
            names(items, p) & names(items, q)
        )

    @settings(max_examples=80, deadline=None)
    @given(items=items_strategy, p=predicates())
    def test_not_is_complement(self, items, p):
        universe = {n for n, _ in items}
        assert names(items, f"not {p}") == universe - names(items, p)

    @settings(max_examples=60, deadline=None)
    @given(items=items_strategy, p=predicates())
    def test_idempotent_union(self, items, p):
        assert names(items, f"{p} union {p}") == names(items, p)

    @settings(max_examples=60, deadline=None)
    @given(items=items_strategy, p=predicates(), q=predicates())
    def test_parentheses_associate(self, items, p, q):
        r = "['ver' = '1']"
        left = names(items, f"({p} union {q}) union {r}")
        right = names(items, f"{p} union ({q} union {r})")
        assert left == right

    @settings(max_examples=60, deadline=None)
    @given(items=items_strategy, p=predicates())
    def test_equality_matches_manual_scan(self, items, p):
        # Cross-check '=' predicates against a hand evaluation.
        if "=" not in p or "!=" in p or "starts-with" in p:
            return
        attribute = p.split("'")[1]
        value = p.split("'")[3]
        expected = {
            n for n, attrs in items if value in attrs.get(attribute, ())
        }
        assert names(items, p) == expected


class TestSqsDeliveryProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n_messages=st.integers(1, 30),
        seed=st.integers(0, 1000),
        sample_fraction=st.floats(0.3, 1.0),
    )
    def test_no_loss_no_duplication_in_storage(
        self, n_messages, seed, sample_fraction
    ):
        """Every message is eventually received; deleting it once removes
        exactly one message; nothing is duplicated in storage."""
        from repro.aws.billing import Meter
        from repro.aws.sqs import SQSService
        from repro.clock import SimClock

        clock = SimClock()
        sqs = SQSService(
            clock,
            random.Random(seed),
            Meter(clock),
            host_count=6,
            sample_fraction=sample_fraction,
        )
        url = sqs.create_queue("prop", visibility_timeout=5.0)
        sent = {sqs.send_message(url, f"m{i}") for i in range(n_messages)}
        seen: dict[str, str] = {}
        for _ in range(300):
            if len(seen) == n_messages:
                break
            for message in sqs.receive_message(url, max_messages=10):
                seen.setdefault(message.message_id, message.receipt_handle)
            clock.advance(6.0)  # let visibility lapse for re-receives
        assert set(seen) == sent
        # Redelivery may supersede old handles: re-receive and delete.
        clock.advance(6.0)
        deleted: set[str] = set()
        for _ in range(300):
            if len(deleted) == n_messages:
                break
            for message in sqs.receive_message(url, max_messages=10):
                sqs.delete_message(url, message.receipt_handle)
                deleted.add(message.message_id)
            clock.advance(6.0)
        assert deleted == sent
        assert sqs.exact_message_count(url) == 0
