"""Unit tests for the SQS simulator."""

import random

import pytest
from hypothesis import example, given, strategies as st

from repro import errors
from repro.aws import billing
from repro.aws.sqs import SQSService
from repro.clock import SimClock
from repro.units import KB, SECONDS_PER_DAY


@pytest.fixture
def queue(strong_account):
    url = strong_account.sqs.create_queue("q", visibility_timeout=30.0)
    return strong_account, url


class TestQueueManagement:
    def test_create_returns_url(self, strong_account):
        url = strong_account.sqs.create_queue("wal")
        assert "wal" in url
        assert url in strong_account.sqs.list_queues()

    def test_create_idempotent_same_timeout(self, strong_account):
        first = strong_account.sqs.create_queue("q", visibility_timeout=10.0)
        second = strong_account.sqs.create_queue("q", visibility_timeout=10.0)
        assert first == second

    def test_create_conflicting_timeout_rejected(self, strong_account):
        strong_account.sqs.create_queue("q", visibility_timeout=10.0)
        with pytest.raises(errors.QueueNameExists):
            strong_account.sqs.create_queue("q", visibility_timeout=20.0)

    def test_missing_queue_rejected(self, strong_account):
        with pytest.raises(errors.NoSuchQueue):
            strong_account.sqs.send_message("sqs://queues/ghost", "x")


class TestSendReceive:
    def test_roundtrip(self, queue):
        account, url = queue
        account.sqs.send_message(url, "hello")
        received = account.sqs.receive_message(url, max_messages=10)
        assert [m.body for m in received] == ["hello"]

    def test_message_size_limit(self, queue):
        """§2.3: 'SQS imposes an 8KB limit on the size of the message'."""
        account, url = queue
        with pytest.raises(errors.MessageTooLong):
            account.sqs.send_message(url, "x" * (8 * KB + 1))
        account.sqs.send_message(url, "x" * (8 * KB))

    def test_non_text_rejected(self, queue):
        account, url = queue
        with pytest.raises(errors.InvalidMessageContents):
            account.sqs.send_message(url, b"bytes")  # type: ignore[arg-type]

    def test_receive_batch_limit(self, queue):
        """§2.3: at most 10 messages per ReceiveMessage."""
        account, url = queue
        for i in range(20):
            account.sqs.send_message(url, f"m{i}")
        received = account.sqs.receive_message(url, max_messages=10)
        assert len(received) <= 10
        with pytest.raises(ValueError):
            account.sqs.receive_message(url, max_messages=11)

    def test_sampling_can_miss_messages(self, strong_account):
        """§2.3: a receive samples hosts; repeat to get everything."""
        account = strong_account
        sqs = account.sqs
        # Recreate with partial sampling for this test.
        from repro.aws.sqs import SQSService

        sampled = SQSService(
            account.clock, __import__("random").Random(5), account.meter,
            host_count=8, sample_fraction=0.5,
        )
        url = sampled.create_queue("s")
        for i in range(16):
            sampled.send_message(url, f"m{i}")
        first = sampled.receive_message(url, max_messages=10)
        assert len(first) < 16  # one receive cannot see everything
        # Draining with repeated receives eventually finds all messages.
        seen = {m.message_id for m in first}
        for _ in range(50):
            for message in sampled.receive_message(url, max_messages=10):
                seen.add(message.message_id)
        assert len(seen) == 16


class TestVisibilityTimeout:
    def test_received_message_hidden_until_timeout(self, queue):
        """§2.3: 'SQS blocks the message from other clients'."""
        account, url = queue
        account.sqs.send_message(url, "m")
        first = account.sqs.receive_message(url)
        assert len(first) == 1
        assert account.sqs.receive_message(url, max_messages=10) == []
        account.clock.advance(31.0)
        reappeared = account.sqs.receive_message(url, max_messages=10)
        assert [m.body for m in reappeared] == ["m"]
        assert reappeared[0].receive_count == 2

    def test_delete_before_timeout_removes_forever(self, queue):
        account, url = queue
        account.sqs.send_message(url, "m")
        message = account.sqs.receive_message(url)[0]
        account.sqs.delete_message(url, message.receipt_handle)
        account.clock.advance(100.0)
        assert account.sqs.receive_message(url, max_messages=10) == []
        assert account.sqs.exact_message_count(url) == 0

    def test_per_receive_timeout_override(self, queue):
        account, url = queue
        account.sqs.send_message(url, "m")
        account.sqs.receive_message(url, visibility_timeout=5.0)
        account.clock.advance(6.0)
        assert len(account.sqs.receive_message(url, max_messages=10)) == 1


class TestDeleteMessage:
    def test_stale_handle_rejected_after_redelivery(self, queue):
        account, url = queue
        account.sqs.send_message(url, "m")
        first = account.sqs.receive_message(url)[0]
        account.clock.advance(31.0)
        second = account.sqs.receive_message(url)[0]
        with pytest.raises(errors.ReceiptHandleInvalid):
            account.sqs.delete_message(url, first.receipt_handle)
        account.sqs.delete_message(url, second.receipt_handle)

    def test_delete_already_deleted_succeeds(self, queue):
        account, url = queue
        account.sqs.send_message(url, "m")
        message = account.sqs.receive_message(url)[0]
        account.sqs.delete_message(url, message.receipt_handle)
        account.sqs.delete_message(url, message.receipt_handle)  # idempotent

    def test_malformed_handle_rejected(self, queue):
        account, url = queue
        with pytest.raises(errors.ReceiptHandleInvalid):
            account.sqs.delete_message(url, "not-a-handle")


class TestApproximateCount:
    def test_approximation_near_truth(self, queue):
        account, url = queue
        for i in range(40):
            account.sqs.send_message(url, f"m{i}")
        approx = account.sqs.approximate_number_of_messages(url)
        assert 20 <= approx <= 60  # approximate, not exact (§2.3)

    def test_invisible_messages_not_counted(self, queue):
        account, url = queue
        for i in range(10):
            account.sqs.send_message(url, f"m{i}")
        drained = []
        while True:
            batch = account.sqs.receive_message(url, max_messages=10)
            if not batch:
                break
            drained.extend(batch)
        assert account.sqs.approximate_number_of_messages(url) == 0


class TestRetention:
    def test_messages_older_than_four_days_vanish(self, queue):
        """§4.3: 'SQS automatically deletes messages older than four days'."""
        account, url = queue
        account.sqs.send_message(url, "old")
        account.clock.advance(4 * SECONDS_PER_DAY + 1)
        account.sqs.send_message(url, "fresh")
        bodies = {m.body for m in account.sqs.receive_message(url, max_messages=10)}
        assert bodies == {"fresh"}
        assert account.sqs.messages_expired == 1

    def test_expiry_across_hosts_drops_exactly_the_old_prefix(self, queue):
        """Three enqueue waves spread over all hosts: one request past
        the first two waves' retention drops exactly those messages (what
        a scan of every stored message would find), bills their bytes
        off the stored level, and leaves the live wave untouched."""
        from repro.aws import billing

        account, url = queue
        sqs = account.sqs
        waves = [[f"w{wave}-{i:02d}-" + "x" * i for i in range(40)] for wave in range(3)]
        for bodies in waves[:2]:
            for body in bodies:
                sqs.send_message(url, body)
            account.clock.advance(SECONDS_PER_DAY)
        account.clock.advance(2 * SECONDS_PER_DAY)  # wave 0 is 4 days old, wave 1 is 3
        for body in waves[2]:
            sqs.send_message(url, body)
        hosts = sqs._queues[url].hosts
        assert sum(1 for host in hosts if host) > 1  # the waves interleave on several hosts
        assert sqs.messages_expired == 0

        def stored():
            return account.meter.stored_bytes(billing.SQS)

        account.clock.advance(1)  # wave 0 is now past retention
        before = stored()
        assert sqs.exact_message_count(url) == 80
        assert sqs.messages_expired == 40
        assert before - stored() == sum(len(b.encode()) for b in waves[0])

        account.clock.advance(SECONDS_PER_DAY)  # wave 1 follows
        before = stored()
        sqs.send_message(url, "")
        assert sqs.messages_expired == 80
        assert before - stored() == sum(len(b.encode()) for b in waves[1])
        remaining = {m.body for host in hosts for m in host.values()}
        assert remaining == set(waves[2]) | {""}


class TestInterleavedClients:
    """Many clients sharing one queue, their requests interleaved
    round-robin on one thread (the simulation's only kind of
    concurrency): accounting is exact and a message is claimed once."""

    def test_interleaved_senders_lose_no_messages(self, queue):
        account, url = queue
        senders, per_sender = 8, 25
        for i in range(per_sender):
            for sender in range(senders):
                account.sqs.send_message(url, f"w{sender}-m{i}")
        assert account.sqs.exact_message_count(url) == senders * per_sender
        sent = account.meter.snapshot().request_count("sqs", "SendMessage")
        assert sent == senders * per_sender

    def test_interleaved_receivers_never_share_a_message(self, queue):
        account, url = queue
        total = 60
        for i in range(total):
            account.sqs.send_message(url, f"m{i}")
        per_receiver: list[list[str]] = [[] for _ in range(6)]
        draining = list(per_receiver)
        while draining:
            for mine in list(draining):
                batch = account.sqs.receive_message(url, max_messages=5)
                if not batch:
                    draining.remove(mine)
                mine.extend(m.body for m in batch)
        # Visibility timeouts hide a received message from everyone else,
        # so each body is claimed exactly once.
        claimed = [body for mine in per_receiver for body in mine]
        assert sorted(claimed) == sorted(f"m{i}" for i in range(total))


class _WalkEveryRequest(SQSService):
    """The reference: the expiry walk on every request, whatever the
    queue's earliest-enqueue bound says."""

    def _expire_old_messages(self, queue):
        queue.earliest = -float("inf")
        super()._expire_old_messages(queue)


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(1, 3)),
        st.tuples(st.just("receive"), st.integers(1, 10)),
        st.tuples(st.just("delete"), st.integers(0, 50)),
        st.tuples(st.just("advance"), st.integers(0, 60)),
    ),
    max_size=60,
)


def _deploy(cls):
    clock = SimClock()
    meter = billing.Meter(clock)
    sqs = cls(clock, random.Random(7), meter, host_count=3, retention_seconds=100.0)
    return clock, meter, sqs, sqs.create_queue("q")


def _request(world, step, n, handles):
    """Issue one request; return the receipt handles it delivered (or
    failed to delete) and the queue's accounting right after it."""
    _, meter, sqs, url = world
    handled = []
    if step == "send":
        sqs.send_message_batch(url, [f"m{n}-{i}" * (i + 1) for i in range(n)])
    elif step == "receive":
        handled = [m.receipt_handle for m in sqs.receive_message(url, max_messages=n)]
    elif handles:  # a superseded handle fails its entry, not the call
        handled = sqs.delete_message_batch(url, [handles[n % len(handles)]])
    return handled, (
        sqs.messages_expired,
        meter.stored_bytes(billing.SQS),
        sqs.exact_message_count(url),
    )


@given(_STEPS)
# Survivors of a walk enqueued at different times on different hosts:
# the bound must be the earliest of them, not the last host's.
@example([("send", 2), ("advance", 10), ("send", 1), ("advance", 50), ("send", 3),
          ("advance", 50), ("receive", 1), ("advance", 10), ("send", 1)])
def test_bounded_expiry_matches_a_walk_on_every_request(steps):
    """Sends, receives and deletes interleaved with clock steps past a
    100 s retention: after every request the expired count, the metered
    stored bytes and the message count equal the reference's."""
    fast, reference = _deploy(SQSService), _deploy(_WalkEveryRequest)
    handles: list[str] = []
    for step, n in steps:
        if step == "advance":
            fast[0].advance(n)
            reference[0].advance(n)
            continue
        observed = _request(fast, step, n, handles)
        assert observed == _request(reference, step, n, handles)
        if step == "receive":
            handles.extend(observed[0])
