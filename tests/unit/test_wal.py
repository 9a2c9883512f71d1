"""Unit tests for WAL record formats and transaction assembly."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.aws.sqs import ReceivedMessage
from repro.blob import BytesBlob, SyntheticBlob
from repro.core.base import temp_key
from repro.core.wal import (
    MESSAGE_BUDGET,
    TransactionAssembler,
    build_wal_bundle,
    parse_record,
    prov_records,
)
from repro.passlib.capture import PassSystem
from repro.passlib.records import FlushEvent, ObjectRef, ProvenanceBundle, ProvenanceRecord
from repro.passlib.serializer import SdbItemPayload
from repro.units import KB
from tests.oracles import reference_dumps, reference_prov_chunks, reference_wal_bundle


def make_event(env_bytes=0, data=b"content"):
    pas = PassSystem(workload="wal")
    env = {"BIG": "x" * env_bytes} if env_bytes else {}
    with pas.process("tool", env=env) as proc:
        proc.write("out.dat", data)
        return proc.close("out.dat")


def as_received(bundle, start_id=0):
    return [
        ReceivedMessage(
            message_id=f"m{start_id + i}",
            body=body,
            receipt_handle=f"h{start_id + i}",
            receive_count=1,
            enqueued_at=0.0,
        )
        for i, body in enumerate(bundle.messages)
    ]


class TestBuildWalBundle:
    def test_structure(self):
        bundle = build_wal_bundle(make_event(), "txn-1")
        kinds = [json.loads(m)["t"] for m in bundle.messages]
        assert kinds[0] == "begin"
        assert kinds[-1] == "commit"
        assert "data" in kinds
        assert "prov" in kinds

    def test_begin_count_matches(self):
        bundle = build_wal_bundle(make_event(), "txn-1")
        begin = json.loads(bundle.messages[0])
        assert begin["n"] == len(bundle.messages) - 1 == bundle.record_count

    def test_data_staged_as_temp_object(self):
        """§4.3: large data cannot ride the 8 KB queue; stage in S3."""
        event = make_event(data=SyntheticBlob("big", 100 * KB).read(0, 1) or b"x")
        bundle = build_wal_bundle(make_event(), "txn-9")
        (temp_key, blob), *rest = bundle.temp_puts
        assert temp_key.startswith(".pass/tmp/txn-9/")
        data_record = next(
            json.loads(m) for m in bundle.messages if json.loads(m)["t"] == "data"
        )
        assert data_record["temp"] == temp_key
        assert data_record["nonce"] == "v0001"

    def test_all_messages_fit_sqs_limit(self):
        bundle = build_wal_bundle(make_event(env_bytes=6 * KB), "txn-2")
        for message in bundle.messages:
            assert len(message.encode()) <= 8 * KB

    def test_large_values_ride_as_ovfl_messages(self):
        bundle = build_wal_bundle(make_event(env_bytes=3 * KB), "txn-3")
        kinds = [json.loads(m)["t"] for m in bundle.messages]
        assert "ovfl" in kinds

    def test_huge_values_staged_like_data(self):
        bundle = build_wal_bundle(make_event(env_bytes=9 * KB), "txn-4")
        kinds = [json.loads(m)["t"] for m in bundle.messages]
        assert "ovfl_ptr" in kinds
        assert len(bundle.temp_puts) == 2  # data + staged overflow value

    def test_many_attributes_chunked(self):
        pas = PassSystem()
        for i in range(60):
            pas.stage_input(f"in{i}", b"x")
        pas.drain_flushes()
        with pas.process("wide", env={"E": "v" * 900}) as proc:
            for i in range(60):
                proc.read(f"in{i}")
            proc.write("out", b"y")
            event = proc.close("out")
        bundle = build_wal_bundle(event, "txn-5")
        for message in bundle.messages:
            assert len(message.encode()) <= MESSAGE_BUDGET + 256


#: One- to four-byte UTF-8, and characters JSON has to escape.
_UNITS = st.sampled_from(["a", " ", '"', "\\", "\n", "é", "日", "😀"])
#: Value sizes in UTF-8 bytes: mostly just under the 1 KB spill
#: threshold (the attributes that fill a message), else tiny, spilled,
#: or a whole message's worth (``ovfl_ptr``).
_BYTES = st.one_of(
    st.integers(600, 1024),
    st.integers(600, 1024),
    st.integers(0, 60),
    st.integers(1025, 1500),
    st.integers(7000, 9000),
)


@st.composite
def _values(draw) -> str:
    unit = draw(_UNITS)
    return draw(st.text("xyz", max_size=3)) + unit * (draw(_BYTES) // len(unit.encode()))


@st.composite
def _bundles(draw, name: str, kind: str, max_records: int):
    subject = ObjectRef(name, draw(st.integers(1, 3)))
    records = [
        ProvenanceRecord(
            subject,
            draw(st.sampled_from(["env", "argv", "name", "clé"])),
            draw(_values()),
        )
        for _ in range(draw(st.one_of(st.integers(0, 3), st.integers(7, max_records))))
    ]
    return ProvenanceBundle(subject=subject, kind=kind, records=tuple(records))


@st.composite
def _events(draw):
    ancestors = [
        draw(_bundles(f"proc/{j}", "process", max_records=24))
        for j in range(draw(st.integers(0, 2)))
    ]
    return FlushEvent(
        bundle=draw(_bundles("out/ünï.dat", "file", max_records=24)),
        data=BytesBlob(draw(st.binary(max_size=8))),
        ancestors=tuple(ancestors),
    )


class TestDumpOnceMatchesTheGreedySplitter:
    @given(event=_events(), txn_id=st.sampled_from(["stats", "client-0.e00002-000017"]))
    def test_bundle_is_byte_identical_to_the_reference(self, event, txn_id):
        bundle = build_wal_bundle(event, txn_id)
        messages, temp_keys = reference_wal_bundle(event, txn_id)
        assert list(bundle.messages) == messages
        assert [key for key, _ in bundle.temp_puts] == temp_keys

    @staticmethod
    def _item(attributes) -> SdbItemPayload:
        return SdbItemPayload(item_name="f_v0001", attributes=tuple(attributes), overflow=())

    def _assert_matches_reference(self, payload) -> list[str]:
        bodies = prov_records("txn-1", payload)
        assert bodies == [reference_dumps(c) for c in reference_prov_chunks("txn-1", payload)]
        return bodies

    def test_empty_item_logs_no_prov_record(self):
        assert self._assert_matches_reference(self._item([])) == []

    def test_one_oversized_attribute_still_gets_its_own_record(self):
        (body,) = self._assert_matches_reference(self._item([("env", "x" * (9 * KB))]))
        assert len(body) > MESSAGE_BUDGET

    @pytest.mark.parametrize("filler", ["x", "日"])
    def test_exact_fit_is_the_last_single_record(self, filler):
        """``len(body) + 1 == MESSAGE_BUDGET`` still fits one record; one
        more attribute byte is where the greedy split first cuts."""
        head = [("k", filler * 150)] * 7
        empty_tail = len(prov_records("txn-1", self._item([*head, ("pad", "")]))[0])
        pad = MESSAGE_BUDGET - 1 - empty_tail
        assert pad > 0
        (fit,) = self._assert_matches_reference(self._item([*head, ("pad", "p" * pad)]))
        assert len(fit) + 1 == MESSAGE_BUDGET
        over = self._assert_matches_reference(self._item([*head, ("pad", "p" * (pad + 1))]))
        assert len(over) == 2

    def test_multi_chunk_split_keeps_every_attribute_in_order(self):
        attributes = [(f"a{i}", "é" * 400) for i in range(30)]
        bodies = self._assert_matches_reference(self._item(attributes))
        assert len(bodies) > 2
        assert all(len(body.encode()) <= MESSAGE_BUDGET for body in bodies)
        rejoined = [tuple(pair) for body in bodies for pair in json.loads(body)["attrs"]]
        assert rejoined == attributes


class TestParseRecord:
    def test_parse_valid(self):
        record = parse_record('{"t":"commit","txn":"a"}')
        assert record["t"] == "commit"

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_record('{"no":"type"}')


class TestTransactionAssembler:
    def test_complete_transaction(self):
        bundle = build_wal_bundle(make_event(), "txn-1")
        assembler = TransactionAssembler()
        for message in as_received(bundle):
            assembler.add(message)
        complete = assembler.complete()
        assert [t.txn_id for t in complete] == ["txn-1"]
        txn = complete[0]
        assert txn.data is not None
        assert txn.items()

    def test_out_of_order_assembly(self):
        bundle = build_wal_bundle(make_event(), "txn-1")
        assembler = TransactionAssembler()
        for message in reversed(as_received(bundle)):
            assembler.add(message)
        assert len(assembler.complete()) == 1

    def test_duplicates_do_not_inflate(self):
        bundle = build_wal_bundle(make_event(), "txn-1")
        assembler = TransactionAssembler()
        messages = as_received(bundle)
        for message in messages + messages:  # at-least-once delivery
            assembler.add(message)
        txn = assembler.complete()[0]
        assert txn.records_seen == txn.expected_records

    def test_missing_commit_means_uncommitted(self):
        bundle = build_wal_bundle(make_event(), "txn-1")
        assembler = TransactionAssembler()
        for message in as_received(bundle)[:-1]:  # drop commit
            assembler.add(message)
        assert assembler.complete() == []
        assert [t.txn_id for t in assembler.uncommitted()] == ["txn-1"]

    def test_commit_without_all_records_is_pending(self):
        bundle = build_wal_bundle(make_event(env_bytes=3 * KB), "txn-1")
        messages = as_received(bundle)
        assembler = TransactionAssembler()
        assembler.add(messages[0])          # begin
        assembler.add(messages[-1])         # commit
        assert assembler.complete() == []
        assert [t.txn_id for t in assembler.pending_commits()] == ["txn-1"]

    def test_items_regroup_chunked_attributes(self):
        pas = PassSystem()
        with pas.process("tool", env={"E1": "a" * 900, "E2": "b" * 900}) as proc:
            proc.write("out", b"y")
            event = proc.close("out")
        bundle = build_wal_bundle(event, "txn-6")
        assembler = TransactionAssembler()
        for message in as_received(bundle):
            assembler.add(message)
        txn = assembler.complete()[0]
        names = [name for name, _ in txn.items()]
        assert event.subject.item_name in names

    def test_interleaved_transactions(self):
        b1 = build_wal_bundle(make_event(), "txn-a")
        b2 = build_wal_bundle(make_event(), "txn-b")
        assembler = TransactionAssembler()
        m1, m2 = as_received(b1), as_received(b2, start_id=100)
        for pair in zip(m1, m2):
            for message in pair:
                assembler.add(message)
        assert [t.txn_id for t in assembler.complete()] == ["txn-a", "txn-b"]
