"""Unit tests for the Q1–Q4 query engine on every architecture, validated against oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aws.s3 import S3GetResult
from repro.blob import BytesBlob
from repro.core.base import fetch_overflow
from repro.passlib import serializer
from repro.passlib.capture import PassSystem
from repro.passlib.records import (
    Attr,
    FlushEvent,
    ObjectRef,
    ProvenanceBundle,
    ProvenanceRecord,
)
from repro.query.ancestry import AncestryWalker
from repro.query.engine import SimpleDBEngine
from repro.sharding import ShardRouter
from repro.sim import Simulation
from tests.conftest import make_architecture


def blast_like_trace(n_queries=6):
    pas = PassSystem(workload="qtest")
    pas.stage_input("db/nr", b"database")
    for i in range(n_queries):
        with pas.process("blast", argv=f"-q {i}") as blast:
            blast.read("db/nr")
            blast.write(f"out/{i}.hits", f"hits{i}".encode())
            blast.close(f"out/{i}.hits")
        with pas.process("summarize") as post:
            post.read(f"out/{i}.hits")
            post.write(f"out/{i}.summary", f"sum{i}".encode())
            post.close(f"out/{i}.summary")
    return pas.drain_flushes()


@pytest.fixture
def trace6():
    return blast_like_trace()


@pytest.fixture
def oracle(trace6):
    return AncestryWalker(b for e in trace6 for b in e.all_bundles())


def a1_with(events) -> Simulation:
    """An A1 cloud holding ``events``."""
    sim = Simulation("s3", seed=1234)
    sim.store_events(events, collect=False)
    return sim


def overwritten_trace():
    """``doc/a`` written twice, each time by a process whose argument
    list spills to its own S3 object."""
    pas = PassSystem(workload="q1")
    for run in range(2):
        with pas.process(f"writer{run}", argv="x" * 1500) as writer:
            writer.write("doc/a", f"text{run}".encode())
            writer.close("doc/a")
    return pas.drain_flushes()


class TestA1Engine:
    @pytest.fixture
    def loaded(self, trace6):
        return a1_with(trace6)

    def test_q2_matches_oracle(self, loaded, oracle):
        engine = loaded.query_engine()
        measurement = engine.q2_outputs_of("blast")
        assert set(measurement.refs) == oracle.outputs_of("blast")

    def test_q3_matches_oracle(self, loaded, oracle):
        engine = loaded.query_engine()
        measurement = engine.q3_descendants_of("blast")
        assert set(measurement.refs) == oracle.descendants_of_outputs("blast")

    def test_scan_cost_scales_with_objects(self, loaded):
        engine = loaded.query_engine()
        measurement = engine.q2_outputs_of("blast")
        # LIST + one HEAD per data object (13 objects here).
        assert measurement.operations >= 13

    def test_q1_all_covers_every_subject(self, loaded, trace6):
        engine = loaded.query_engine()
        measurement = engine.q1_all()
        file_refs = {e.subject for e in trace6}
        # A1 keeps only current versions: every current file is covered.
        assert file_refs <= set(measurement.refs)

    @pytest.mark.parametrize(
        "ref, hit",
        [
            (ObjectRef("doc/a", 2), True),    # the version the object holds
            (ObjectRef("doc/a", 1), False),   # overwritten (ROADMAP item 7)
            (ObjectRef("doc/none", 1), False),
        ],
        ids=["current", "older", "unknown"],
    )
    def test_q1_is_one_head_plus_a_get_per_pointer(self, ref, hit):
        sim = a1_with(overwritten_trace())
        metadata = sim.account.s3.head("pass-data", "doc/a").metadata
        pointers = sum(value.startswith(serializer.POINTER_PREFIX) for value in metadata.values())
        assert pointers >= 1
        measurement = sim.query_engine().q1(ref)
        assert measurement.refs == ((ref,) if hit else ())
        assert measurement.usage.request_count("s3", "HEAD") == 1
        assert measurement.usage.request_count("s3", "GET") == (pointers if hit else 0)
        assert measurement.operations == 1 + (pointers if hit else 0)
        assert measurement.per_backend == (("s3", measurement.operations, measurement.bytes_out),)

    def test_q4_is_one_scan_filtered_to_the_file_versions_in_range(self):
        sim = a1_with(overwritten_trace())
        engine = sim.query_engine()
        stored = sim.store.stored_provenance()
        expected = {ref for ref in stored if ref.name == "doc/a" and 2 <= ref.version <= 3}
        assert expected == {ObjectRef("doc/a", 2)}
        measurement = engine.q4_time_range(2, 3)
        assert set(measurement.refs) == expected
        assert measurement.operations == engine.q1_all().operations


class TestSimpleDBEngine:
    @pytest.fixture
    def loaded(self, strong_account, trace6):
        store = make_architecture("s3+simpledb", strong_account)
        store.store_trace(trace6)
        return strong_account

    def test_q2_matches_oracle(self, loaded, oracle):
        engine = SimpleDBEngine(loaded)
        measurement = engine.q2_outputs_of("blast")
        assert set(measurement.refs) == oracle.outputs_of("blast")

    def test_q2_is_selective(self, loaded, trace6):
        engine = SimpleDBEngine(loaded)
        measurement = engine.q2_outputs_of("blast")
        assert measurement.operations < len(trace6) / 2

    def test_q3_matches_oracle(self, loaded, oracle):
        engine = SimpleDBEngine(loaded)
        measurement = engine.q3_descendants_of("blast")
        assert set(measurement.refs) == oracle.descendants_of_outputs("blast")

    def test_q3_costs_more_than_q2(self, loaded):
        engine = SimpleDBEngine(loaded)
        q2 = engine.q2_outputs_of("blast")
        q3 = engine.q3_descendants_of("blast")
        assert q3.operations > q2.operations  # iterative BFS (§5)

    def test_q1_single_lookup(self, loaded, trace6):
        engine = SimpleDBEngine(loaded)
        measurement = engine.q1(trace6[-1].subject)
        assert measurement.result_count == 1
        assert measurement.operations <= 2

    def test_q1_all_one_lookup_per_item(self, loaded, strong_account):
        engine = SimpleDBEngine(loaded)
        measurement = engine.q1_all()
        n_items = strong_account.simpledb.item_count("pass-prov")
        assert measurement.operations >= n_items  # §5: one query per item

    def test_frontier_batching(self, loaded):
        engine = SimpleDBEngine(loaded, ref_batch=2)
        measurement = engine.q3_descendants_of("blast")
        # Small batches force more queries; results stay correct.
        wide = SimpleDBEngine(loaded, ref_batch=50)
        assert set(measurement.refs) == set(
            wide.q3_descendants_of("blast").refs
        )
        assert measurement.operations > 3

    def test_unknown_program_empty(self, loaded):
        engine = SimpleDBEngine(loaded)
        measurement = engine.q2_outputs_of("nonexistent")
        assert measurement.result_count == 0


class TestEnginesAgree:
    def test_same_results_across_backends(self, trace6):
        """A1's scan and A2's index answer Q2/Q3 identically.

        Each architecture gets its own cloud account — they both claim
        the data bucket's per-object metadata, so sharing one account
        would have A2's nonce-only metadata clobber A1's provenance.
        """
        scan_sim = Simulation("s3", seed=1)
        indexed_sim = Simulation("s3+simpledb", seed=2)
        for sim in (scan_sim, indexed_sim):
            sim.store_events(trace6, collect=False)
        scan = scan_sim.query_engine()
        indexed = indexed_sim.query_engine()
        assert set(scan.q2_outputs_of("blast").refs) == set(
            indexed.q2_outputs_of("blast").refs
        )
        assert set(scan.q3_descendants_of("blast").refs) == set(
            indexed.q3_descendants_of("blast").refs
        )


class TestQuoteEscaping:
    """Interpolated literals must survive embedded apostrophes.

    ``o'brien``-style program and path names previously broke (or
    silently mismatched) the bracket/SELECT renderings, because the wire
    languages escape ``'`` as ``''``.
    """

    @staticmethod
    def quoted_trace():
        pas = PassSystem(workload="qtest")
        pas.stage_input("data/o'brien's input.dat", b"raw")
        with pas.process("o'brien", argv="--run") as proc:
            proc.read("data/o'brien's input.dat")
            proc.write("out/o'brien result.dat", b"cooked")
            proc.close("out/o'brien result.dat")
        with pas.process("digest") as post:
            post.read("out/o'brien result.dat")
            post.write("out/final.dat", b"done")
            post.close("out/final.dat")
        return pas.drain_flushes()

    @pytest.fixture
    def loaded(self, strong_account):
        store = make_architecture("s3+simpledb", strong_account)
        store.store_trace(self.quoted_trace())
        return strong_account

    def test_q2_with_apostrophes(self, loaded):
        engine = SimpleDBEngine(loaded)
        measurement = engine.q2_outputs_of("o'brien")
        assert {ref.path for ref in measurement.refs} == {"out/o'brien result.dat"}

    def test_q3_closure_crosses_quoted_paths(self, loaded):
        # Phase 2 interpolates the *refs* (paths with apostrophes) into
        # the IN list / disjunction: the closure must still reach the
        # plainly named descendant.
        engine = SimpleDBEngine(loaded)
        measurement = engine.q3_descendants_of("o'brien")
        assert {ref.path for ref in measurement.refs} == {
            "out/o'brien result.dat",
            "out/final.dat",
        }

    def test_quote_literal_rendering(self):
        from repro.aws.sdb_query import quote_literal

        assert quote_literal("blast") == "'blast'"
        assert quote_literal("o'brien") == "'o''brien'"
        assert quote_literal("''") == "''''''"


class TestScanRobustness:
    """A malformed nonce must not abort the whole A1 scan."""

    @pytest.fixture
    def loaded(self, trace6):
        return a1_with(trace6)

    @staticmethod
    def corrupt_nonce(account, key, nonce):
        from repro.core.base import DATA_BUCKET

        record = account.s3.get(DATA_BUCKET, key)
        metadata = dict(record.metadata)
        metadata["nonce"] = nonce
        account.s3.put(DATA_BUCKET, key, record.bytes(), metadata)
        account.quiesce()

    @pytest.mark.parametrize("bad", ["", "garbage", "v12x", "vv7"])
    def test_scan_skips_and_counts_bad_nonces(self, loaded, bad):
        engine = loaded.query_engine()
        healthy = {ref.path for ref in engine.q1_all().refs}
        self.corrupt_nonce(loaded.account, "out/0.hits", bad)
        measurement = engine.q1_all()
        assert engine.skipped_items == 1
        paths = {ref.path for ref in measurement.refs}
        # The scan completes: only bundles solely hosted on the corrupted
        # object's metadata are lost (its subject survives via the
        # ancestors piggybacked on downstream objects).
        assert paths <= healthy
        lost = healthy - paths
        assert lost
        assert lost <= {"out/0.hits", "proc/blast.1000"}

    def test_skip_counter_resets_between_scans(self, loaded):
        engine = loaded.query_engine()
        self.corrupt_nonce(loaded.account, "out/0.hits", "garbage")
        engine.q1_all()
        assert engine.skipped_items == 1
        self.corrupt_nonce(loaded.account, "out/0.hits", "v0001")
        engine.q1_all()
        assert engine.skipped_items == 0

    @pytest.mark.parametrize("body", [b"not json", b"[1, 2]"])
    def test_scan_and_oracle_skip_a_malformed_bundle_object(self, loaded, body):
        # A hand-written bundle pointer at an object that is not a JSON
        # object of strings: scans skip it like a bad nonce, the oracle
        # reports no provenance for it, a targeted read raises.
        from repro.core.base import DATA_BUCKET
        from repro.errors import ReadCorrectnessViolation

        store = loaded.store
        engine = loaded.query_engine()
        healthy = {ref.path for ref in engine.q1_all().refs}
        s3 = loaded.account.s3
        s3.put(DATA_BUCKET, ".pass/overflow/hand-written", body, {})
        record = s3.get(DATA_BUCKET, "out/0.hits")
        metadata = {
            serializer.BUNDLE_KEY: serializer.POINTER_PREFIX + ".pass/overflow/hand-written",
            "nonce": record.metadata["nonce"],
        }
        s3.put(DATA_BUCKET, "out/0.hits", record.bytes(), metadata)
        loaded.account.quiesce()
        assert {ref.path for ref in engine.q1_all().refs} < healthy
        assert engine.skipped_items == 1
        outputs = {ref.path for ref in engine.q2_outputs_of("blast").refs}
        assert engine.skipped_items == 1
        assert outputs and "out/0.hits" not in outputs
        assert "out/0.hits" not in {ref.path for ref in store.stored_provenance()}
        with pytest.raises(ReadCorrectnessViolation, match="malformed bundle object"):
            store.head_provenance("out/0.hits")

    @pytest.mark.parametrize("architecture", ["s3", "s3+simpledb"])
    def test_targeted_read_surfaces_malformed_nonce(
        self, strong_account, trace6, architecture
    ):
        # A targeted read cannot skip like a scan: it must raise the
        # domain error, not a bare ValueError from int().
        from repro.errors import ReadCorrectnessViolation

        store = make_architecture(architecture, strong_account)
        store.store_trace(trace6)
        self.corrupt_nonce(strong_account, "out/0.hits", "vv7")
        with pytest.raises(ReadCorrectnessViolation):
            store.read("out/0.hits")


def spilling_event(name: str, k: int) -> FlushEvent:
    """A file version whose own item spills ``k`` values (> 1 KB each),
    spread over two attributes so the fetch order is not one list's."""
    subject = ObjectRef(name, 1)
    records = [ProvenanceRecord(subject, Attr.TYPE, "file")]
    for index in range(k):
        attribute = "note" if index % 2 else Attr.ARGV
        records.append(ProvenanceRecord(subject, attribute, f"{index}" * 1500))
    bundle = ProvenanceBundle(subject=subject, kind="file", records=tuple(records))
    return FlushEvent(bundle=bundle, data=BytesBlob(name.encode()))


POINT_READ = {"sdb": ("simpledb", "GetAttributes"), "ddb": ("dynamodb", "GetItem")}


class TestQ1Spend:
    """§5 prices Q1 at one point read per item plus one S3 GET per
    spilled value — and nothing else."""

    K = 3

    @pytest.fixture(params=sorted(POINT_READ))
    def placement(self, request):
        return request.param

    @pytest.fixture
    def loaded(self, strong_account, trace6, placement):
        router = ShardRouter(1, placement=placement)
        store = make_architecture("s3+simpledb", strong_account, router=router)
        events = [*trace6, spilling_event("big/other", 2), spilling_event("big/doc", self.K)]
        store.store_trace(events)
        return SimpleDBEngine(strong_account, router=router), events

    def test_q1_point_read_plus_one_get_per_pointer(self, loaded, placement):
        engine, events = loaded
        measurement = engine.q1(events[-1].subject)
        assert measurement.refs == (events[-1].subject,)
        service, op = POINT_READ[placement]
        assert measurement.usage.request_count(service, op) == 1
        assert measurement.usage.request_count("s3", "GET") == self.K
        assert measurement.operations == 1 + self.K

    def test_q1_all_gets_every_pointer_once(self, loaded):
        engine, events = loaded
        pointers = sum(
            len(item.overflow)
            for event in events
            for item in serializer.to_simpledb_items(event)
        )
        assert pointers == 2 + self.K
        measurement = engine.q1_all()
        assert measurement.usage.request_count("s3", "GET") == pointers
        assert measurement.usage.request_count("s3") == pointers

    def test_q1_decodes_no_bundle(self, loaded, monkeypatch):
        engine, events = loaded
        built = []
        post_init = ProvenanceBundle.__post_init__

        def counting(bundle):
            built.append(bundle.subject)
            post_init(bundle)

        monkeypatch.setattr(ProvenanceBundle, "__post_init__", counting)
        assert engine.q1(events[-1].subject).result_count == 1
        assert engine.q1_all().result_count >= len(events)
        assert built == []


@pytest.mark.parametrize("placement", sorted(POINT_READ))
def test_q1_gets_spilled_values_without_reading_their_bodies(
    strong_account, placement, monkeypatch
):
    """Items with 0, 1 and 3 spilled values: q1 and q1_all issue exactly
    that many S3 GETs, and bill the s3 bytes the decoders' GETs
    (``fetch_overflow``) bill, without materialising a body."""
    router = ShardRouter(1, placement=placement)
    store = make_architecture("s3+simpledb", strong_account, router=router)
    events = {k: spilling_event(f"big/k{k}", k) for k in (0, 1, 3)}
    store.store_trace(list(events.values()))
    engine = SimpleDBEngine(strong_account, router=router)

    def decoders_spend(event):
        keys = [o.key for item in serializer.to_simpledb_items(event) for o in item.overflow]
        with strong_account.meter.scoped() as scope:
            for key in keys:
                fetch_overflow(strong_account, key)
        return len(keys), scope.transfer_out("s3")

    expected = {k: decoders_spend(event) for k, event in events.items()}
    assert [gets for gets, _ in expected.values()] == [0, 1, 3]
    bodies = []
    monkeypatch.setattr(S3GetResult, "bytes", lambda result: bodies.append(result.key))

    def spend(measurement):
        usage = measurement.usage
        return usage.request_count("s3", "GET"), usage.transfer_out("s3")

    for k, event in events.items():
        assert spend(engine.q1(event.subject)) == expected[k]
    assert spend(engine.q1_all()) == tuple(map(sum, zip(*expected.values())))
    assert bodies == []


_PLAIN = ObjectRef("x", 1).encode()  # a valid value for every attribute
item_values = st.lists(
    st.one_of(st.just(_PLAIN), st.integers(0, 999).map(lambda n: f"@s3:k/{n:03d}")),
    min_size=1,
    max_size=3,
)
item_attributes = st.dictionaries(
    st.sampled_from(
        [Attr.TYPE, Attr.INPUT, Attr.NAME, Attr.ENV, Attr.ARGV, Attr.MD5, Attr.NONCE, "z"]
    ),
    item_values.map(tuple),
)


@settings(max_examples=60, deadline=None)
@given(attrs=item_attributes)
def test_overflow_keys_is_bundle_from_item_fetch_order(attrs):
    fetched = []

    def fetch(key):
        fetched.append(key)
        return _PLAIN

    serializer.bundle_from_item("doc_v0001", attrs, fetch)
    assert serializer.overflow_keys(attrs) == tuple(fetched)
