"""Executable Table 1: property checkers for the three architectures.

The paper defines three required properties (§3) and asserts which
architecture satisfies which (Table 1):

===================  =========  ===========  ==============  ===============
architecture         atomicity  consistency  causal ordering  efficient query
===================  =========  ===========  ==============  ===============
s3                   yes        yes          yes              **no**
s3+simpledb          **no**     yes          yes              yes
s3+simpledb+sqs      yes        yes          yes              yes
===================  =========  ===========  ==============  ===============

This module re-derives that table *experimentally*:

* **atomicity** — crash the client at every fault point of the store
  protocol; after each crash run the architecture's designed recovery
  (for A3, a fresh commit daemon; for A1/A2, nothing automatic exists)
  and require that data and provenance either both became visible or
  neither did;
* **consistency** — under an adversarial eventual-consistency window,
  rewrite an object repeatedly and read it back immediately; require
  that every read the architecture *returns* pairs data with matching
  provenance (internal retries are allowed — that is the mechanism);
* **causal ordering** — crash the client at every event boundary of a
  dependency chain; require that the eventually-visible provenance is
  closed under ancestry;
* **efficient query** — store a repository of n objects and require that
  the architecture's Q2 costs grow sublinearly (far fewer operations
  than objects), which indexed SimpleDB achieves and the S3 scan cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.faults import FaultPlan
from repro.blob import BytesBlob
from repro.core import make_architecture
from repro.core.base import DATA_BUCKET, PROV_DOMAIN, ProvenanceCloudStore
from repro.core.s3_simpledb import S3SimpleDB
from repro.core.s3_simpledb_sqs import S3SimpleDBSQS
from repro.errors import ClientCrash, ReadCorrectnessViolation
from repro.passlib.capture import PassSystem
from repro.passlib.records import FlushEvent, ObjectRef
from repro.query.ancestry import AncestryWalker

#: The paper's Table 1, as (atomicity, consistency, causal, query).
PAPER_TABLE1 = {
    "s3": (True, True, True, False),
    "s3+simpledb": (False, True, True, True),
    "s3+simpledb+sqs": (True, True, True, True),
}

@dataclass
class PropertyReport:
    """The measured Table 1 row for one architecture."""

    architecture: str
    atomicity: bool
    consistency: bool
    causal_ordering: bool
    efficient_query: bool
    details: dict[str, str] = field(default_factory=dict)

    @property
    def read_correctness(self) -> bool:
        """Read correctness = atomicity ∧ consistency (§3)."""
        return self.atomicity and self.consistency

    def as_row(self) -> tuple[str, bool, bool, bool, bool]:
        return (
            self.architecture,
            self.atomicity,
            self.consistency,
            self.causal_ordering,
            self.efficient_query,
        )

    def matches_paper(self) -> bool:
        return PAPER_TABLE1[self.architecture] == (
            self.atomicity,
            self.consistency,
            self.causal_ordering,
            self.efficient_query,
        )


# ---------------------------------------------------------------------------
# World construction helpers
# ---------------------------------------------------------------------------

def _build(
    architecture: str,
    seed: int,
    faults: FaultPlan | None = None,
    consistency: ConsistencyConfig | None = None,
) -> tuple[AWSAccount, ProvenanceCloudStore]:
    account = AWSAccount(
        seed=seed,
        consistency=consistency or ConsistencyConfig.eventual(window=2.0),
    )
    store = make_architecture(architecture, account, faults=faults or FaultPlan())
    return account, store


def _chain_trace(n_links: int = 3, prefix: str = "chain") -> list[FlushEvent]:
    """A dependency chain: input → stage1 → … → stageN (one file each)."""
    pas = PassSystem(workload="chain")
    pas.stage_input(f"{prefix}/input.dat", BytesBlob(b"source data"))
    previous = f"{prefix}/input.dat"
    for i in range(n_links):
        with pas.process(f"stage{i}", argv=f"--step {i}") as proc:
            proc.read(previous)
            path = f"{prefix}/out{i}.dat"
            proc.write(path, f"derived {i}".encode())
            proc.close(path)
            previous = path
    return pas.drain_flushes()


def _rewrite_trace(versions: int = 4) -> tuple[list[FlushEvent], dict[int, str]]:
    """One file rewritten ``versions`` times; returns events + md5 oracle."""
    pas = PassSystem(workload="rewrite")
    md5_by_version: dict[int, str] = {}
    events: list[FlushEvent] = []
    for i in range(versions):
        with pas.process("writer", argv=f"--round {i}") as proc:
            blob = BytesBlob(f"content round {i}".encode())
            ref = proc.write("doc/report.txt", blob)
            event = proc.close("doc/report.txt")
            md5_by_version[ref.version] = blob.md5()
            events.append(event)
    # Freeze each version by observation so every round cuts a new one.
    return events, md5_by_version


def _blast_trace(n_queries: int = 8) -> list[FlushEvent]:
    """A miniature Blast-shaped repository for the query check."""
    pas = PassSystem(workload="mini-blast")
    pas.stage_input("db/nr.fasta", BytesBlob(b"protein database"))
    for i in range(n_queries):
        pas.stage_input(f"queries/q{i}.fa", BytesBlob(f"query {i}".encode()))
        with pas.process("blast", argv=f"-db nr -query q{i}.fa") as blast:
            blast.read("db/nr.fasta")
            blast.read(f"queries/q{i}.fa")
            blast.write(f"out/q{i}.blast", f"hits for {i}".encode())
            blast.close(f"out/q{i}.blast")
        with pas.process("postprocess", argv=f"--in q{i}.blast") as post:
            post.read(f"out/q{i}.blast")
            post.write(f"out/q{i}.summary", f"summary {i}".encode())
            post.close(f"out/q{i}.summary")
    return pas.drain_flushes()


def _recover(store: ProvenanceCloudStore, account: AWSAccount) -> None:
    """Run the architecture's *designed* crash recovery, then quiesce.

    A3 restarts its commit daemon (fresh in-memory state, like a reboot)
    and drains the WAL. A1/A2 have no automatic recovery — that absence
    is precisely what the atomicity check exposes for A2. The clock
    jumps past the SQS visibility timeout so in-flight receives expire.
    """
    if isinstance(store, S3SimpleDBSQS):
        account.clock.advance(300.0)
        store.restart_commit_daemon().drain()
    account.quiesce()


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------

def check_atomicity(architecture: str, seed: int = 0) -> tuple[bool, str]:
    """Crash the store protocol at every fault point; judge the aftermath."""
    baseline = _chain_trace(2, prefix="baseline")
    victim_trace = _chain_trace(2, prefix="victim")
    victim = victim_trace[-1]

    # Dry run to size the crash surface of one store() call.
    dry_plan = FaultPlan()
    account, store = _build(architecture, seed, faults=dry_plan)
    store.store_trace(baseline)
    calls_before = len(dry_plan.log)
    store.store(victim_trace[-1])
    crash_surface = len(dry_plan.log) - calls_before
    if crash_surface == 0:
        return False, "store protocol exposes no fault points"

    violations: list[str] = []
    for crash_call in range(1, crash_surface + 1):
        plan = FaultPlan()
        account, store = _build(architecture, seed + crash_call, faults=plan)
        store.store_trace(baseline)
        for event in victim_trace[:-1]:
            store.store(event)
        plan.crash_at_call(len(plan.log) + crash_call)
        crashed_at = "no-crash"
        try:
            store.store(victim)
        except ClientCrash as crash:
            crashed_at = crash.point
        plan.disarm()
        _recover(store, account)
        data_stored = _data_visible(account, victim)
        prov_stored = _provenance_visible(account, store, victim)
        if data_stored != prov_stored:
            violations.append(
                f"crash at {crashed_at!r}: data={data_stored} prov={prov_stored}"
            )
    detail = (
        f"{crash_surface} crash points, {len(violations)} violations"
        + (f" (first: {violations[0]})" if violations else "")
    )
    return not violations, detail


def _data_visible(account: AWSAccount, event: FlushEvent) -> bool:
    record = account.s3.authoritative_record(DATA_BUCKET, event.subject.name)
    if record is None:
        return False
    return record.metadata_dict.get("nonce") == event.nonce


def _provenance_visible(
    account: AWSAccount, store: ProvenanceCloudStore, event: FlushEvent
) -> bool:
    if isinstance(store, S3SimpleDB):  # covers A2 and A3
        item = account.simpledb.authoritative_item(
            PROV_DOMAIN, event.subject.item_name
        )
        return item is not None
    # A1: provenance is only reachable through the object's metadata.
    record = account.s3.authoritative_record(DATA_BUCKET, event.subject.name)
    if record is None:
        return False
    metadata = record.metadata_dict
    return metadata.get("nonce") == event.nonce and any(
        key not in ("nonce",) for key in metadata
    )


def check_consistency(architecture: str, seed: int = 0) -> tuple[bool, str]:
    """Adversarial EC: reads must never return a mismatched pair."""
    events, md5_by_version = _rewrite_trace(versions=5)
    account, store = _build(
        architecture,
        seed,
        consistency=ConsistencyConfig.eventual(window=4.0, immediate_fraction=0.3),
    )
    mismatches = 0
    retries = 0
    unresolved = 0
    for event in events:
        store.store(event)
        if isinstance(store, S3SimpleDBSQS):
            store.pump()  # reads see only committed state
        try:
            result = store.read(event.subject.name)
        except ReadCorrectnessViolation:
            unresolved += 1  # never converged — but nothing wrong returned
            continue
        retries += result.retries
        expected_md5 = md5_by_version.get(result.subject.version)
        data_md5 = result.data.md5() if result.data is not None else None
        if expected_md5 is None or data_md5 != expected_md5:
            mismatches += 1
    detail = (
        f"{len(events)} rewrites, {retries} consistency retries, "
        f"{unresolved} unresolved reads, {mismatches} mismatched pairs returned"
    )
    return mismatches == 0, detail


def check_causal_ordering(architecture: str, seed: int = 0) -> tuple[bool, str]:
    """Crash between stores of a chain; visible provenance must be closed."""
    trace = _chain_trace(4)
    oracle = AncestryWalker(
        bundle for event in trace for bundle in event.all_bundles()
    )
    violations = []
    for crash_after in range(len(trace)):
        plan = FaultPlan()
        account, store = _build(architecture, seed + crash_after, faults=plan)
        store.provision()
        for index, event in enumerate(trace):
            if index == crash_after:
                # The client host dies between two closes.
                break
            store.store(event)
        _recover(store, account)
        visible = _visible_provenance(account, store, trace)
        if not oracle.is_causally_closed(visible):
            violations.append(f"crash before event {crash_after}")
    detail = f"{len(trace)} crash boundaries, {len(violations)} closure violations"
    return not violations, detail


def _visible_provenance(
    account: AWSAccount, store: ProvenanceCloudStore, trace: list[FlushEvent]
) -> set[ObjectRef]:
    if isinstance(store, S3SimpleDB):
        names = account.simpledb.authoritative_item_names(PROV_DOMAIN)
        return {ObjectRef.from_item_name(name) for name in names}
    visible: set[ObjectRef] = set()
    for event in trace:
        record = account.s3.authoritative_record(DATA_BUCKET, event.subject.name)
        if record is None or record.metadata_dict.get("nonce") != event.nonce:
            continue
        visible.add(event.subject)
        visible.update(ancestor.subject for ancestor in event.ancestors)
    return visible


def check_efficient_query(architecture: str, seed: int = 0) -> tuple[bool, str]:
    """Q2 must cost far fewer operations than the repository has objects."""
    trace = _blast_trace(n_queries=10)
    account, store = _build(
        architecture, seed, consistency=ConsistencyConfig.strong()
    )
    store.store_trace(trace)
    if isinstance(store, S3SimpleDBSQS):
        store.pump()
    account.quiesce()
    n_objects = len(trace)

    # Imported here, not at module top: repro.core.__init__ pulls this
    # module in, so a top-level engine import would make the whole
    # repro.core package unimportable from within repro.query.
    from repro.query.engine import S3ScanEngine, SimpleDBEngine

    if architecture == "s3":
        engine = S3ScanEngine(account)
    else:
        # Same pinned router as the store (_build): query where it wrote.
        engine = SimpleDBEngine(account, router=store.router)
    measurement = engine.q2_outputs_of("blast")

    # Correctness first: an efficient wrong answer is worthless.
    oracle = AncestryWalker(
        bundle for event in trace for bundle in event.all_bundles()
    )
    expected = oracle.outputs_of("blast")
    correct = set(measurement.refs) == expected
    efficient = correct and measurement.operations < n_objects / 2
    detail = (
        f"{measurement.operations} ops for Q2 over {n_objects} objects "
        f"({measurement.result_count} results, correct={correct})"
    )
    return efficient, detail


# ---------------------------------------------------------------------------
# The full table
# ---------------------------------------------------------------------------

def evaluate_architecture(architecture: str, seed: int = 0) -> PropertyReport:
    """Measure one Table 1 row (an unknown name raises ``ValueError``
    from the first world :func:`~repro.core.make_architecture` builds)."""
    atomicity, atomicity_detail = check_atomicity(architecture, seed)
    consistency, consistency_detail = check_consistency(architecture, seed)
    causal, causal_detail = check_causal_ordering(architecture, seed)
    query, query_detail = check_efficient_query(architecture, seed)
    return PropertyReport(
        architecture=architecture,
        atomicity=atomicity,
        consistency=consistency,
        causal_ordering=causal,
        efficient_query=query,
        details={
            "atomicity": atomicity_detail,
            "consistency": consistency_detail,
            "causal_ordering": causal_detail,
            "efficient_query": query_detail,
        },
    )


def evaluate_all(seed: int = 0) -> list[PropertyReport]:
    """Measure the whole of Table 1."""
    return [evaluate_architecture(name, seed) for name in PAPER_TABLE1]
