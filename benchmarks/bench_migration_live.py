"""Live migration under traffic vs in a quiet window — the price of traffic.

There is one way a provenance layout changes: the live protocol of
:mod:`repro.migration`. What it costs depends on whether clients write
while it runs. This benchmark runs three scenarios — grow (N→N′ on
SimpleDB), a mixed re-placement, and a full sdb→ddb backend flip with
GSI backfill — each twice:

* **quiet**: the fleet drains completely, the cloud quiesces, then the
  migration runs to completion with no interleaved writes;
* **live**: the second half of the fleet's traces is written *while*
  the migration runs (one protocol step per fleet round, so the copy,
  double-write, catch-up, cutover, and drop phases all see traffic).

The quiet window needs no cheaper special case. Against the former
offline path (copy each moved item, then delete it from its source),
measured on ``CombinedWorkload`` ×1.0 (seed 7) stored into A2, with
equal items moved in every row:

=========================  ========  =====  =======================
source → target            offline   live   live/offline (req, USD)
=========================  ========  =====  =======================
sdb 1 → 4                  5649      2851   0.505×, 0.522×
sdb 8 → 4                  2932      1496   0.510×, 0.544×
sdb 2 → ddb 2 (flip)       5648      2842   0.503×, 0.451×
sdb 2 → mixed 4 (GSIs)     4271      2838   0.664×, 0.752×
sdb 2 → 6 (GSIs)           3762      3780   1.005×, 1.003×
sdb 4 → 8 (GSIs)           2928      2946   1.006×, 1.003×
ddb 4 → 6 (GSIs)           1946      1956   1.005×, 1.001×
=========================  ========  =====  =======================

Where a source store leaves the layout, the drop phase drops it whole;
where every source store survives, the protocol costs at most 18
requests more (4 verification reads per target shard plus the WAL
queue's create and delete).

Reported from exact meter captures: migration ops / bytes / USD for
both runs, the live overhead broken into the ``migration.*`` billing
lines, and the client-visible cost of the live window — double-write
amplification per store and the modeled latency the mirrored writes add
to a client's critical path. The correctness bar (identical
authoritative snapshots vs a native target-layout deployment) is
asserted, not assumed.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import TextTable
from repro.fleet import ClientFleet
from repro.query.latency import DEFAULT_LATENCY_MODEL
from repro.sharding import authoritative_snapshot

from conftest import save_result

#: (name, source layout, target layout) per scenario.
SCENARIOS = (
    ("grow-sdb-2to6", dict(shards=2, placement="sdb"), dict(shards=6, placement="sdb")),
    ("replace-2to4-mixed", dict(shards=2, placement="sdb"), dict(shards=4, placement="mixed")),
    ("flip-sdb-to-ddb-gsi", dict(shards=4, placement="sdb"), dict(shards=4, placement="ddb")),
)
N_CLIENTS = 3
SEED = 23
DDB_INDEXES = "name,input"


def _fleet(layout) -> ClientFleet:
    return ClientFleet(
        n_clients=N_CLIENTS,
        architecture="s3+simpledb",
        seed=SEED,
        ddb_indexes=DDB_INDEXES,
        **layout,
    )


def _traces(live_events):
    return [live_events[i : i + 6] for i in range(0, len(live_events), 6)]


@pytest.fixture(scope="module")
def migration_runs(live_events):
    """quiet/live run per scenario, with their migration reports."""
    runs = {}
    for name, source, target in SCENARIOS:
        traces = _traces(live_events)

        # Quiet: load everything, quiesce, migrate with no writers.
        quiet = _fleet(source)
        quiet.scatter(traces)
        quiet.run_round_robin()
        quiet.account.quiesce()
        quiet_report = quiet.start_migration(**target).run()

        # Live: half the traces land first, the rest during the move.
        live = _fleet(source)
        live.scatter(traces[: len(traces) // 2])
        live.run_round_robin()
        writes_before = live.total_stored()
        live.scatter(traces[len(traces) // 2 :])
        live_report = live.run_live_migration(batch=2, **target)
        live_writes = live.total_stored() - writes_before

        # Correctness floor: both end states equal a native deployment.
        control = _fleet(target)
        control.scatter(traces)
        control.run_round_robin()
        oracle = authoritative_snapshot(control.account, control.router)
        assert authoritative_snapshot(live.account, live.router) == oracle
        assert authoritative_snapshot(quiet.account, quiet.router) == oracle

        runs[name] = dict(
            quiet=quiet,
            quiet_report=quiet_report,
            live=live,
            live_report=live_report,
            live_writes=live_writes,
        )
    return runs


def _usd(fleet, usage) -> float:
    return fleet.account.prices.cost(usage).total


def test_migration_live_table(benchmark, migration_runs, live_events):
    benchmark(lambda: None)  # table-rendering benchmark: work done in fixtures
    table = TextTable(
        ["scenario", "window", "moved", "ops", "bytes", "USD", "dbl-wr",
         "replays", "verify", "epochs", "+ms/store"],
        title=(
            f"shard migration under fleet traffic vs in a quiet window "
            f"({len(live_events)}-object repository, {N_CLIENTS}-client fleet)"
        ),
    )
    for name, _, _ in SCENARIOS:
        run = migration_runs[name]
        for window in ("quiet", "live"):
            report = run[f"{window}_report"]
            overhead = report.overhead_usage()
            # Client-visible latency: the mirrored writes ride the
            # client's synchronous store path, so their modeled seconds
            # spread over the stores issued inside the live window.
            extra_ms = (
                DEFAULT_LATENCY_MODEL.stream_seconds(report.double_write_usage)
                / max(1, run["live_writes"]) * 1000.0
                if window == "live"
                else 0.0
            )
            table.add_row(
                name, window, report.items_moved,
                overhead.request_count(), overhead.transfer_out(),
                f"{_usd(run[window], overhead):.4f}",
                report.double_writes, report.replayed_records,
                report.verification_reads, report.cutover_epochs,
                f"{extra_ms:.2f}",
            )
    lines = []
    for name, _, _ in SCENARIOS:
        run = migration_runs[name]
        for label, amount in run["live_report"].cost_lines(run["live"].account.prices):
            if amount:
                lines.append(f"  {name:<22} {label:<24} ${amount:.6f}")
    save_result(
        "migration_live",
        table.render() + "\n\nlive overhead billing lines:\n" + "\n".join(lines),
    )


def _per_item(report) -> float:
    return report.overhead_usage().request_count() / max(1, report.items_moved)


def test_online_pays_more_per_item_but_stays_bounded(migration_runs):
    """The price of traffic, per bulk-copied item. The live run copies
    only what existed before the window opened (later writes ride the
    double-write/cutover routing), yet every copy carries its share of
    WAL round trips, replays and mirrored writes — so traffic makes
    each moved item strictly dearer than in the quiet window, in every
    scenario. The premium stays bounded (under 4× the quiet per-item
    spend): never quiescing costs a premium, not a blowup."""
    for name, run in migration_runs.items():
        live_per_item = _per_item(run["live_report"])
        quiet_per_item = _per_item(run["quiet_report"])
        assert live_per_item > quiet_per_item, name
        assert live_per_item < quiet_per_item * 4, name


def test_quiet_window_runs_no_live_window_machinery(migration_runs):
    """With no writers there is nothing to capture, mirror or replay:
    the quiet run's live-window counters read zero, and it still
    verifies and flips every target shard."""
    for name, run in migration_runs.items():
        report = run["quiet_report"]
        assert report.double_writes == 0, name
        assert report.wal_records == report.replayed_records == 0, name
        assert report.cutover_epochs == len(run["quiet"].router.domains), name


def test_live_window_counters_are_nonzero(migration_runs):
    """Traffic genuinely hit every window: writes were captured during
    the copy, replayed during catch-up, and mirrored during the
    double-write window; every cutover verified."""
    for name, run in migration_runs.items():
        report = run["live_report"]
        assert report.double_writes > 0, name
        assert report.wal_records > 0, name
        assert report.replayed_records == report.wal_records, name
        assert report.verification_reads > 0, name
        assert report.cutover_epochs == len(
            run["live"].router.domains
        ), name


def test_flip_pays_gsi_backfill_on_migration_lines(migration_runs):
    """The sdb→ddb flip must surface the cost of making the target
    queryable by index: nonzero GSI write units on the live report and
    on the quiet one alike."""
    flip = migration_runs["flip-sdb-to-ddb-gsi"]
    assert flip["live_report"].index_write_units > 0
    assert flip["quiet_report"].index_write_units > 0
    grow = migration_runs["grow-sdb-2to6"]
    assert grow["live_report"].index_write_units == 0
