"""Heterogeneous shard placement — Scan vs GSI vs SimpleDB cost/latency.

The §6 discussion treats SimpleDB as one plausible provenance store;
the backend protocol makes the placement a knob, and the GSI subsystem
makes the DynamoDB-style store's *access path* a knob too. This
benchmark loads the same live trace into four placements — all-SimpleDB,
all-DynamoDB answered by Scan, all-DynamoDB answered by GSI Query, and
mixed (even shards SDB, odd DDB+GSI) — at N ∈ {1, 4, 16} and reports,
from meter deltas:

* write-path cost: operations, USD, and write-capacity units to store
  the trace — the GSI rows pay visible *write amplification* (every
  changed index entry is an index write) and that is the honest price
  of the index;
* Q1/Q2/Q3 operations, bytes out, modeled latency, and USD — Scan
  answered Q2/Q3 pay read amplification for every item they cross,
  GSI-answered Q2/Q3 pay only for matching projected entries (strictly
  dominating Scan in read ops, bytes, and USD — pinned below), while
  SimpleDB's server-side predicates remain the 2009 baseline;
* the per-backend spend split under mixed placement
  (``QueryMeasurement.per_backend``), which must sum exactly to the
  query totals.

Result sets must be identical across every regime at every N (the GSI
property suite hammers this; here it guards the measured
configurations).
"""

import pytest

from repro.analysis.report import TextTable
from repro.aws import billing
from repro.aws.billing import Usage
from repro.sim import Simulation

from conftest import save_result

SHARD_COUNTS = (1, 4, 16)
#: name → Simulation knobs (placement and index specs per configuration).
CONFIGS = {
    "sdb": dict(placement="sdb", ddb_indexes=""),
    "ddb-scan": dict(placement="ddb", ddb_indexes=""),
    "ddb-gsi": dict(placement="ddb", ddb_indexes="name,input"),
    "mixed": dict(placement="mixed", ddb_indexes="name,input"),
}
REGIMES = tuple(CONFIGS)
PROGRAM = "blast"


@pytest.fixture(scope="module")
def placed_sims(live_events):
    """One loaded s3+simpledb deployment per (config, shard count),
    with the metered cost of the load itself."""
    sims = {}
    for config, knobs in CONFIGS.items():
        for shards in SHARD_COUNTS:
            sim = Simulation(
                architecture="s3+simpledb", seed=17, shards=shards, **knobs
            )
            before = sim.account.meter.snapshot()
            sim.store_events(live_events, collect=False)
            load_usage = sim.account.meter.snapshot() - before
            sims[(config, shards)] = (sim, load_usage)
    return sims


@pytest.fixture(scope="module")
def query_rows(placed_sims):
    rows = {}
    for regime in REGIMES:
        for shards in SHARD_COUNTS:
            engine = placed_sims[(regime, shards)][0].query_engine()
            q2 = engine.q2_outputs_of(PROGRAM)
            q3 = engine.q3_descendants_of(PROGRAM)
            q1 = engine.q1(q2.refs[0])
            rows[(regime, shards)] = {"q1": q1, "q2": q2, "q3": q3}
    return rows


def _usd(sim, usage) -> float:
    return sim.account.prices.cost(usage).total


def _query_usage(rows) -> Usage:
    return rows["q1"].usage + rows["q2"].usage + rows["q3"].usage


def _read_units(usage) -> float:
    """Consumed read capacity across base tables and their indexes."""
    return usage.read_units(billing.DDB) + usage.read_units(billing.DDB_GSI)


def test_multibackend_table(benchmark, placed_sims, query_rows, live_events):
    benchmark(
        placed_sims[("ddb-gsi", 16)][0].query_engine().q2_outputs_of, PROGRAM
    )
    table = TextTable(
        ["regime", "shards", "store ops", "store $", "WCU", "Q1 ops",
         "Q2 ops", "Q3 ops", "Q3 bytes", "Q3 ms", "queries $", "RCU"],
        title=(
            f"Scan vs GSI vs SimpleDB placement ({len(live_events)}-object "
            f"repository, queries on {PROGRAM!r})"
        ),
    )
    for regime in REGIMES:
        for shards in SHARD_COUNTS:
            sim, load_usage = placed_sims[(regime, shards)]
            rows = query_rows[(regime, shards)]
            query_usage = _query_usage(rows)
            table.add_row(
                regime,
                shards,
                load_usage.request_count(),
                f"{_usd(sim, load_usage):.4f}",
                f"{load_usage.write_units(billing.DDB) + load_usage.write_units(billing.DDB_GSI):.0f}",
                rows["q1"].operations,
                rows["q2"].operations,
                rows["q3"].operations,
                rows["q3"].bytes_out,
                f"{rows['q3'].latency * 1000:.0f}",
                f"{_usd(sim, query_usage):.6f}",
                f"{_read_units(query_usage):.1f}",
            )
    save_result("multibackend_placement", table.render())


def test_results_identical_across_regimes(query_rows):
    for shards in SHARD_COUNTS:
        baseline = query_rows[("sdb", shards)]
        for regime in REGIMES[1:]:
            rows = query_rows[(regime, shards)]
            for name in ("q1", "q2", "q3"):
                assert set(rows[name].refs) == set(baseline[name].refs), (
                    f"{name} differs under {regime} at shards={shards}"
                )


def test_gsi_strictly_dominates_scan(placed_sims, query_rows):
    """The acceptance bar: GSI-served Q2/Q3 beat Scan-served Q2/Q3
    strictly in bytes out, read units, modeled latency, and query USD
    at every measured N, and strictly in read operations at N=4 (and
    N=1) where per-shard tables overflow a scan page. At N=16 a tiny
    smoke-scale table can fit one scan page, collapsing the request
    counts to a tie — never a GSI loss."""
    for shards in SHARD_COUNTS:
        scan_rows = query_rows[("ddb-scan", shards)]
        gsi_rows = query_rows[("ddb-gsi", shards)]
        for name in ("q2", "q3"):
            scan, gsi = scan_rows[name], gsi_rows[name]
            if shards <= 4:
                assert gsi.operations < scan.operations, (name, shards)
            else:
                assert gsi.operations <= scan.operations, (name, shards)
            assert gsi.bytes_out < scan.bytes_out, (name, shards)
            assert gsi.latency < scan.latency, (name, shards)
            assert _read_units(gsi.usage) < _read_units(scan.usage), (
                name, shards,
            )
        scan_sim, _ = placed_sims[("ddb-scan", shards)]
        gsi_sim, _ = placed_sims[("ddb-gsi", shards)]
        assert _usd(gsi_sim, _query_usage(gsi_rows)) < _usd(
            scan_sim, _query_usage(scan_rows)
        ), shards


def test_gsi_write_amplification_is_visible(placed_sims):
    """The index is not free: the GSI placement's write path consumes
    strictly more write units than the scan placement's — itemised on
    the dynamodb.gsi billing lines rather than hidden."""
    for shards in SHARD_COUNTS:
        _, scan_load = placed_sims[("ddb-scan", shards)]
        _, gsi_load = placed_sims[("ddb-gsi", shards)]
        assert gsi_load.write_units(billing.DDB_GSI) > 0
        assert scan_load.write_units(billing.DDB_GSI) == 0
        assert gsi_load.write_units(billing.DDB) == scan_load.write_units(
            billing.DDB
        )


def test_mixed_per_backend_split_sums_exactly(query_rows):
    for shards in (4, 16):
        rows = query_rows[("mixed", shards)]
        for name in ("q2", "q3"):
            measurement = rows[name]
            kinds = {kind for kind, _, _ in measurement.per_backend}
            assert kinds == {"sdb", "ddb"}
            assert (
                sum(ops for _, ops, _ in measurement.per_backend)
                == measurement.operations
            )
            assert (
                sum(nbytes for _, _, nbytes in measurement.per_backend)
                == measurement.bytes_out
            )


def test_ddb_q1_all_needs_fewer_requests_than_sdb(placed_sims):
    """Scan pages carry whole items, so Q1-over-everything on DynamoDB
    style shards avoids SimpleDB's per-item GetAttributes round trips
    (GSIs play no part in Q1 — no predicate to serve)."""
    sdb_sim, _ = placed_sims[("sdb", 4)]
    ddb_sim, _ = placed_sims[("ddb-scan", 4)]
    sdb_q1_all = sdb_sim.query_engine().q1_all()
    ddb_q1_all = ddb_sim.query_engine().q1_all()
    assert set(ddb_q1_all.refs) == set(sdb_q1_all.refs)
    assert ddb_q1_all.operations < sdb_q1_all.operations


def test_sdb_q2_needs_fewer_bytes_than_ddb_scan(query_rows):
    """Server-side predicates return only matches; a scan pays transfer
    for every item it filters — the query-language asymmetry, visible
    in bytes out."""
    for shards in SHARD_COUNTS:
        sdb_q2 = query_rows[("sdb", shards)]["q2"]
        ddb_q2 = query_rows[("ddb-scan", shards)]["q2"]
        assert sdb_q2.bytes_out < ddb_q2.bytes_out
