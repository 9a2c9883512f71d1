"""Differential properties of the cost-based query planner.

The planner is an access-path choice, never a semantics change — so the
harness runs every workload in :func:`default_workloads` (at a reduced
scale) over the full shards × placement grid and, per cell, compares
``planner ∈ {off, first-fit, cost}``:

* **identical answers** — Q2/Q3/Q4 return the same result sets in all
  three modes on every cell;
* **cost mode never pays more** — the metered USD over the planned
  phases is ≤ first-fit's on every cell (the hysteresis gate only lets
  the planner deviate from first-fit when its estimate is clearly
  cheaper, so a wrong estimate degrades to the baseline, never below
  it);
* **predictions are honest** — ``predicted_cost`` lands within
  :data:`~repro.query.planner.PREDICTION_ERROR_BOUND` of the metered
  spend on DynamoDB cells, where the statistics are exact per-key byte
  histograms. SimpleDB estimates ride a mean-selectivity model (the
  service exposes no per-predicate histograms), so sdb/mixed cells get
  the looser :data:`SDB_ERROR_BOUND`;
* **off is off** — no planner, no ``predicted_cost``, and no
  statistics consults (the DescribeTable/DomainMetadata control-plane
  requests only planned modes pay).

Below the grid, one hypothesis property pins the access-path enumerator
itself over random predicates × index declarations × per-index lag:
``plan_first_fit``, ``candidate_paths`` and a ``path=None`` execution
all read the same enumeration, and the fallback counters move exactly
as the pre-enumerator first-fit code moved them. The same draws pin the
other two readers of the declarations against their references in
``tests/oracles.py``: ``composite_index`` (``version_history``'s pick)
and ``migration_pages`` (over a second table whose items can leave an
index sparse).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.backend import SCAN_PATH, DynamoBackend
from repro.aws.dynamo import IndexSpec
from repro.aws.sdb_query import parse_query
from repro.bench.matrix import Q4_VERSION_RANGE, default_workloads
from repro.query.planner import PREDICTION_ERROR_BOUND
from repro.sim import Simulation
from tests.oracles import (
    reference_composite_pick,
    reference_index_plan,
    reference_migration_pick,
)

#: Composite hash+range GSIs on DynamoDB-placed shards — the spec the
#: matrix planner cells declare, so the cost mode has a range path to
#: choose on the version-window query.
DDB_INDEXES = "name/nonce+*,type/nonce,name,input"

#: Keeps every workload row tractable for the grid sweep (the full-size
#: rows are the benchmark's job; the properties are scale-blind).
SCALE = 0.15

MODES = ("off", "first-fit", "cost")

#: SimpleDB selectivity is estimated, not measured — see the module
#: docstring. Twice the DynamoDB bound, pinned by the same sweep.
SDB_ERROR_BOUND = 2 * PREDICTION_ERROR_BOUND

CELLS = [
    (shards, placement)
    for shards in (1, 4)
    for placement in ("sdb", "ddb", "mixed")
]

WORKLOAD_KEYS = [spec.key for spec in default_workloads()]


@pytest.fixture(scope="module")
def traces():
    """workload key → (spec, generated timed events), one trace each."""
    out = {}
    for spec in default_workloads(scale=SCALE):
        rng = spec.rep_rng(7, 0)
        out[spec.key] = (spec, list(spec.workload.iter_timed_events(rng, spec.scale)))
    return out


def run_cell(traces, key, shards, placement, mode):
    spec, timed = traces[key]
    sim = Simulation(
        architecture="s3+simpledb",
        seed=11,
        shards=shards,
        placement=placement,
        ddb_indexes=DDB_INDEXES,
        # predicted_cost models live backend execution, not cache hits:
        # compare it against metered spend with the cache off.
        read_cache="off",
        planner=mode,
    )
    sim.store_timed_events(timed)
    engine = sim.query_engine()
    before = sim.usage()
    measurements = (
        engine.q2_outputs_of(spec.program),
        engine.q3_descendants_of(spec.program),
        engine.q4_time_range(*Q4_VERSION_RANGE),
    )
    spent = sim.usage() - before
    predicted = [
        m.predicted_cost for m in measurements if m.predicted_cost is not None
    ]
    return {
        "refs": tuple(frozenset(m.refs) for m in measurements),
        "metered_usd": sim.account.prices.cost(spent).total,
        "predicted_usd": sum(predicted) if predicted else None,
        "stats_consults": spent.request_count("dynamodb", "DescribeTable")
        + spent.request_count("simpledb", "DomainMetadata"),
    }


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"s{c[0]}-{c[1]}")
@pytest.mark.parametrize("key", WORKLOAD_KEYS)
def test_planner_differential_properties(traces, key, cell):
    shards, placement = cell
    rows = {mode: run_cell(traces, key, shards, placement, mode) for mode in MODES}

    # Identical answers in every mode.
    assert rows["first-fit"]["refs"] == rows["off"]["refs"]
    assert rows["cost"]["refs"] == rows["off"]["refs"]

    # Cost mode never pays more than the first-fit baseline.
    assert rows["cost"]["metered_usd"] <= rows["first-fit"]["metered_usd"] + 1e-15

    # Honest predictions, with the documented per-backend bound.
    bound = PREDICTION_ERROR_BOUND if placement == "ddb" else SDB_ERROR_BOUND
    for mode in ("first-fit", "cost"):
        row = rows[mode]
        error = abs(row["predicted_usd"] - row["metered_usd"]) / row["metered_usd"]
        assert error <= bound, (mode, error)
        assert row["stats_consults"] > 0

    # Off plans nothing: no prediction, no statistics consults.
    assert rows["off"]["predicted_usd"] is None
    assert rows["off"]["stats_consults"] == 0


# ---------------------------------------------------------------------------
# The access-path enumerator: one eligibility rule, three readers
# ---------------------------------------------------------------------------

ATTRS = ("a", "b", "n")

BRACKETS = (
    "['a' = 'x']",
    "['a' = 'x']",
    "['a' = 'x' or 'a' = 'y']",
    "['b' = 'x']",
    "['b' = 'x']",
    "['b' starts-with 'x']",
    "['n' >= '1' and 'n' <= '5']",
    "['n' = '3']",
    "['a' = 'x'] intersection ['n' >= '1' and 'n' <= '5']",
    "['b' = 'x'] intersection ['n' > '2']",
    "not ['a' = 'x']",
)

predicates = st.lists(st.sampled_from(BRACKETS), min_size=1, max_size=3).flatmap(
    lambda brackets: st.lists(
        st.sampled_from(("intersection", "union")),
        min_size=len(brackets) - 1,
        max_size=len(brackets) - 1,
    ).map(
        lambda joins: " ".join(
            piece for pair in zip(brackets, (*joins, "")) for piece in pair if piece
        )
    )
)

index_declarations = st.lists(
    st.tuples(
        st.sampled_from(ATTRS),
        st.sampled_from((None, "n")),
        st.sets(st.sampled_from(ATTRS), max_size=2),
        st.sampled_from((True, True, False)),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda drawn: drawn[:2],
).map(
    lambda drawn: tuple(
        IndexSpec(
            name=f"gsi-{key}-{range_attr}",
            key_attribute=key,
            range_attribute=None if key == range_attr else range_attr,
            include=tuple(sorted(include)),
            project_all=project_all,
        )
        for key, range_attr, include, project_all in drawn
    )
)


@settings(max_examples=300, deadline=None)
@example(
    expression="['a' = 'x']", declarations=(), wanted=None, lag_draws=[0.0] * 4, items=[]
)
@given(
    expression=predicates,
    declarations=index_declarations,
    wanted=st.none() | st.sets(st.sampled_from(ATTRS), max_size=1),
    lag_draws=st.lists(st.sampled_from((0.0, 0.4, 9.0)), min_size=4, max_size=4),
    items=st.lists(st.sets(st.sampled_from(ATTRS), min_size=1), max_size=3),
)
def test_one_enumeration_serves_first_fit_candidates_and_execution(
    expression, declarations, wanted, lag_draws, items
):
    bound = 0.5
    account = AWSAccount(seed=3, consistency=ConsistencyConfig.strong())
    backend = DynamoBackend(
        account.dynamodb,
        index_specs=declarations,
        index_staleness_bound=bound,
    )
    backend.provision("t")
    specs = account.dynamodb.list_indexes("t")
    lags = {spec.name: lag for spec, lag in zip(specs, lag_draws)}
    account.dynamodb.index_lag_seconds = lambda store, name: lags[name]
    compiled = parse_query(expression)

    def counters():
        return (
            backend.gsi_queries,
            backend.scan_fallbacks,
            backend.stale_index_fallbacks,
        )

    paths = backend.candidate_paths("t", compiled, wanted)
    first_fit = backend.plan_first_fit("t", compiled, wanted)
    assert counters() == (0, 0, 0)  # planning is counter-neutral

    assert paths[0] is SCAN_PATH
    assert first_fit == next((p for p in paths if p.kind == "gsi"), SCAN_PATH)
    for before, path in zip(paths, paths[1:]):
        assert path.kind in ("gsi", "gsi-range")
        if path.kind == "gsi-range":
            assert (before.kind, before.index, before.values) == (
                "gsi", path.index, path.values
            )

    expected_spec, expected_counters = reference_index_plan(
        specs, lags, bound, compiled, wanted
    )
    assert first_fit.index == expected_spec
    attribute_names = None if wanted is None else sorted(wanted)
    assert list(backend.query_pages("t", expression, "", False, attribute_names)) == []
    assert counters() == expected_counters

    # The other two readers of the declarations: version_history's
    # composite (hash, nonce) pick and migration's ALL-projection pick.
    for attribute in ATTRS:
        before = backend.stale_index_fallbacks
        expected_spec, expected_stale = reference_composite_pick(
            specs, lags, bound, attribute, "n"
        )
        assert backend.composite_index("t", attribute, "n") == expected_spec
        assert backend.stale_index_fallbacks - before == expected_stale

    # A second table holding items, so an index can be sparse.
    backend.provision("u")
    for number, attributes in enumerate(items):
        adds = [(attr, "3" if attr == "n" else "x") for attr in sorted(attributes)]
        account.dynamodb.update_item("u", f"i{number}", adds)
    distinct = {
        spec.name: account.dynamodb.index_distinct_item_count("u", spec.name)
        for spec in specs
    }
    expected_spec, expected_stale, expected_streams = reference_migration_pick(
        specs, lags, bound, distinct, len(items)
    )
    scanned = []
    scan_index = account.dynamodb.scan_index

    def spy(store, index_name, **kwargs):
        scanned.append(index_name)
        return scan_index(store, index_name, **kwargs)

    account.dynamodb.scan_index = spy
    stale_before = backend.stale_index_fallbacks
    via_index, pages = backend.migration_pages("u")
    assert sorted(name for name, _ in pages) == [f"i{n}" for n in range(len(items))]
    assert via_index == (expected_spec is not None)
    assert set(scanned) == ({expected_spec.name} if via_index else set())
    assert backend.stale_index_fallbacks - stale_before == expected_stale
    assert backend.migration_index_streams == expected_streams
