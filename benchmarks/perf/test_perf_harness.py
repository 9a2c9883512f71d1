"""The perf harness checked at toy sizes (collected by the tier-1 run).

What later performance work relies on: the names ``run.py`` emits are
the names ``BENCHMARK.json`` declares; spans nest, worker-thread spans
attach to the query that dispatched them, and layer self times account
for the whole traced time; generator entry points are timed across
iteration; the simulated plane repeats exactly for a seed.
"""

from __future__ import annotations

import json
import threading
import time
import types
from pathlib import Path

import pytest

import compare
import harness
import tracer as tracing
from specs import BY_NAME, WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)
TOY = 0.025


@pytest.fixture(scope="module")
def reports():
    """One plain and one traced toy run of every workload."""
    patch = pytest.MonkeyPatch()
    patch.setattr(harness, "MIN_CYCLES", 1)
    patch.setattr(harness, "PLAIN_CYCLES", 1)
    # Speed probes and per-region collections of pytest's big heap would
    # dominate toy-sized regions.
    patch.setattr(harness, "_SPIN_ITERATIONS", 200)
    patch.setattr(harness, "gc", types.SimpleNamespace(collect=lambda: 0))
    try:
        yield {
            (spec.name, trace): harness.measure(spec.shrunk(TOY), 1, 0.0, trace=trace)
            for spec in WORKLOADS
            for trace in (False, True)
        }
    finally:
        patch.undo()


def _declared(section: str) -> dict[str, tuple[str, str]]:
    return {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[section]}


def test_benchmark_json_declares_what_the_harness_emits(reports):
    assert [w["name"] for w in BENCHMARK["workloads"]] == [s.name for s in WORKLOADS]
    assert [w["why"] for w in BENCHMARK["workloads"]] == [s.why for s in WORKLOADS]
    assert _declared("end_to_end") == harness.END_TO_END
    assert _declared("per_layer") == harness.PER_LAYER
    for (name, trace), report in reports.items():
        declared = _declared("per_layer" if trace else "end_to_end")
        emitted = report.result()["metrics"]
        assert set(emitted) == set(declared), name
        assert all(emitted[m]["unit"] == declared[m][0] for m in emitted), name


def test_toy_runs_are_correct_and_end_to_end_metrics_are_never_zero(reports):
    for (name, trace), report in reports.items():
        assert report.failures == [], name
        if not trace:
            assert all(value > 0 for value in report.metrics.values()), (name, report.metrics)


def test_traced_runs_show_the_intended_layer_split(reports):
    calls = {
        name: {layer: report.metrics[f"{layer}.calls"] for layer in tracing.LAYERS}
        for (name, trace), report in reports.items()
        if trace
    }
    for name, by_layer in calls.items():
        assert (by_layer["daemons"] > 0) == (name == "ingest-a3-paper"), name
        assert by_layer["store"] > 0 and by_layer["engine"] > 0 and by_layer["migration"] > 0
    for bypassed in ("planner", "elasticache", "dynamo"):
        assert calls["query-sdb-cold"][bypassed] == 0
        assert calls["ingest-a3-paper"][bypassed] == 0
    assert calls["query-ddb-mixed"]["simpledb"] == 0
    assert reports["ingest-a2-batched", True].metrics["coalesce.items_per_flush"] > 1
    assert reports["ingest-a3-paper", True].metrics["coalesce.items_per_flush"] == 0


def test_layer_self_times_sum_to_the_traced_total(reports):
    spans = reports["query-sdb-cold", True].spans  # sequential: no overlapping children
    summary = tracing.summarize(spans)
    assert summary.root_seconds > 0
    assert sum(summary.self_seconds.values()) == pytest.approx(summary.root_seconds, rel=1e-6)
    nested = (s.parent.start <= s.start <= s.end <= s.parent.end for s in spans if s.parent)
    assert all(nested)


def test_worker_thread_spans_attach_to_the_dispatching_query(reports):
    spans = reports["query-ddb-mixed", True].spans  # concurrency=2
    assert {s.layer for s in spans if s.parent is None} <= {"sim", "engine", "meter"}
    # planner.choose runs at the head of every shard stream, i.e. on a worker.
    assert any(s.layer == "planner" and s.parent.layer == "engine" for s in spans)

    tracer = tracing.Tracer()
    seen = []

    def worker():
        with tracer.span("dynamo", "scan") as span:
            seen.append(span)

    with tracer.span("engine", "q3_descendants_of") as query:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert seen[0].parent is query and seen[0].request == query.request


def _burn(seconds: float) -> None:
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        pass


def test_generators_are_timed_across_iteration():
    tracer = tracing.Tracer()

    def pages():
        for page in range(3):
            _burn(0.002)
            yield page

    traced = tracer.wrap("backend", "query_pages", pages)
    with tracer.span("engine", "q2_outputs_of"):
        assert list(traced()) == [0, 1, 2]
    spans, _ = tracer.drain()
    resumes = [s for s in spans if s.name == "query_pages" + tracing.RESUME]
    assert len(resumes) == 4  # three items and the exhausting resume
    summary = tracing.summarize(spans)
    assert summary.layer_calls("backend") == 1
    assert summary.self_seconds["backend"] >= 0.006
    assert summary.self_seconds["engine"] < 0.002


def test_install_wraps_and_uninstall_restores():
    from repro.aws.billing import Meter
    from repro.core import s3_simpledb
    from repro.passlib import serializer

    original = (Meter.snapshot, s3_simpledb.to_simpledb_items)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert Meter.snapshot is not original[0]
        assert s3_simpledb.to_simpledb_items is serializer.to_simpledb_items is not original[1]
    finally:
        tracer.uninstall()
    assert (Meter.snapshot, s3_simpledb.to_simpledb_items) == original


def test_sim_plane_repeats_for_a_seed_and_moves_with_another(reports):
    spec = BY_NAME["query-ddb-mixed"].shrunk(TOY)  # the threaded workload

    def sim(report):
        return {k: v for k, v in report.metrics.items() if k.startswith("sim_")}

    first = sim(reports[spec.name, False])
    assert len(first) == 4
    assert sim(harness.measure(spec, 1, 0.0)) == first
    assert sim(harness.measure(spec, 2, 0.0)) != first


def test_compare_verdicts():
    steady = {seed: 100.0 + seed for seed in range(10)}
    shifted = {seed: value * 1.3 for seed, value in steady.items()}
    noisy = {seed: 100.0 + 40 * (seed % 2) for seed in range(10)}
    assert compare.verdict(steady, steady, "q2_ms", "lower", 0.1) == "ok"
    assert compare.verdict(steady, shifted, "q2_ms", "lower", 0.1) == "regressed"
    assert compare.verdict(steady, shifted, "query_mix_per_s", "higher", 0.1) == "ok"
    assert compare.verdict(noisy, noisy, "q2_ms", "lower", 0.1) == "unresolved"
    assert compare.verdict(steady, shifted, "sim_query_usd_per_kquery", "lower", 0.5) == "changed"
