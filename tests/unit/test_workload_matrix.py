"""The matrix generators: shape, determinism, and salted RNG seeding.

Three regression families for the PR-9 workloads:

* **generator shape** — Zipf sampling really is skewed, deep chains
  really are ``chain_length`` deep, the diurnal envelope really
  advances the simulated clock;
* **determinism** — same seed ⇒ identical timed event stream and meter
  for every new workload, at query concurrency 1 and 4, and with the
  ``read_cache`` / ``write_batch`` knobs on
  (the global RNG is scrambled between runs to catch module-state
  leaks, the pytest-xdist hazard), and a timed run replays from its
  run file with the same meter and clock;
* **salted seeding** — ``Workload.generate`` seeds by name *plus* a
  class-identity salt, so two same-named workload classes no longer
  collapse onto one stream, while ``CombinedWorkload``'s historical
  per-part streams (and every committed baseline) stay byte-identical.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import schedule
from repro.sim import Cloud, Simulation
from repro.workloads import (
    BlastWorkload,
    CombinedWorkload,
    DeepLineageWorkload,
    DiurnalBurstWorkload,
    ZipfianFleetWorkload,
)
from repro.workloads import base
from repro.workloads.fleetgen import zipf_cdf, zipf_pick

WORKLOAD_KEYS = ["zipfian", "diurnal", "deep"]


def build(key: str):
    if key == "zipfian":
        return ZipfianFleetWorkload(n_tenants=3, keys_per_tenant=6, n_ops=40)
    if key == "diurnal":
        return DiurnalBurstWorkload(
            inner=ZipfianFleetWorkload(n_tenants=2, keys_per_tenant=4, n_ops=24)
        )
    if key == "deep":
        return DeepLineageWorkload(chain_length=40)
    raise KeyError(key)


# -- generator shape ---------------------------------------------------------


def test_zipf_cdf_shape():
    cdf = zipf_cdf(10, 1.2)
    assert cdf[-1] == 1.0
    assert all(b > a for a, b in zip(cdf, cdf[1:]))
    with pytest.raises(ValueError):
        zipf_cdf(0, 1.0)


def test_zipf_exponent_zero_is_uniform():
    assert zipf_cdf(4, 0.0) == pytest.approx([0.25, 0.5, 0.75, 1.0])


def test_zipf_pick_prefers_low_ranks():
    rng = random.Random("zipf-pick")
    cdf = zipf_cdf(20, 1.3)
    counts = Counter(zipf_pick(rng, cdf) for _ in range(2000))
    assert counts[0] == max(counts.values())
    assert counts[0] > 3 * counts.get(19, 1)


def test_zipfian_sample_read_refs_follow_write_skew():
    workload = ZipfianFleetWorkload(n_tenants=3, keys_per_tenant=6, n_ops=40, s=1.4)
    events = list(workload.iter_events(random.Random(workload.seed_key(1))))
    pool = sorted({event.subject for event in events})
    picks = workload.sample_read_refs(random.Random("probe"), pool, 500)
    counts = Counter(picks)
    # The first-ranked (hottest) ref draws far more than a uniform share.
    assert counts[pool[0]] > 2 * (500 / len(pool))


def test_deep_lineage_chain_shape():
    workload = DeepLineageWorkload(chain_length=40)
    events = list(workload.iter_events(random.Random(workload.seed_key(0))))
    assert len(events) == 41  # the staged seed file + 40 steps
    names = [event.subject.name for event in events]
    assert names[0] == "deep/c00/s000000.dat"
    assert names[-1] == "deep/c00/s000040.dat"
    short = list(workload.iter_events(random.Random(workload.seed_key(0)), 0.1))
    assert len(short) == 5  # scale shrinks the chain (1 stage + 4 steps)


def test_diurnal_rate_envelope_peaks_mid_period():
    workload = DiurnalBurstWorkload(base_rate=0.05, peak_ratio=8.0)
    trough = workload.rate_at(0.0)
    peak = workload.rate_at(workload.period / 2.0)
    assert trough == pytest.approx(0.05)
    assert peak == pytest.approx(0.40)


def test_diurnal_advances_the_simulated_clock():
    workload = DiurnalBurstWorkload(
        inner=ZipfianFleetWorkload(n_tenants=2, keys_per_tenant=4, n_ops=15)
    )
    sim = Simulation(architecture="s3+simpledb", seed=3)
    before = sim.account.clock.now
    sim.run_workload(workload, seed=4)
    assert sim.account.clock.now > before


# -- determinism regressions -------------------------------------------------


def timed_stream(workload, seed: int) -> list:
    return list(workload.iter_timed_events(random.Random(workload.seed_key(seed))))


@pytest.mark.parametrize("key", WORKLOAD_KEYS)
def test_same_seed_identical_timed_stream(key):
    stream_a = timed_stream(build(key), seed=11)
    random.seed("adversarial interleaving")
    random.random()
    stream_b = timed_stream(build(key), seed=11)
    assert stream_a == stream_b


def run_usage(key: str, concurrency: int = 1, **sim_kwargs):
    sim = Simulation(
        architecture="s3+simpledb",
        seed=5,
        shards=2,
        concurrency=concurrency,
        **sim_kwargs,
    )
    sim.run_workload(build(key), seed=9)
    sim.query_engine().q3_descendants_of("ingest")
    return sim.usage()


@pytest.mark.parametrize("key", WORKLOAD_KEYS)
@pytest.mark.parametrize("concurrency", [1, 4])
def test_same_seed_byte_identical_meter(key, concurrency):
    usage_a = run_usage(key, concurrency)
    random.seed("adversarial interleaving")
    random.random()
    usage_b = run_usage(key, concurrency)
    assert usage_a == usage_b


@pytest.mark.parametrize("knob", [{"read_cache": "on"}, {"write_batch": 8}])
def test_knobs_stay_deterministic(knob):
    usage_a = run_usage("zipfian", **knob)
    random.seed("adversarial interleaving")
    random.random()
    usage_b = run_usage("zipfian", **knob)
    assert usage_a == usage_b
    assert usage_a != run_usage("zipfian")  # the knob is live


def test_timed_run_replays_from_its_run_file_with_identical_meter_and_clock():
    workload = build("diurnal")
    timed = timed_stream(workload, seed=2)
    events = [event for _, event in timed]

    original = Simulation(architecture="s3+simpledb", seed=6, shards=2)
    original.store_timed_events(timed)
    advances = [step for step in original.schedule if step.action == "advance"]
    assert [step.arg for step in advances] == [delay for delay, _ in timed if delay > 0]

    run = schedule.loads(schedule.dumps(original, {"client-0": events}))
    replayed = Cloud.from_run(run)

    assert replayed.account.meter.snapshot() == original.usage()
    assert replayed.account.clock.now == original.account.clock.now


@pytest.mark.parametrize("architecture", ["s3", "s3+simpledb", "s3+simpledb+sqs"])
def test_untimed_stream_is_a_zero_delay_timed_stream(architecture):
    """One event loop: ``store_events`` and ``store_timed_events`` over
    zero delays leave the same meter, clock and ``TraceStats``."""
    events = CombinedWorkload().generate(seed=3, scale=0.02).events[:30]
    untimed = Simulation(architecture=architecture, seed=6, pump_every=7)
    timed = Simulation(architecture=architecture, seed=6, pump_every=7)

    assert untimed.store_events(events) == 30
    assert timed.store_timed_events((0.0, event) for event in events) == 30

    assert timed.usage() == untimed.usage()
    assert timed.account.clock.now == untimed.account.clock.now
    assert timed.stats == untimed.stats
    assert timed.schedule == untimed.schedule


# -- salted seeding (the name-collision fix) ---------------------------------


class _SaltProbeA(base.Workload):
    name = "salt-probe"

    def iter_events(self, rng, scale=1.0):
        pas = base.make_system(self.name)
        pas.stage_input("salt/x.dat", base.content(rng, 64, "salt/x.dat"))
        yield from pas.drain_flushes()


class _SaltProbeB(_SaltProbeA):
    """Same ``name``, different class — historically the same stream."""


def test_same_name_different_classes_get_distinct_streams():
    probe_a, probe_b = _SaltProbeA(), _SaltProbeB()
    assert probe_a.name == probe_b.name
    assert probe_a.seed_key(3) != probe_b.seed_key(3)
    events_a = probe_a.generate(seed=3).events
    events_b = probe_b.generate(seed=3).events
    assert events_a[0].data.seed != events_b[0].data.seed


def test_same_class_same_seed_stays_byte_identical():
    events_a = _SaltProbeA().generate(seed=3).events
    random.seed("adversarial interleaving")
    events_b = _SaltProbeA().generate(seed=3).events
    assert events_a == events_b


def test_combined_unique_names_keep_historical_streams():
    """The baseline guard: default combined traces must not move."""
    combined = CombinedWorkload()
    events = list(combined.iter_events(random.Random("compat:7"), 0.05))

    rng = random.Random("compat:7")
    legacy = []
    for part in combined.parts:
        part_rng = random.Random(f"{part.name}:{rng.random():.17f}")
        legacy.extend(part.iter_events(part_rng, 0.05))
    assert events == legacy


def test_combined_disambiguates_duplicate_part_names():
    part_a = BlastWorkload(n_runs=1, queries_per_run=2)
    part_b = BlastWorkload(n_runs=1, queries_per_run=2)
    combined = CombinedWorkload()
    combined.parts = (part_a, part_b)
    events = list(combined.iter_events(random.Random("dup:0"), 0.5))

    draws = random.Random("dup:0")
    draw_a, draw_b = draws.random(), draws.random()
    expected_a = list(
        part_a.iter_events(random.Random(f"blast:{draw_a:.17f}"), 0.5)
    )
    # The repeat of the name gets the salted stream, not the plain one.
    expected_b = list(
        part_b.iter_events(
            random.Random(f"blast#BlastWorkload#1:{draw_b:.17f}"), 0.5
        )
    )
    assert events == expected_a + expected_b
    assert expected_b != list(
        part_b.iter_events(random.Random(f"blast:{draw_b:.17f}"), 0.5)
    )
