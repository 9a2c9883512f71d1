"""Unit tests for the eventual-consistency replica engine."""

import random

import pytest

from repro.aws.consistency import DelayModel, ReplicaSet, STRONG, make_rng_family
from repro.clock import SimClock


def make_set(window=0.0, n_replicas=3, seed=7, immediate=0.0):
    clock = SimClock()
    rng = random.Random(seed)
    delays = DelayModel(max_delay=window, immediate_fraction=immediate)
    return clock, ReplicaSet("test", clock, rng, n_replicas, delays)


class TestStrongMode:
    def test_read_your_writes(self):
        _, replicas = make_set(window=0.0)
        replicas.write("k", "v1")
        assert replicas.read("k") == "v1"

    def test_delete_removes(self):
        _, replicas = make_set()
        replicas.write("k", "v")
        replicas.delete("k")
        assert replicas.read("k") is None
        assert "k" not in replicas.authoritative_keys()

    def test_last_writer_wins(self):
        _, replicas = make_set()
        replicas.write("k", "old")
        replicas.write("k", "new")
        assert replicas.read("k") == "new"


class TestEventualMode:
    def test_stale_reads_happen_then_converge(self):
        clock, replicas = make_set(window=5.0)
        replicas.write("k", "v1")
        # Immediately after the write, some replica likely lacks it.
        results = {replicas.read("k") for _ in range(50)}
        assert None in results or "v1" in results
        clock.run_until_idle()
        assert replicas.is_converged()
        assert all(replicas.read("k") == "v1" for _ in range(20))

    def test_delayed_old_write_never_clobbers_newer(self):
        clock, replicas = make_set(window=5.0)
        replicas.write("k", "old")
        replicas.write("k", "new")
        clock.run_until_idle()
        # Whatever the propagation interleaving, last write wins.
        assert replicas.read("k") == "new"
        assert replicas.read_authoritative("k") == "new"

    def test_stale_read_counter(self):
        clock, replicas = make_set(window=5.0, seed=3)
        for i in range(20):
            replicas.write(f"k{i}", i)
        for i in range(20):
            replicas.read(f"k{i}")
        clock.run_until_idle()
        assert replicas.stale_reads >= 1

    def test_snapshot_reflects_one_replica(self):
        clock, replicas = make_set(window=5.0)
        for i in range(10):
            replicas.write(f"k{i}", i)
        visible = replicas.ordered_snapshot().keys
        assert set(visible) <= {f"k{i}" for i in range(10)}
        clock.run_until_idle()
        assert list(replicas.ordered_snapshot().keys) == sorted(f"k{i}" for i in range(10))

    def test_tombstone_propagates(self):
        clock, replicas = make_set(window=3.0)
        replicas.write("k", "v")
        clock.run_until_idle()
        replicas.delete("k")
        clock.run_until_idle()
        assert replicas.is_converged()
        assert replicas.read("k") is None


class TestDelayModel:
    def test_strong_is_zero(self):
        assert STRONG.is_strong
        assert STRONG.sample(random.Random(1)) == 0.0

    def test_immediate_fraction(self):
        model = DelayModel(max_delay=10.0, immediate_fraction=1.0)
        assert model.sample(random.Random(1)) == 0.0

    def test_window_bounds(self):
        model = DelayModel(max_delay=2.0)
        rng = random.Random(9)
        for _ in range(100):
            assert 0.0 <= model.sample(rng) <= 2.0


class TestRngFamily:
    def test_streams_independent_and_reproducible(self):
        family_a = make_rng_family(42)
        family_b = make_rng_family(42)
        assert family_a("s3").random() == family_b("s3").random()
        assert family_a("s3").random() != family_a("sqs").random()

    def test_replica_validation(self):
        with pytest.raises(ValueError):
            make_set(n_replicas=0)
