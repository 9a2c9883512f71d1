"""Each stored thing lives once: after a run under the default
consistency model no replica lags on any key (so replicas hold nothing
of their own), and S3 objects with equal byte-backed payloads share one
blob. Structural checks only — no byte or object counts, which differ
between Python versions."""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.blob import BytesBlob
from repro.sim import Simulation
from repro.workloads import CombinedWorkload
from tests.oracles import replica_sets


@pytest.mark.parametrize("architecture", ["s3", "s3+simpledb", "s3+simpledb+sqs"])
def test_a_default_run_holds_each_value_once(architecture):
    sim = Simulation(architecture, seed=0)
    sim.store_events(CombinedWorkload().generate(seed=7, scale=0.02).events)
    sets = replica_sets(sim.account)
    assert sets and all(not lag for replicas in sets for lag in replicas._lags)
    assert all(not replicas._heads for replicas in sets)

    s3 = sim.account.s3
    holders: dict[bytes, set[int]] = defaultdict(set)
    keys_per_payload: dict[bytes, int] = defaultdict(int)
    for bucket in s3._buckets:
        for key in s3.authoritative_keys(bucket):
            blob = s3.authoritative_record(bucket, key).blob
            if isinstance(blob, BytesBlob):
                holders[blob.read()].add(id(blob))
                keys_per_payload[blob.read()] += 1
    assert max(keys_per_payload.values()) > 1  # some payload is stored twice
    assert all(len(ids) == 1 for ids in holders.values())
