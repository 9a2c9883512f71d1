"""A query measurement is a record of the query, priced when it is read.

* **Snapshot** — on a loaded 4-shard SimpleDB cloud and on a DynamoDB
  cloud with the read cache on, the cost planner and ``concurrency=2``,
  every public field of ``q1``, ``q1_all``, Q2, Q3 and Q4 equals the
  literals below. They were recorded on the engine that priced every
  measurement while its query ran; both modeled latencies compare by
  ``float.hex()``, so a change in summation order fails.
* **Read later** — a measurement nobody read while its query ran,
  read after another query on the same engine, after a write burst or
  after a live-migration cutover, still reads the query's own values,
  stored levels included, and a re-read returns the same objects.
* **Audited at once** — under the sanitizer a planted unattributed
  request is reported when the query ends, before any field is read.
"""

from __future__ import annotations

import dataclasses
import zlib

import pytest

from repro.aws.account import ConsistencyConfig
from repro.devtools import sanitize
from repro.sim import Simulation
from repro.workloads import CombinedWorkload
from tests.conftest import leak_between_waves

EVENTS = CombinedWorkload().generate(seed=7, scale=0.1).events
SUBJECT = max(event.subject for event in EVENTS)
BURST = CombinedWorkload().generate(seed=8, scale=0.02).events

CLOUDS = {
    "sdb": dict(placement="sdb", ddb_indexes="", read_cache="off", planner="off", concurrency=1),
    "ddb": dict(
        placement="ddb", ddb_indexes="name,input", read_cache="on", planner="cost", concurrency=2
    ),
}
QUERIES = ("q1", "q1_all", "q2", "q3", "q4")


def loaded(cloud: str) -> Simulation:
    sim = Simulation(
        "s3+simpledb", seed=5, consistency=ConsistencyConfig.strong(), shards=4,
        write_batch=1, **CLOUDS[cloud],
    )
    sim.store_events(EVENTS, collect=False)
    sim.settle()
    return sim


def issue(engine, name):
    if name == "q1":
        return engine.q1(SUBJECT)
    if name == "q1_all":
        return engine.q1_all()
    if name == "q2":
        return engine.q2_outputs_of("blast")
    if name == "q3":
        return engine.q3_descendants_of("blast")
    return engine.q4_time_range(1, 2)


def public(m) -> dict:
    """Every public field of ``m``: refs as (count, CRC-32), floats as
    hex, ``usage`` without its empty fields."""
    usage = m.usage
    return dict(
        refs=(len(m.refs), zlib.crc32("\n".join(ref.encode() for ref in m.refs).encode())),
        operations=m.operations,
        bytes_out=m.bytes_out,
        cache_operations=m.cache_operations,
        cache_bytes_out=m.cache_bytes_out,
        per_shard=m.per_shard,
        per_backend=m.per_backend,
        per_shard_cache=m.per_shard_cache,
        latency=m.latency.hex(),
        sequential_latency=m.sequential_latency.hex(),
        predicted_cost=None if m.predicted_cost is None else m.predicted_cost.hex(),
        usage={
            field.name: value.hex() if isinstance(value, float) else value
            for field in dataclasses.fields(usage)
            if (value := getattr(usage, field.name)) != ()
        },
    )


#: Recorded on the engine that priced each measurement as its query ran.
RECORDED: dict = {'sdb': {'q1': {'refs': (1, 2562542879),
                'operations': 1,
                'bytes_out': 139,
                'cache_operations': 0,
                'cache_bytes_out': 0,
                'per_shard': (('pass-prov-01', 1, 139),),
                'per_backend': (('sdb', 1, 139),),
                'per_shard_cache': (),
                'latency': '0x1.89c24bc6a7efap-7',
                'sequential_latency': '0x1.89c24bc6a7efap-7',
                'predicted_cost': None,
                'usage': {'requests': ((('simpledb', 'GetAttributes'), 1),),
                          'bytes_out': (('simpledb', 139),),
                          'stored_bytes': (('s3', 6162254), ('simpledb', 82490)),
                          'box_usage_hours': '0x1.380e6446d175bp-17'}},
         'q1_all': {'refs': (280, 4227968876),
                    'operations': 356,
                    'bytes_out': 302450,
                    'cache_operations': 0,
                    'cache_bytes_out': 0,
                    'per_shard': (('pass-prov-00', 76, 55839),
                                  ('pass-prov-01', 86, 62374),
                                  ('pass-prov-02', 98, 100414),
                                  ('pass-prov-03', 96, 83823)),
                    'per_backend': (('sdb', 356, 302450),),
                    'per_shard_cache': (),
                    'latency': '0x1.9811485c28f5cp+2',
                    'sequential_latency': '0x1.9811485c28f5cp+2',
                    'predicted_cost': None,
                    'usage': {'requests': ((('s3', 'GET'), 72),
                                           (('simpledb', 'GetAttributes'), 280),
                                           (('simpledb', 'Query'), 4)),
                              'bytes_out': (('s3', 214213), ('simpledb', 88237)),
                              'stored_bytes': (('s3', 6162254), ('simpledb', 82490)),
                              'box_usage_hours': '0x1.5d62b1a5ffd86p-9'}},
         'q2': {'refs': (2, 2428810506),
                'operations': 8,
                'bytes_out': 144,
                'cache_operations': 0,
                'cache_bytes_out': 0,
                'per_shard': (('pass-prov-00', 2, 0),
                              ('pass-prov-01', 2, 72),
                              ('pass-prov-02', 2, 32),
                              ('pass-prov-03', 2, 40)),
                'per_backend': (('sdb', 8, 144),),
                'per_shard_cache': (),
                'latency': '0x1.eb8e1eb851eb8p-3',
                'sequential_latency': '0x1.eb8e1eb851eb8p-3',
                'predicted_cost': None,
                'usage': {'requests': ((('simpledb', 'QueryWithAttributes'), 8),),
                          'bytes_out': (('simpledb', 144),),
                          'stored_bytes': (('s3', 6162254), ('simpledb', 82490)),
                          'box_usage_hours': '0x1.56415534e5baep-13'}},
         'q3': {'refs': (4, 1699268213),
                'operations': 20,
                'bytes_out': 290,
                'cache_operations': 0,
                'cache_bytes_out': 0,
                'per_shard': (('pass-prov-00', 5, 31),
                              ('pass-prov-01', 5, 114),
                              ('pass-prov-02', 5, 63),
                              ('pass-prov-03', 5, 82)),
                'per_backend': (('sdb', 20, 290),),
                'per_shard_cache': (),
                'latency': '0x1.3337bb3333333p-1',
                'sequential_latency': '0x1.3337bb3333333p-1',
                'predicted_cost': None,
                'usage': {'requests': ((('simpledb', 'QueryWithAttributes'), 20),),
                          'bytes_out': (('simpledb', 290),),
                          'stored_bytes': (('s3', 6162254), ('simpledb', 82490)),
                          'box_usage_hours': '0x1.abd1aa821f29bp-12'}},
         'q4': {'refs': (97, 1936871463),
                'operations': 4,
                'bytes_out': 3311,
                'cache_operations': 0,
                'cache_bytes_out': 0,
                'per_shard': (('pass-prov-00', 1, 533),
                              ('pass-prov-01', 1, 1233),
                              ('pass-prov-02', 1, 549),
                              ('pass-prov-03', 1, 996)),
                'per_backend': (('sdb', 4, 3311),),
                'per_shard_cache': (),
                'latency': '0x1.ed22feb851eb8p-4',
                'sequential_latency': '0x1.ed22feb851eb8p-4',
                'predicted_cost': None,
                'usage': {'requests': ((('simpledb', 'QueryWithAttributes'), 4),),
                          'bytes_out': (('simpledb', 3311),),
                          'stored_bytes': (('s3', 6162254), ('simpledb', 82490)),
                          'box_usage_hours': '0x1.56415534e5baep-14'}}},
 'ddb': {'q1': {'refs': (1, 2562542879),
                'operations': 1,
                'bytes_out': 139,
                'cache_operations': 2,
                'cache_bytes_out': 0,
                'per_shard': (('pass-prov-01', 1, 139),),
                'per_backend': (('ddb', 1, 139),),
                'per_shard_cache': (('pass-prov-01', 2, 0),),
                'latency': '0x1.baa3b53f7cedap-6',
                'sequential_latency': '0x1.baa3b53f7cedap-6',
                'predicted_cost': None,
                'usage': {'requests': ((('dynamodb', 'GetItem'), 1),
                                       (('elasticache', 'Get'), 1),
                                       (('elasticache', 'Put'), 1)),
                          'bytes_in': (('elasticache', 139),),
                          'bytes_out': (('dynamodb', 139),),
                          'stored_bytes': (('dynamodb', 88237),
                                           ('dynamodb-gsi', 176945),
                                           ('elasticache', 139),
                                           ('s3', 6162254)),
                          'box_usage_hours': '0x0.0p+0',
                          'read_capacity_units': (('dynamodb', 0.5),)}},
         'q1_all': {'refs': (280, 4227968876),
                    'operations': 80,
                    'bytes_out': 302450,
                    'cache_operations': 0,
                    'cache_bytes_out': 0,
                    'per_shard': (('pass-prov-00', 15, 55839),
                                  ('pass-prov-01', 13, 62374),
                                  ('pass-prov-02', 31, 100414),
                                  ('pass-prov-03', 21, 83823)),
                    'per_backend': (('ddb', 80, 302450),),
                    'per_shard_cache': (),
                    'latency': '0x1.b82afb3333333p+0',
                    'sequential_latency': '0x1.8edae2a3d70a4p+1',
                    'predicted_cost': None,
                    'usage': {'requests': ((('dynamodb', 'Scan'), 8), (('s3', 'GET'), 72)),
                              'bytes_out': (('dynamodb', 88237), ('s3', 214213)),
                              'stored_bytes': (('dynamodb', 88237),
                                               ('dynamodb-gsi', 176945),
                                               ('elasticache', 139),
                                               ('s3', 6162254)),
                              'box_usage_hours': '0x0.0p+0',
                              'read_capacity_units': (('dynamodb', 14.0),)}},
         'q2': {'refs': (2, 2428810506),
                'operations': 12,
                'bytes_out': 214,
                'cache_operations': 4,
                'cache_bytes_out': 0,
                'per_shard': (('pass-prov-00', 3, 0),
                              ('pass-prov-01', 3, 107),
                              ('pass-prov-02', 3, 41),
                              ('pass-prov-03', 3, 66)),
                'per_backend': (('ddb', 12, 214),),
                'per_shard_cache': (('elasticache', 4, 0),),
                'latency': '0x1.3b6f2a1cac084p-3',
                'sequential_latency': '0x1.375276a7ef9dcp-2',
                'predicted_cost': '0x1.51d16d0917d6ap-18',
                'usage': {'requests': ((('dynamodb', 'DescribeTable'), 4),
                                       (('dynamodb-gsi', 'Query'), 8),
                                       (('elasticache', 'Get'), 2),
                                       (('elasticache', 'Put'), 2)),
                          'bytes_in': (('elasticache', 114),),
                          'bytes_out': (('dynamodb-gsi', 214),),
                          'stored_bytes': (('dynamodb', 88237),
                                           ('dynamodb-gsi', 176945),
                                           ('elasticache', 253),
                                           ('s3', 6162254)),
                          'box_usage_hours': '0x0.0p+0',
                          'read_capacity_units': (('dynamodb-gsi', 4.0),)}},
         'q3': {'refs': (4, 1699268213),
                'operations': 12,
                'bytes_out': 270,
                'cache_operations': 8,
                'cache_bytes_out': 114,
                'per_shard': (('pass-prov-00', 3, 68),
                              ('pass-prov-01', 3, 67),
                              ('pass-prov-02', 3, 68),
                              ('pass-prov-03', 3, 67)),
                'per_backend': (('ddb', 12, 270),),
                'per_shard_cache': (('elasticache', 8, 114),),
                'latency': '0x1.43a9410624dd4p-3',
                'sequential_latency': '0x1.3b705a1cac084p-2',
                'predicted_cost': '0x1.9e20d0aaa7defp-20',
                'usage': {'requests': ((('dynamodb-gsi', 'Query'), 12),
                                       (('elasticache', 'Get'), 5),
                                       (('elasticache', 'Put'), 3)),
                          'bytes_in': (('elasticache', 130),),
                          'bytes_out': (('dynamodb-gsi', 270), ('elasticache', 114)),
                          'stored_bytes': (('dynamodb', 88237),
                                           ('dynamodb-gsi', 176945),
                                           ('elasticache', 383),
                                           ('s3', 6162254)),
                          'box_usage_hours': '0x0.0p+0',
                          'read_capacity_units': (('dynamodb-gsi', 6.0),)}},
         'q4': {'refs': (97, 1936871463),
                'operations': 8,
                'bytes_out': 88237,
                'cache_operations': 2,
                'cache_bytes_out': 0,
                'per_shard': (('pass-prov-00', 2, 21034),
                              ('pass-prov-01', 2, 22284),
                              ('pass-prov-02', 2, 22171),
                              ('pass-prov-03', 2, 22748)),
                'per_backend': (('ddb', 8, 88237),),
                'per_shard_cache': (('elasticache', 2, 0),),
                'latency': '0x1.b7c7c083126eap-4',
                'sequential_latency': '0x1.b33cfd0e56042p-3',
                'predicted_cost': '0x1.ab5148adeebb4p-16',
                'usage': {'requests': ((('dynamodb', 'Scan'), 8),
                                       (('elasticache', 'Get'), 1),
                                       (('elasticache', 'Put'), 1)),
                          'bytes_in': (('elasticache', 2535),),
                          'bytes_out': (('dynamodb', 88237),),
                          'stored_bytes': (('dynamodb', 88237),
                                           ('dynamodb-gsi', 176945),
                                           ('elasticache', 2918),
                                           ('s3', 6162254)),
                          'box_usage_hours': '0x0.0p+0',
                          'read_capacity_units': (('dynamodb', 14.0),)}}}}


def another_query(sim, engine) -> None:
    engine.q3_descendants_of("blast")


def write_burst(sim, engine) -> None:
    sim.store_events(BURST, collect=False)
    sim.settle()


def cutover(sim, engine) -> None:
    sim.migrate(shards=3)


@pytest.mark.parametrize("disturb", (another_query, write_burst, cutover))
@pytest.mark.parametrize("cloud", sorted(CLOUDS))
def test_a_measurement_read_later_reads_what_its_query_spent(cloud, disturb):
    sim = loaded(cloud)
    engine = sim.query_engine()
    measured = {name: issue(engine, name) for name in QUERIES}
    levels = sim.usage().stored_bytes
    disturb(sim, engine)
    if disturb is not another_query:
        assert sim.usage().stored_bytes != levels  # the levels did move
    read = {name: public(m) for name, m in measured.items()}
    assert read == RECORDED[cloud]
    assert {name: public(m) for name, m in measured.items()} == read
    for m in measured.values():
        assert m.usage is m.usage
        assert m.per_shard is m.per_shard


def test_an_unattributed_request_is_reported_when_the_query_ends(monkeypatch):
    monkeypatch.setattr(sanitize, "ACTIVE", True)
    sanitize.reset()
    engine = loaded("sdb").query_engine()
    leak_between_waves(engine, monkeypatch)
    measurement = engine.q2_outputs_of("blast")
    found = sanitize.violations()  # before any field of the measurement is read
    sanitize.reset()
    assert any("2 request(s) simpledb/DomainMetadata" in v.message for v in found)
    assert measurement.operations == RECORDED["sdb"]["q2"]["operations"] + 2
