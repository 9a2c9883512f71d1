"""Every DynamoDB write path commits an item the same way.

``update_item``, ``batch_write_item`` and ``delete_item`` each change an
item's authoritative state, its replicas, the stored bytes and its index
entries. One seeded sequence of the three calls runs on two tables: one
whose GSIs charge the table's own write window, one whose GSI has its
own ``wcu``. The batches repeat a key and some are admitted only in
part. What the sequence leaves behind — each call's outcome, the whole
meter, ``describe_table`` and every index's converged entries — must
equal the literals below, recorded when each write path still committed
its item with its own copy of the steps.
"""

from __future__ import annotations

import dataclasses
import random

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.dynamo import IndexSpec
from repro.errors import ProvisionedThroughputExceeded

SIMPLE = IndexSpec("gsi-k", "k", include=("v",))
OWN = IndexSpec("gsi-k", "k", include=("v",), wcu=3)
COMPOSITE = IndexSpec("gsi-k-r", "k", range_attribute="r", project_all=True)
TABLES = {"shared": (SIMPLE, COMPOSITE), "own": (OWN,)}
#: A value wide enough that an item can need more than one write unit.
BIG = "d" * 300


def shortened(value):
    """``value`` with every ``BIG`` inside its strings spelled ``"<BIG>"``,
    so the literals below stay readable."""
    if isinstance(value, str):
        return value.replace(BIG, "<BIG>")
    if isinstance(value, dict):
        return {shortened(k): shortened(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(shortened(v) for v in value)
    return value


def run_sequence():
    """The seeded call sequence: ``(account, one outcome per call)``. An
    outcome is ``"ok"``, ``"throttled"``, or a batch's unprocessed keys."""
    account = AWSAccount(
        seed=21, consistency=ConsistencyConfig.eventual(window=1.0, immediate_fraction=0.5)
    )
    ddb = account.dynamodb
    for table, specs in TABLES.items():
        ddb.create_table(table, read_capacity=1000, write_capacity=8)
        for spec in specs:
            ddb.create_index(table, spec)
    rng = random.Random(5)
    keys = [f"item-{i}" for i in range(6)]

    def adds():
        return [
            (rng.choice("kvrx"), rng.choice(("a", "b", "c", BIG)))
            for _ in range(rng.randint(1, 3))
        ]

    outcomes = []
    for _ in range(80):
        table = rng.choice(sorted(TABLES))
        op = rng.choice(("update", "update", "batch", "delete"))
        try:
            if op == "update":
                ddb.update_item(table, rng.choice(keys), adds())
                outcome = "ok"
            elif op == "batch":
                puts = [(rng.choice(keys), adds()) for _ in range(rng.randint(2, 6))]
                puts.append((puts[0][0], adds()))  # a repeated key, always
                outcome = [key for key, _ in ddb.batch_write_item(table, puts)]
            else:
                ddb.delete_item(table, rng.choice(keys))
                outcome = "ok"
        except ProvisionedThroughputExceeded:
            outcome = "throttled"
        outcomes.append((op, table, outcome))
        if rng.random() < 0.4:
            account.clock.advance(1.0)
    return account, outcomes


# -- recorded literals -------------------------------------------------------

OUTCOMES = [('batch', 'shared', ['item-1']), ('batch', 'shared', 'throttled'),
            ('update', 'own', 'ok'), ('batch', 'shared', ['item-0', 'item-2']),
            ('update', 'own', 'ok'), ('update', 'own', 'ok'), ('update', 'own', 'ok'),
            ('batch', 'shared', []), ('update', 'shared', 'ok'),
            ('batch', 'shared', ['item-2', 'item-5', 'item-4']),
            ('batch', 'shared', 'throttled'), ('update', 'own', 'ok'),
            ('update', 'shared', 'throttled'), ('update', 'own', 'ok'),
            ('update', 'shared', 'ok'), ('delete', 'shared', 'ok'),
            ('delete', 'shared', 'ok'), ('delete', 'shared', 'ok'),
            ('batch', 'own', []), ('delete', 'shared', 'ok'),
            ('batch', 'shared', 'throttled'), ('update', 'own', 'ok'),
            ('delete', 'shared', 'throttled'), ('batch', 'own', ['item-5', 'item-0']),
            ('update', 'own', 'ok'), ('update', 'own', 'ok'), ('delete', 'own', 'ok'),
            ('update', 'shared', 'ok'), ('batch', 'own', ['item-4', 'item-4']),
            ('batch', 'own', ['item-0']), ('update', 'shared', 'ok'),
            ('update', 'own', 'throttled'), ('update', 'shared', 'ok'),
            ('delete', 'own', 'throttled'), ('batch', 'shared', []),
            ('update', 'own', 'ok'), ('delete', 'own', 'ok'), ('update', 'own', 'ok'),
            ('update', 'shared', 'ok'), ('delete', 'own', 'ok'),
            ('update', 'own', 'ok'),
            ('batch', 'own', ['item-3', 'item-3', 'item-5', 'item-3']),
            ('delete', 'own', 'ok'), ('update', 'shared', 'ok'),
            ('batch', 'own', ['item-5']), ('update', 'shared', 'ok'),
            ('update', 'shared', 'ok'), ('update', 'own', 'ok'),
            ('update', 'shared', 'ok'), ('update', 'own', 'ok'),
            ('delete', 'own', 'ok'), ('delete', 'shared', 'ok'),
            ('batch', 'own', ['item-1']), ('delete', 'shared', 'ok'),
            ('delete', 'shared', 'ok'), ('update', 'own', 'throttled'),
            ('batch', 'own', ['item-1', 'item-1']), ('update', 'own', 'ok'),
            ('update', 'shared', 'ok'), ('update', 'own', 'ok'),
            ('delete', 'own', 'ok'), ('batch', 'own', ['item-3']),
            ('update', 'own', 'throttled'), ('delete', 'shared', 'ok'),
            ('update', 'shared', 'ok'), ('delete', 'own', 'ok'),
            ('update', 'own', 'ok'), ('update', 'shared', 'ok'),
            ('delete', 'own', 'ok'), ('batch', 'own', []),
            ('batch', 'own', ['item-0', 'item-0']), ('delete', 'shared', 'ok'),
            ('update', 'own', 'ok'), ('batch', 'own', ['item-2']),
            ('update', 'own', 'ok'),
            ('batch', 'shared', ['item-1', 'item-5', 'item-4', 'item-3']),
            ('delete', 'own', 'ok'), ('batch', 'own', ['item-4', 'item-4']),
            ('delete', 'shared', 'ok'), ('delete', 'own', 'ok')]

METER = {'box_usage_hours': 0.0,
         'byte_seconds': (('dynamodb', 103161.0), ('dynamodb-gsi', 142461.0)),
         'bytes_in': (('dynamodb', 14116),),
         'bytes_out': (),
         'read_capacity_units': (),
         'requests': ((('dynamodb', 'BatchWriteItem'), 19),
                      (('dynamodb', 'CreateIndex'), 3),
                      (('dynamodb', 'CreateTable'), 2),
                      (('dynamodb', 'DeleteItem'), 20),
                      (('dynamodb', 'UpdateItem'), 32)),
         'stored_bytes': (('dynamodb', 4627), ('dynamodb-gsi', 7982)),
         'write_capacity_units': (('dynamodb', 117.0), ('dynamodb-gsi', 86.0))}

DESCRIBED = {'own': {'indexes': {'gsi-k': {'distinct_keys': 4,
                                           'entry_bytes': 4412,
                                           'entry_count': 7,
                                           'key_bytes': {'<BIG>': 1727,
                                                         'a': 718,
                                                         'b': 417,
                                                         'c': 1550},
                                           'key_counts': {'<BIG>': 2,
                                                          'a': 1,
                                                          'b': 1,
                                                          'c': 3},
                                           'lag_seconds': 0.0,
                                           'range_attribute': None,
                                           'range_bytes': {},
                                           'range_counts': {}}},
                     'item_count': 4,
                     'table_bytes': 3086},
             'shared': {'indexes': {'gsi-k': {'distinct_keys': 3,
                                              'entry_bytes': 1536,
                                              'entry_count': 3,
                                              'key_bytes': {'<BIG>': 1009,
                                                            'a': 413,
                                                            'b': 114},
                                              'key_counts': {'<BIG>': 1,
                                                             'a': 1,
                                                             'b': 1},
                                              'lag_seconds': 0.0,
                                              'range_attribute': None,
                                              'range_bytes': {},
                                              'range_counts': {}},
                                    'gsi-k-r': {'distinct_keys': 2,
                                                'entry_bytes': 2034,
                                                'entry_count': 2,
                                                'key_bytes': {'<BIG>': 1617, 'a': 417},
                                                'key_counts': {'<BIG>': 1, 'a': 1},
                                                'lag_seconds': 0.0,
                                                'range_attribute': 'r',
                                                'range_bytes': {'<BIG>': 1617,
                                                                'b': 417},
                                                'range_counts': {'<BIG>': 1, 'b': 1}}},
                        'item_count': 3,
                        'table_bytes': 1541}}

ENTRIES = {('own', 'gsi-k'): {('<BIG>', 'item-3'): {'k': ('a', 'c', '<BIG>'),
                                                    'v': ('a', 'c', '<BIG>')},
                              ('<BIG>', 'item-5'): {'k': ('<BIG>',), 'v': ('b',)},
                              ('a', 'item-3'): {'k': ('a', 'c', '<BIG>'),
                                                'v': ('a', 'c', '<BIG>')},
                              ('b', 'item-4'): {'k': ('b', 'c'),
                                                'v': ('a', 'c', '<BIG>')},
                              ('c', 'item-2'): {'k': ('c',), 'v': ('b', 'c', '<BIG>')},
                              ('c', 'item-3'): {'k': ('a', 'c', '<BIG>'),
                                                'v': ('a', 'c', '<BIG>')},
                              ('c', 'item-4'): {'k': ('b', 'c'),
                                                'v': ('a', 'c', '<BIG>')}},
           ('shared', 'gsi-k'): {('<BIG>', 'item-3'): {'k': ('<BIG>',),
                                                       'v': ('<BIG>',)},
                                 ('a', 'item-0'): {'k': ('a',), 'v': ('c', '<BIG>')},
                                 ('b', 'item-5'): {'k': ('b',), 'v': ('a', 'b')}},
           ('shared', 'gsi-k-r'): {('<BIG>\x00<BIG>', 'item-3'): {'k': ('<BIG>',),
                                                                  'r': ('<BIG>',),
                                                                  'v': ('<BIG>',),
                                                                  'x': ('a', 'b',
                                                                        'c')},
                                   ('a\x00b', 'item-0'): {'k': ('a',),
                                                          'r': ('b',),
                                                          'v': ('c', '<BIG>')}}}


def test_write_paths_leave_the_recorded_state():
    account, outcomes = run_sequence()
    ddb = account.dynamodb
    partial = [o for op, _, o in outcomes if op == "batch" and isinstance(o, list) and o]
    assert partial  # the sequence does admit some batches only in part
    assert outcomes == OUTCOMES
    assert dataclasses.asdict(account.meter.snapshot()) == METER
    assert shortened({table: ddb.describe_table(table) for table in TABLES}) == DESCRIBED
    assert shortened({
        (table, spec.name): ddb.authoritative_index_entries(table, spec.name)
        for table, specs in TABLES.items()
        for spec in specs
    }) == ENTRIES
    assert ddb.size_audit() == []
