"""Property tests: the eventual-consistency engine converges correctly."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tests.oracles import ReferenceReplicaSet
from repro.aws.consistency import STRONG, DelayModel, ReplicaSet
from repro.clock import SimClock

keys = st.text(alphabet="abcdef", min_size=1, max_size=3)
ops = st.lists(
    st.tuples(st.sampled_from(["write", "delete"]), keys, st.integers(0, 99)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=ops, seed=st.integers(0, 10_000), window=st.floats(0.0, 5.0))
def test_quiesced_replicas_equal_sequential_model(ops, seed, window):
    """After quiescing, every replica equals a plain-dict replay."""
    clock = SimClock()
    replicas = ReplicaSet(
        "prop",
        clock,
        random.Random(seed),
        n_replicas=3,
        delays=DelayModel(max_delay=window, immediate_fraction=0.3),
    )
    model: dict[str, int] = {}
    for op, key, value in ops:
        if op == "write":
            replicas.write(key, value)
            model[key] = value
        else:
            replicas.delete(key)
            model.pop(key, None)
    clock.run_until_idle()
    assert replicas.is_converged()
    assert dict(replicas.authoritative_items()) == model
    for key, value in model.items():
        assert replicas.read(key) == value


@settings(max_examples=60, deadline=None)
@given(ops=ops, seed=st.integers(0, 10_000))
def test_reads_never_invent_values(ops, seed):
    """A read returns something that was written for that key (or None):
    eventual consistency serves stale values, never foreign ones."""
    clock = SimClock()
    replicas = ReplicaSet(
        "prop",
        clock,
        random.Random(seed),
        n_replicas=3,
        delays=DelayModel(max_delay=3.0, immediate_fraction=0.2),
    )
    written: dict[str, set[int]] = {}
    for op, key, value in ops:
        if op == "write":
            replicas.write(key, value)
            written.setdefault(key, set()).add(value)
        else:
            replicas.delete(key)
        observed = replicas.read(key)
        assert observed is None or observed in written.get(key, set())


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(0, 99), min_size=2, max_size=10),
    seed=st.integers(0, 10_000),
)
def test_last_writer_wins_always(values, seed):
    """Whatever the propagation delays, convergence picks the last write."""
    clock = SimClock()
    replicas = ReplicaSet(
        "prop",
        clock,
        random.Random(seed),
        n_replicas=4,
        delays=DelayModel(max_delay=10.0),
    )
    for value in values:
        replicas.write("k", value)
    clock.run_until_idle()
    assert replicas.read("k") == values[-1]


# -- differential: lag-only replicas against full-copy replicas ----------------

_few_keys = st.sampled_from("abc")  # a key is rewritten while in flight
_values = st.one_of(st.integers(0, 3), st.integers(0, 3).map(lambda v: (v,)))
_diff_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _few_keys, _values),
        st.tuples(st.just("delete"), _few_keys, st.none()),
        st.tuples(st.just("advance"), st.sampled_from([0.2, 0.7, 1.6]), st.none()),
        st.tuples(st.just("read"), _few_keys, st.none()),
        st.tuples(st.just("snapshot"), st.none(), st.none()),
    ),
    min_size=20,
    max_size=60,
)


@pytest.mark.parametrize(
    "delays", [STRONG, DelayModel(0.1, 1.5, 0.3)], ids=["strong", "eventual"]
)
@settings(max_examples=100, deadline=None)
@given(ops=_diff_ops, seed=st.integers(0, 10_000))
def test_lag_only_replicas_match_full_copies(delays, ops, seed):
    """Same seed, same operations: every answer, counter and RNG draw of
    the lag-only ``ReplicaSet`` equals the full-copy model's, after every
    operation. Tuples equal by value but not by identity tell
    ``stale_reads`` (identity) from ``is_converged`` (equality)."""
    clock, model_clock = SimClock(), SimClock()
    replicas = ReplicaSet("r", clock, random.Random(seed), 3, delays)
    model = ReferenceReplicaSet("r", model_clock, random.Random(seed), 3, delays)
    for op, key, value in ops:
        if op == "write":
            assert replicas.write(key, value) == model.write(key, value)
        elif op == "delete":
            assert replicas.delete(key) == model.delete(key)
        elif op == "advance":
            clock.advance(key)
            model_clock.advance(key)
        elif op == "read":
            assert replicas.read(key) is model.read(key)
        else:
            snapshot = replicas.ordered_snapshot()
            rows = model.snapshot_items()
            assert list(snapshot.between()) == rows
            assert list(snapshot.keys) == [k for k, _ in rows]
            assert all(snapshot.values[k] is v for k, v in rows)
        assert replicas.stale_reads == model.stale_reads
        assert replicas.pending_installs == model.pending_installs
        assert replicas.lag_seconds() == model.lag_seconds()
        assert replicas.is_converged() == model.is_converged()
        assert {id(v) for v in replicas.stored_values()} == {
            id(v) for v in model.stored_values()
        }
        assert replicas._rng.getstate() == model._rng.getstate()
    if delays is STRONG:
        assert not any(replicas._lags) and not replicas._heads
    clock.run_until_idle()
    model_clock.run_until_idle()
    assert replicas.is_converged() and model.is_converged()
    assert not any(replicas._lags) and not replicas._heads
