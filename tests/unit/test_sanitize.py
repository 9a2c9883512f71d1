"""The REPRO_SANITIZE runtime sanitizer: inversions and unattributed
spend are detected when it is on, and the build is byte-identical when
it is off."""

from __future__ import annotations

import threading

import pytest

from repro.aws.billing import Meter, PriceBook
from repro.clock import SimClock
from repro.concurrency import new_lock
from repro.devtools import sanitize


@pytest.fixture
def sanitized(monkeypatch):
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
    sanitize.reset()
    yield
    sanitize.reset()


@pytest.fixture
def unsanitized(monkeypatch):
    monkeypatch.delenv(sanitize.SANITIZE_ENV, raising=False)
    sanitize.reset()
    yield
    sanitize.reset()


# -- lock order ------------------------------------------------------------


def test_documented_order_is_clean(sanitized):
    service = new_lock("service", name="svc")
    meter = new_lock("meter", name="m")
    leaf = new_lock("leaf", name="clock")
    with service, meter, leaf:
        pass
    assert sanitize.violations() == ()


def test_reentrant_reacquisition_is_clean(sanitized):
    service = new_lock("service", name="svc")
    with service, service:
        pass
    assert sanitize.violations() == ()


def test_inversion_meter_then_service_is_flagged(sanitized):
    service = new_lock("service", name="svc")
    meter = new_lock("meter", name="m")
    with meter, service:
        pass
    (violation,) = sanitize.violations()
    assert violation.kind == "lock-order"
    assert "svc" in violation.message and "m (rank 20)" in violation.message
    sanitize.reset()


def test_two_service_locks_nested_is_flagged(sanitized):
    # The coarse model never nests same-rank locks; doing so is the
    # classic ABBA deadlock shape the sanitizer exists to catch.
    a = new_lock("service", name="a")
    b = new_lock("service", name="b")
    with a, b:
        pass
    assert [v.kind for v in sanitize.violations()] == ["lock-order"]
    sanitize.reset()


def test_anything_under_a_leaf_lock_is_flagged(sanitized):
    leaf = new_lock("leaf", name="heap")
    service = new_lock("service", name="svc")
    with leaf, service:
        pass
    assert [v.kind for v in sanitize.violations()] == ["lock-order"]
    sanitize.reset()


def test_held_stacks_are_per_thread(sanitized):
    """Thread A holding the meter lock must not poison thread B's order."""
    meter = new_lock("meter", name="m")
    service = new_lock("service", name="svc")
    meter.acquire()
    try:
        worker = threading.Thread(target=lambda: service.acquire() and service.release())
        worker.start()
        worker.join()
    finally:
        meter.release()
    assert sanitize.violations() == ()


def test_violations_record_but_never_raise(sanitized):
    leaf = new_lock("leaf", name="heap")
    meter = new_lock("meter", name="m")
    with leaf:
        with meter:  # would deadlock-shape; still acquires and proceeds
            witnessed = True
    assert witnessed
    assert len(sanitize.violations()) == 1
    sanitize.reset()


# -- meter attribution -----------------------------------------------------


def test_unscoped_spend_inside_expect_bracket_is_flagged(sanitized):
    meter = Meter(SimClock())
    with meter.expect_scope():
        meter.record_request("s3", "GetObject")
    (violation,) = sanitize.violations()
    assert violation.kind == "unattributed-spend"
    assert "request s3/GetObject" in violation.message
    sanitize.reset()


def test_scoped_spend_inside_expect_bracket_is_clean(sanitized):
    meter = Meter(SimClock())
    with meter.expect_scope():
        with meter.scoped() as scope:
            meter.record_request("s3", "GetObject")
            meter.record_transfer_out("s3", 512)
    assert sanitize.violations() == ()
    assert scope.request_count() == 1


def test_spend_outside_any_query_is_clean(sanitized):
    # No expect_scope bracket: background daemons and setup writes are
    # allowed to record without a scope.
    meter = Meter(SimClock())
    meter.record_request("sqs", "SendMessage")
    assert sanitize.violations() == ()


def test_expect_bracket_is_thread_local(sanitized):
    """A bracket on the caller thread says nothing about worker threads."""
    meter = Meter(SimClock())
    with meter.expect_scope():
        worker = threading.Thread(
            target=lambda: meter.record_request("s3", "GetObject")
        )
        worker.start()
        worker.join()
    assert sanitize.violations() == ()


def test_the_sanitizer_is_decided_when_the_meter_is_built(sanitized, monkeypatch):
    """Like ``new_lock``'s shim, the flag is read once at construction:
    a meter built with the sanitizer on keeps flagging, one built with
    it off stays inert even if the variable is set later."""
    built_on = Meter(SimClock())
    monkeypatch.delenv(sanitize.SANITIZE_ENV)
    built_off = Meter(SimClock())
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")

    with built_off.expect_scope():
        built_off.record_request("s3", "GetObject")
        built_off.record_transfer_out("s3", 512)
    assert sanitize.violations() == ()

    monkeypatch.delenv(sanitize.SANITIZE_ENV)
    with built_on.expect_scope():
        built_on.record_request("s3", "GetObject")
    assert [v.kind for v in sanitize.violations()] == ["unattributed-spend"]
    sanitize.reset()


# -- off means off ---------------------------------------------------------


def _exercise(meter: Meter, clock: SimClock):
    meter.record_request("s3", "PutObject")
    meter.record_transfer_in("s3", 4096)
    meter.adjust_stored("s3", 4096)
    with meter.expect_scope():
        with meter.scoped() as scope:
            meter.record_request("simpledb", "Select")
            meter.record_capacity("dynamodb", read_units=1.5)
    clock.advance(3600.0)
    return scope


def test_sanitizer_off_is_byte_identical_on_the_meter(unsanitized, monkeypatch):
    clock_off = SimClock()
    meter_off = Meter(clock_off)
    _exercise(meter_off, clock_off)
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
    clock_on = SimClock()
    meter_on = Meter(clock_on)
    _exercise(meter_on, clock_on)

    off, on = meter_off.snapshot(), meter_on.snapshot()
    assert off == on
    book = PriceBook()
    assert book.cost(off).total == book.cost(on).total
    # The legitimate scoped spend above is attributed, so even the
    # sanitized run recorded nothing.
    assert sanitize.violations() == ()


def test_new_lock_returns_plain_rlock_when_off(unsanitized):
    lock = new_lock("service")
    assert not isinstance(lock, sanitize.OrderedLock)
    assert type(lock).__name__ == "RLock"


def test_new_lock_rejects_unknown_order_in_both_modes(unsanitized, monkeypatch):
    with pytest.raises(ValueError):
        new_lock("mystery")
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
    with pytest.raises(ValueError):
        new_lock("mystery")


def test_enabled_parses_the_env(monkeypatch):
    monkeypatch.delenv(sanitize.SANITIZE_ENV, raising=False)
    assert not sanitize.enabled()
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "0")
    assert not sanitize.enabled()
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
    assert sanitize.enabled()
