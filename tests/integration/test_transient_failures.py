"""Integration: transient 503s must not break any store protocol.

AWS returns retryable ServiceUnavailable errors under load; the client
protocols re-issue requests (``call_with_retries``), which is safe
because the simulated services fail *before* mutating state — the same
contract real AWS SDK retries rely on.
"""

import pytest

from repro.aws.faults import call_with_retries
from repro.errors import ServiceUnavailable
from tests.conftest import make_architecture, tiny_trace


class TestCallWithRetries:
    def test_retries_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ServiceUnavailable("try again")
            return "ok"

        assert call_with_retries(flaky) == "ok"
        assert len(calls) == 3

    def test_exhausts_and_raises(self):
        def always_down():
            raise ServiceUnavailable("down")

        with pytest.raises(ServiceUnavailable):
            call_with_retries(always_down, attempts=3)

    def test_passes_arguments(self):
        assert call_with_retries(lambda a, b=0: a + b, 2, b=3) == 5


@pytest.mark.parametrize("arch", ["s3", "s3+simpledb", "s3+simpledb+sqs"])
class TestStoreSurvivesTransients:
    def test_single_503_absorbed(self, arch, strong_account, trace):
        store = make_architecture(arch, strong_account)
        # One failure on each service the architecture touches.
        strong_account.request_faults.fail_next("s3", "PUT")
        if arch != "s3":
            strong_account.request_faults.fail_next("simpledb", "PutAttributes")
        if arch == "s3+simpledb+sqs":
            strong_account.request_faults.fail_next("sqs", "SendMessage")
        store.store_trace(trace)
        if arch == "s3+simpledb+sqs":
            store.pump()
        result = store.read("data/out.csv")
        assert result.consistent
        assert strong_account.request_faults.failures_injected >= 1

    def test_burst_of_503s_absorbed(self, arch, strong_account):
        store = make_architecture(arch, strong_account)
        strong_account.request_faults.fail_next("s3", "PUT", times=2)
        store.store_trace(tiny_trace())
        if arch == "s3+simpledb+sqs":
            store.pump()
        assert store.read("data/out.csv").consistent


class TestDaemonSurvivesTransients:
    def test_commit_apply_retries_puts(self, strong_account, trace):
        store = make_architecture(
            "s3+simpledb+sqs", strong_account, commit_threshold=1000
        )
        store.store_trace(trace)
        strong_account.request_faults.fail_next(
            "simpledb", "PutAttributes", times=2
        )
        applied = store.commit_daemon.drain()
        assert applied == len(trace)
        assert store.read("data/out.csv").consistent
