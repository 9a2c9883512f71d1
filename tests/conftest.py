"""Shared fixtures: accounts, architectures, and miniature traces.

Also registers the hypothesis profiles the Makefile and CI select via
``HYPOTHESIS_PROFILE``: ``ci`` is derandomized (reproducible across
workers and reruns), ``dev`` trades examples for speed, and the
hypothesis default applies when the variable is unset.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=60, deadline=None, derandomize=True)
settings.register_profile("dev", max_examples=20, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.devtools import sanitize


@pytest.fixture(autouse=True)
def _sanitizer_gate():
    """Fail the test whose run grew the sanitizer's violation registry
    (tests switch ``sanitize.ACTIVE`` on; the sanitizer records instead
    of raising, so this is what localises an offending query). A test
    that plants violations on purpose resets the registry itself."""
    before = len(sanitize.violations())
    yield
    grown = sanitize.violations()[before:]
    assert not grown, "sanitizer violations during this test:\n" + "\n".join(
        violation.render() for violation in grown
    )
from repro.blob import BytesBlob
# ``make_architecture`` is the library's one builder (a provisioned store
# with the clock-advancing retry policy); tests import it from here.
from repro.core import ARCHITECTURES, make_architecture
from repro.passlib.capture import PassSystem


@pytest.fixture
def strong_account() -> AWSAccount:
    """A cloud with instantaneous replication (no consistency races)."""
    return AWSAccount(seed=1234, consistency=ConsistencyConfig.strong())


@pytest.fixture
def eventual_account() -> AWSAccount:
    """The adversarial cloud: replica propagation up to 2 s."""
    return AWSAccount(
        seed=1234,
        consistency=ConsistencyConfig.eventual(window=2.0, immediate_fraction=0.4),
    )


def provenance_oracle_item(account: AWSAccount, item_name: str):
    """Authoritative read of one provenance item through the *placed*
    backend of the default single-shard layout — the read every
    atomicity/idempotency oracle shares, so none of them hard-codes the
    SimpleDB service.
    """
    from repro.sharding import ShardRouter

    router = ShardRouter(1)
    domain = router.domain_for_item(item_name)
    backend = account.provenance_backends()[router.backend_for(domain)]
    return backend.authoritative_item(domain, item_name)


@pytest.fixture(params=list(ARCHITECTURES))
def any_architecture(request, strong_account):
    """Each architecture over a strongly consistent cloud."""
    return make_architecture(request.param, strong_account)


def tiny_trace():
    """input.csv → analyze → out.csv: three flush events."""
    pas = PassSystem(workload="tiny")
    pas.stage_input("data/input.csv", BytesBlob(b"a,b\n1,2\n"))
    with pas.process("analyze", argv="--fast") as proc:
        proc.read("data/input.csv")
        proc.write("data/out.csv", BytesBlob(b"sum\n3\n"))
        proc.close("data/out.csv")
    return pas.drain_flushes()


@pytest.fixture
def trace():
    return tiny_trace()
