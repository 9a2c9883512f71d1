"""Unit tests for metering and the Jan-2009 price book."""

import pytest
from hypothesis import given, strategies as st

from repro.aws import billing
from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.elasticache import attrs_nbytes
from repro.aws.simpledb import Attribute
from repro.blob import BytesBlob
from repro.clock import SimClock
from repro.units import GB, SECONDS_PER_MONTH


@pytest.fixture
def meter():
    return billing.Meter(SimClock())


class TestMeter:
    def test_counts_requests_by_service_and_op(self, meter):
        meter.record_request(billing.S3, "PUT")
        meter.record_request(billing.S3, "PUT")
        meter.record_request(billing.S3, "GET")
        meter.record_request(billing.SQS, "SendMessage", count=5)
        usage = meter.snapshot()
        assert usage.request_count() == 8
        assert usage.request_count(billing.S3) == 3
        assert usage.request_count(billing.S3, "PUT") == 2
        assert usage.request_count(billing.SQS) == 5

    def test_transfer_accounting(self, meter):
        meter.record_transfer_in(billing.S3, 1000)
        meter.record_transfer_out(billing.S3, 300)
        meter.record_transfer_out(billing.SDB, 200)
        usage = meter.snapshot()
        assert usage.transfer_in() == 1000
        assert usage.transfer_out() == 500
        assert usage.transfer_out(billing.SDB) == 200

    def test_storage_integrates_over_time(self):
        clock = SimClock()
        meter = billing.Meter(clock)
        meter.adjust_stored(billing.S3, GB)
        clock.advance(SECONDS_PER_MONTH)
        usage = meter.snapshot()
        assert usage.gb_months(billing.S3) == pytest.approx(1.0)

    def test_storage_level_changes_integrate_piecewise(self):
        clock = SimClock()
        meter = billing.Meter(clock)
        meter.adjust_stored(billing.S3, 2 * GB)
        clock.advance(SECONDS_PER_MONTH / 2)
        meter.adjust_stored(billing.S3, -GB)
        clock.advance(SECONDS_PER_MONTH / 2)
        # 2 GB for half a month + 1 GB for half a month = 1.5 GB-months.
        assert meter.snapshot().gb_months(billing.S3) == pytest.approx(1.5)

    def test_negative_storage_rejected(self, meter):
        with pytest.raises(ValueError):
            meter.adjust_stored(billing.S3, -1)

    def test_box_usage_accumulates_for_simpledb(self, meter):
        meter.record_request(billing.SDB, "PutAttributes")
        meter.record_request(billing.SDB, "Query")
        usage = meter.snapshot()
        assert usage.box_usage_hours > 0

    def test_usage_subtraction_measures_deltas(self, meter):
        meter.record_request(billing.S3, "PUT")
        before = meter.snapshot()
        meter.record_request(billing.S3, "PUT", count=3)
        meter.record_transfer_out(billing.S3, 100)
        delta = meter.snapshot() - before
        assert delta.request_count(billing.S3, "PUT") == 3
        assert delta.transfer_out() == 100


def _counted(keys, values):
    return st.dictionaries(keys, values).map(lambda d: tuple(sorted(d.items())))


_SERVICES = st.sampled_from([billing.S3, billing.SDB, billing.SQS, billing.DDB])
_COUNTS = st.integers(1, 10**9)
#: Integral floats: their sums and differences are exact, so the
#: round trip can be asserted with ``==``.
_AMOUNTS = _COUNTS.map(float)
_USAGES = st.builds(
    billing.Usage,
    requests=_counted(st.tuples(_SERVICES, st.sampled_from(["GET", "PUT", "Query"])), _COUNTS),
    bytes_in=_counted(_SERVICES, _COUNTS),
    bytes_out=_counted(_SERVICES, _COUNTS),
    byte_seconds=_counted(_SERVICES, _AMOUNTS),
    stored_bytes=st.just(()),
    box_usage_hours=_AMOUNTS,
    read_capacity_units=_counted(_SERVICES, _AMOUNTS),
    write_capacity_units=_counted(_SERVICES, _AMOUNTS),
)


@given(_USAGES, _USAGES)
def test_usage_difference_keeps_its_sign_on_every_counted_field(a, b):
    """``byte_seconds`` used to drop negative differences (a Counter
    minus a Counter) while every other field kept them."""
    assert (a - b) + b == a


class TestPriceBook:
    def test_paper_prices(self):
        prices = billing.PriceBook()
        # §2.1 quotes these exact figures.
        assert prices.s3_storage_gb_month == 0.15
        assert prices.s3_transfer_in_gb == 0.10
        assert prices.s3_transfer_out_gb == 0.17
        assert prices.s3_put_class_per_1000 == 0.01
        assert prices.s3_get_class_per_10000 == 0.01

    def test_put_class_pricing(self, meter):
        meter.record_request(billing.S3, "PUT", count=1000)
        meter.record_request(billing.S3, "COPY", count=1000)
        cost = billing.PriceBook().cost(meter.snapshot())
        assert cost.by_service()["s3"] == pytest.approx(0.02)

    def test_get_class_cheaper_than_put_class(self, meter):
        meter.record_request(billing.S3, "GET", count=10_000)
        get_cost = billing.PriceBook().cost(meter.snapshot()).total
        meter2 = billing.Meter(SimClock())
        meter2.record_request(billing.S3, "PUT", count=10_000)
        put_cost = billing.PriceBook().cost(meter2.snapshot()).total
        assert put_cost == pytest.approx(10 * get_cost)

    def test_deletes_are_free(self, meter):
        meter.record_request(billing.S3, "DELETE", count=100_000)
        assert billing.PriceBook().cost(meter.snapshot()).total == 0.0

    def test_transfer_pricing(self, meter):
        meter.record_transfer_in(billing.S3, GB)
        meter.record_transfer_out(billing.S3, GB)
        cost = billing.PriceBook().cost(meter.snapshot())
        assert cost.total == pytest.approx(0.27)

    def test_render_includes_total(self, meter):
        meter.record_request(billing.S3, "PUT", count=5000)
        text = billing.PriceBook().cost(meter.snapshot()).render()
        assert "TOTAL" in text
        assert "$" in text

    def test_ops_cheaper_than_storage_at_paper_scale(self):
        """§5: 'operations are much cheaper (in USD) than storage'.

        A3's one-time operation bill must be small next to what keeping
        the dataset (data + provenance) costs over a research-project
        retention horizon (a few months).
        """
        clock = SimClock()
        meter = billing.Meter(clock)
        # A3's ~231K operations, priced at their true service mix.
        meter.record_request(billing.S3, "PUT", count=62_000)
        meter.record_request(billing.SQS, "SendMessage", count=170_000)
        op_cost = billing.PriceBook().cost(meter.snapshot()).total
        # ...versus storing the 1.27 GB dataset + 421 MB of provenance.
        meter2 = billing.Meter(clock)
        meter2.adjust_stored(billing.S3, int(1.27 * GB))
        meter2.adjust_stored(billing.SDB, int(0.41 * GB))
        clock.advance(3 * SECONDS_PER_MONTH)
        storage_cost = billing.PriceBook().cost(meter2.snapshot()).total
        assert op_cost < storage_cost


class TestTransferOutIsBytesNotCharacters:
    """The read side bills UTF-8 bytes, like every write path: a
    non-ASCII object path must not be under-metered on the way out."""

    PATH = "données/résumé-日本.csv"
    ITEM = f"{PATH}_v0001"

    def _bytes_out(self, account, service, call):
        before = account.meter.snapshot()
        call()
        return (account.meter.snapshot() - before).transfer_out(service)

    def test_simpledb_query_and_select(self, strong_account):
        sdb = strong_account.simpledb
        sdb.create_domain("d")
        sdb.put_attributes("d", self.ITEM, [Attribute("type", "file")])
        name_bytes = len(self.ITEM.encode())
        assert name_bytes > len(self.ITEM)
        attr_bytes = len(b"type") + len(b"file")
        assert self._bytes_out(
            strong_account, billing.SDB, lambda: sdb.query("d", None)
        ) == name_bytes
        assert self._bytes_out(
            strong_account,
            billing.SDB,
            lambda: sdb.query_with_attributes("d", None),
        ) == name_bytes + attr_bytes

    def test_s3_list(self, strong_account):
        s3 = strong_account.s3
        s3.create_bucket("b")
        s3.put("b", self.PATH, BytesBlob(b"x"))
        assert self._bytes_out(
            strong_account, billing.S3, lambda: s3.list_keys("b")
        ) == len(self.PATH.encode())

    def test_cache_fill_and_hit(self):
        account = AWSAccount(
            seed=1, consistency=ConsistencyConfig.strong(), read_cache="on"
        )
        cache = account.read_cache
        attrs = {"nom": ("résumé",)}
        nbytes = len("nom".encode()) + len("résumé".encode())
        assert attrs_nbytes(attrs) == nbytes
        before = account.meter.snapshot()
        cache.put_item(self.ITEM, attrs, cache.fence())
        hit, _ = cache.get_item(self.ITEM)
        spent = account.meter.snapshot() - before
        assert hit
        assert spent.transfer_in(billing.ELASTICACHE) == nbytes
        assert spent.transfer_out(billing.ELASTICACHE) == nbytes
