"""PL002 fixture: meter touched outside a service class and any scoped block."""


class FineService:
    def __init__(self, meter):
        self._meter = meter

    def fine_in_a_service_class(self, nbytes):
        self._meter.record_transfer_in("s3", nbytes)

    def _fine_private_helper(self):
        self._meter.record_request("s3", "GetObject")


class Borrower:
    """Got hold of a ``_meter`` without being a service (no __init__ wiring)."""

    def fine_scoped(self, account):
        with account.meter.scoped() as scope:
            self._meter.record_request("s3", "GetObject")
            return scope

    def leaky_public(self):
        return self._meter.record_request("s3", "GetObject")  # expect: PL002

    def _leaky_private(self):
        self._meter.record_request("s3", "GetObject")  # expect: PL002
