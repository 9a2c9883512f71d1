"""Simulated Amazon Web Services (January 2009 feature snapshot).

This subpackage stands in for the live AWS endpoints the paper measures
against (see DESIGN.md §2 for the substitution argument). It provides:

* :mod:`repro.aws.s3` — Simple Storage Service,
* :mod:`repro.aws.simpledb` — SimpleDB (with :mod:`repro.aws.sdb_query`
  implementing the 2009 bracket query language),
* :mod:`repro.aws.sqs` — Simple Queue Service,
* :mod:`repro.aws.consistency` — the shared eventual-consistency engine,
* :mod:`repro.aws.billing` — request/byte/byte-hour metering and the
  January-2009 price book,
* :mod:`repro.aws.faults` — crash-point and transient-failure injection,
* :mod:`repro.aws.elasticache` — the ElastiCache-style provenance
  read-cache tier and its cache authority,
* :mod:`repro.aws.account` — one object wiring all of the above together.
"""

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.billing import Meter, PriceBook, Usage
from repro.aws.elasticache import ReadCacheAuthority
from repro.aws.faults import FaultPlan, RequestFaults
from repro.aws.s3 import S3Service
from repro.aws.simpledb import SimpleDBService
from repro.aws.sqs import SQSService

__all__ = [
    "AWSAccount",
    "ConsistencyConfig",
    "Meter",
    "PriceBook",
    "Usage",
    "FaultPlan",
    "RequestFaults",
    "ReadCacheAuthority",
    "S3Service",
    "SimpleDBService",
    "SQSService",
]
