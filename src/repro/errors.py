"""Exception hierarchy for the provenance-aware cloud reproduction.

Every error raised by the simulated AWS services, the PASS capture layer,
and the provenance architectures derives from :class:`ReproError` so callers
can catch library errors without swallowing programming mistakes.

The AWS-side errors mirror the failure classes the paper's protocols must
tolerate: request rejections (limits exceeded, missing entities), transient
service failures (which clients retry), and injected client crashes (which
the write-ahead-log protocol of architecture A3 recovers from).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# AWS service-side errors
# ---------------------------------------------------------------------------

class AWSError(ReproError):
    """Base class for errors returned by a simulated AWS service."""

    #: Symbolic error code, mirroring AWS error-code strings.
    code = "InternalError"


class NoSuchBucket(AWSError):
    """An S3 request named a bucket that does not exist."""

    code = "NoSuchBucket"


class NoSuchKey(AWSError):
    """An S3 GET/HEAD/COPY/DELETE named an object that does not exist."""

    code = "NoSuchKey"


class BucketAlreadyExists(AWSError):
    """An S3 CreateBucket named a bucket that already exists."""

    code = "BucketAlreadyExists"


class EntityTooLarge(AWSError):
    """An S3 PUT exceeded the 5 GB object size limit."""

    code = "EntityTooLarge"


class EntityTooSmall(AWSError):
    """An S3 PUT supplied an empty object (the minimum is one byte)."""

    code = "EntityTooSmall"


class MetadataTooLarge(AWSError):
    """An S3 PUT supplied more than 2 KB of user metadata."""

    code = "MetadataTooLarge"


class InvalidRange(AWSError):
    """A ranged S3 GET requested bytes outside the object."""

    code = "InvalidRange"


class NoSuchDomain(AWSError):
    """A SimpleDB request named a domain that does not exist."""

    code = "NoSuchDomain"


class NumberItemAttributesExceeded(AWSError):
    """A SimpleDB item would exceed 256 attribute-value pairs."""

    code = "NumberItemAttributesExceeded"


class NumberSubmittedAttributesExceeded(AWSError):
    """A single PutAttributes call supplied more than 100 attributes."""

    code = "NumberSubmittedAttributesExceeded"


class NumberSubmittedItemsExceeded(AWSError):
    """A BatchPutAttributes call supplied more than 25 items."""

    code = "NumberSubmittedItemsExceeded"


class AttributeValueTooLong(AWSError):
    """A SimpleDB attribute name or value exceeded 1 KB."""

    code = "InvalidParameterValue"


class InvalidQueryExpression(AWSError):
    """A SimpleDB query expression failed to parse."""

    code = "InvalidQueryExpression"


class InvalidNextToken(AWSError):
    """A SimpleDB pagination token was stale or malformed."""

    code = "InvalidNextToken"


class NoSuchTable(AWSError):
    """A DynamoDB-style request named a table that does not exist."""

    code = "ResourceNotFoundException"


class ItemSizeLimitExceeded(AWSError):
    """A DynamoDB-style item would exceed the 400 KB item size limit."""

    code = "ValidationException"


class NoSuchIndex(AWSError):
    """A DynamoDB-style Query named a secondary index the table lacks."""

    code = "ResourceNotFoundException"


class ProvisionedThroughputExceeded(AWSError):
    """A DynamoDB-style request was throttled: the table's provisioned
    read or write capacity is exhausted for the current second. Clients
    back off (advancing the simulated clock) and retry."""

    code = "ProvisionedThroughputExceededException"


class NoSuchQueue(AWSError):
    """An SQS request named a queue that does not exist."""

    code = "AWS.SimpleQueueService.NonExistentQueue"


class QueueNameExists(AWSError):
    """An SQS CreateQueue reused a name with different attributes."""

    code = "QueueAlreadyExists"


class MessageTooLong(AWSError):
    """An SQS SendMessage exceeded the 8 KB message size limit."""

    code = "MessageTooLong"


class InvalidMessageContents(AWSError):
    """An SQS message contained characters outside the allowed set."""

    code = "InvalidMessageContents"


class ReceiptHandleInvalid(AWSError):
    """An SQS DeleteMessage used an expired or unknown receipt handle."""

    code = "ReceiptHandleIsInvalid"


class TooManyEntriesInBatchRequest(AWSError):
    """A batch request exceeded the service's per-call entry cap (10 for
    SQS Send/DeleteMessageBatch, 25 for DynamoDB-style BatchWriteItem)."""

    code = "AWS.SimpleQueueService.TooManyEntriesInBatchRequest"


class EmptyBatchRequest(AWSError):
    """A batch request carried no entries."""

    code = "AWS.SimpleQueueService.EmptyBatchRequest"


class ServiceUnavailable(AWSError):
    """Transient failure injected by the fault plan; callers may retry."""

    code = "ServiceUnavailable"


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

class ClientCrash(ReproError):
    """Raised by a fault plan to simulate the client process dying.

    The exception deliberately does *not* derive from :class:`AWSError`:
    service state mutated before the crash point remains mutated, exactly
    as if a real client host had lost power mid-protocol.
    """

    def __init__(self, point: str):
        super().__init__(f"client crashed at fault point {point!r}")
        self.point = point


# ---------------------------------------------------------------------------
# PASS capture layer
# ---------------------------------------------------------------------------

class PassError(ReproError):
    """Base class for PASS capture-layer errors."""


class UnknownObject(PassError):
    """An operation referenced a pnode that was never allocated."""


class ObjectClosed(PassError):
    """A syscall was issued against a closed file handle or exited process."""


class CacheMiss(PassError):
    """The local cache directory has no entry for the requested file."""


# ---------------------------------------------------------------------------
# Workload trace files
# ---------------------------------------------------------------------------

class TraceFormatError(ReproError):
    """A provenance trace file failed validation and was rejected whole.

    Raised by the JSONL trace codec for malformed lines, unsupported
    format versions, and truncated files. Loading is all-or-nothing: a
    trace that raises this error yields no events, so a replay can never
    apply a prefix of a corrupt capture.
    """

    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


# ---------------------------------------------------------------------------
# Provenance architectures
# ---------------------------------------------------------------------------

class ArchitectureError(ReproError):
    """Base class for provenance-architecture protocol errors."""


class ReadCorrectnessViolation(ArchitectureError):
    """A read observed data without matching provenance (or vice versa).

    Architecture A2 raises this only when its bounded consistency-retry
    loop is exhausted; the property checkers catch it to fill Table 1.
    """


class OrphanProvenance(ArchitectureError):
    """Provenance exists for an object whose data was never stored."""


class TransactionAborted(ArchitectureError):
    """A WAL transaction was found incomplete and will never commit."""
