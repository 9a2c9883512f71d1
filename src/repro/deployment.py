"""One deployment value: every setting of a provenance-aware cloud.

A cloud's settings — its shard layout, backend placement, DynamoDB
indexes, group-commit width, read cache, query planner, modeled wave
width and A3 commit threshold — are one frozen :class:`Deployment`,
documented here and nowhere else. Its constructor parses each field
with the parser that owns that grammar, so a malformed value fails
once, at construction, with a ``ValueError`` naming the field, on every
architecture. :class:`~repro.sim.Cloud` holds one as
``cloud.deployment`` and every consumer reads its setting off it.

No environment variable sets a field: a deployment is built from
constructor arguments (``Simulation(architecture, **fields)``,
``Cloud(..., deployment=)``) or from the ``repro demo`` flags.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.aws.backend import parse_index_specs
from repro.aws.elasticache import parse_read_cache, resolve_read_cache
from repro.sharding import parse_placement

#: The query planner's access-path modes.
PLANNER_MODES = ("off", "first-fit", "cost")


def positive_int(value, knob: str) -> int:
    """``value`` as an integer >= 1, or a ``ValueError`` naming ``knob``.

    Accepts an ``int`` or an integral ``float``; a ``bool``, a string or
    a fractional float is rejected rather than converted or truncated (a
    CLI flag converts its text first).
    """
    integral = (isinstance(value, int) and not isinstance(value, bool)) or (
        isinstance(value, float) and value.is_integer()
    )
    if not integral or value < 1:
        raise ValueError(f"{knob} must be an integer >= 1, got {value!r}")
    return int(value)


def resolve_planner(mode: str | None = None) -> str:
    """Normalise a planner mode (``None``, ``""`` and ``"none"`` are
    ``"off"``)."""
    mode = (mode or "off").lower()
    if mode == "none":
        mode = "off"
    if mode not in PLANNER_MODES:
        raise ValueError(
            f"unknown planner mode {mode!r} (expected one of {PLANNER_MODES})"
        )
    return mode


def _check(name: str, parse, *args):
    """Run a spec grammar's parser, naming the field on a parse error."""
    try:
        return parse(*args)
    except ValueError as error:
        raise ValueError(f"{name}: {error}") from None


@dataclass(frozen=True)
class Deployment:
    """The settings of one cloud. The defaults are the paper's
    deployment, byte-identical on the meter, and ``None`` for any field
    means its default.

    ``shards``/``placement`` pick the provenance layout: ``shards``
    stores (an integer >= 1) routed by consistent hash, each placed on
    the backend the placement spec names (``"sdb"``, ``"ddb"``,
    ``"mixed"``, ``"0:sdb,1:ddb"``, or a ``{index: kind}`` map —
    grammar: :func:`repro.sharding.parse_placement`). ``ddb_indexes``
    declares global secondary indexes on DynamoDB-placed shards
    (``"name,input"``, ``"auto"``, ``""`` for none — grammar:
    :func:`repro.aws.backend.parse_index_specs`), so Q2/Q3 phases on
    those shards are index Queries instead of Scans. ``concurrency`` is
    the wave width of the query engines handed out — how many of a
    scatter wave's per-shard request streams the *modeled* list
    schedule overlaps when it prices a query's ``latency``; execution is
    sequential in submission order at every width, so results, spend
    and the request sequence do not depend on it. ``write_batch`` is
    every client coalescer's and commit daemon's group-commit width: one
    write path at every width, and the width picks the request shape —
    1 is a batch of one sent as single-item requests, the paper's
    one-request-per-item protocol; above it the batch APIs (A1 has no
    provenance write path to batch). ``read_cache`` enables the
    account-wide ElastiCache-style read-cache tier fronting the
    provenance backends (``"on"``, ``"capacity=65536"``, ``""`` for off
    — grammar: :mod:`repro.aws.elasticache`) — one authority per cloud,
    so any client's write invalidates what another client cached.
    ``planner`` is the query engines' access-path planning mode
    (``"off"``/``"first-fit"``/``"cost"``). ``commit_threshold`` is how
    many WAL messages an A3 commit daemon waits for before a round.

    Integer fields hold ints, ``read_cache`` and ``planner`` their
    normalised text; ``placement`` and ``ddb_indexes`` keep the spec
    they were given, checked against its grammar (a placement is read
    against ``shards``, so it stays a spec), except that a placement map
    or sequence is kept as its spec string (``{1: "ddb"}`` at two shards
    is ``"0:sdb,1:ddb"``), so a run file can record it.
    """

    shards: int = 1
    placement: str = "sdb"
    ddb_indexes: str | tuple = ""
    concurrency: int = 1
    write_batch: int = 1
    read_cache: str = ""
    planner: str = "off"
    commit_threshold: int = 10

    def __post_init__(self):
        for spec in fields(self):
            if getattr(self, spec.name) is None:
                object.__setattr__(self, spec.name, spec.default)
        parsed = {
            "shards": positive_int(self.shards, "shards"),
            "concurrency": positive_int(self.concurrency, "concurrency"),
            "write_batch": positive_int(self.write_batch, "write batch"),
            "read_cache": resolve_read_cache(self.read_cache),
            "planner": resolve_planner(self.planner),
            "commit_threshold": positive_int(self.commit_threshold, "commit threshold"),
        }
        for name, value in parsed.items():
            object.__setattr__(self, name, value)
        kinds = _check("placement", parse_placement, self.placement, self.shards)
        if not isinstance(self.placement, str):
            spec = ",".join(f"{index}:{kind}" for index, kind in enumerate(kinds))
            object.__setattr__(self, "placement", spec)
        _check("ddb_indexes", parse_index_specs, self.ddb_indexes)
        _check("read_cache", parse_read_cache, self.read_cache)
