"""Table 2: storage cost comparison (paper §5).

The paper extrapolates, from the combined PASS trace, the provenance
bytes and operation counts each architecture adds over a provenance-free
"Raw" baseline. This module implements the §5 formulas over
:class:`~repro.workloads.base.TraceStats`:

* **Raw** — the data PUTs alone: ``raw_bytes`` and one operation per
  object;
* **S3 (A1)** — provenance rides existing PUTs for free; the only extra
  operations are the PUTs for records >1 KB
  (``ops = N_provrecs>1KB``);
* **S3+SimpleDB (A2)** — ``ops = N_SimpleDBitems + N_provrecs>1KB``
  (the paper assumes one PutAttributes per item; we also report the
  exact call count after 100-attribute batching);
* **S3+SimpleDB+SQS (A3)** — storage ``2·S_SQS + S_SimpleDB`` (each
  provenance byte is written to and read from the queue once) and
  ``ops = 2·(N_S3objects + N_WALmessages) + N_SimpleDBitems +
  N_provrecs>1KB`` (temp PUT + COPY per object; send + receive per WAL
  message).

Known paper inconsistencies handled here: the
printed Table 2 cell for A2 (167.8 MB) conflicts with the §5 prose
(177.9 MB), and the printed A3 operation count (231,287) is not exactly
reproduced by the paper's own formula; we implement the formulas and
compare shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import TextTable
from repro.units import GB, MB, fmt_bytes, fmt_count, fmt_factor, fmt_ratio
from repro.workloads.base import TraceStats

#: The paper's Table 2, for side-by-side comparison.
PAPER_TABLE2 = {
    "raw": {"data_bytes": int(1.27 * GB), "ops": 31_180},
    "s3": {"prov_bytes": int(121.8 * MB), "overhead": "9.3%", "ops": 24_952},
    "s3+simpledb": {
        "prov_bytes": int(167.8 * MB),  # table cell; §5 prose says 177.9 MB
        "prov_bytes_prose": int(177.9 * MB),
        "overhead": "13.6%",
        "ops": 168_514,
    },
    "s3+simpledb+sqs": {
        "prov_bytes": int(421.4 * MB),
        "overhead": "32.2%",
        "ops": 231_287,
    },
}


@dataclass(frozen=True)
class StorageCostRow:
    """One Table 2 column: an architecture's storage bill."""

    architecture: str
    prov_bytes: int
    ops: int
    raw_bytes: int
    raw_ops: int

    @property
    def overhead(self) -> str:
        return fmt_ratio(self.prov_bytes, self.raw_bytes)

    @property
    def ops_factor(self) -> str:
        return fmt_factor(self.ops, self.raw_ops)


def storage_table(stats: TraceStats) -> dict[str, StorageCostRow]:
    """Apply the §5 formulas to a trace's statistics."""
    raw = StorageCostRow(
        architecture="raw",
        prov_bytes=stats.raw_bytes,
        ops=stats.n_objects,
        raw_bytes=stats.raw_bytes,
        raw_ops=stats.n_objects,
    )
    s3 = StorageCostRow(
        architecture="s3",
        prov_bytes=stats.s3_prov_bytes,
        ops=stats.n_records_gt_1kb,
        raw_bytes=stats.raw_bytes,
        raw_ops=stats.n_objects,
    )
    s3_sdb = StorageCostRow(
        architecture="s3+simpledb",
        prov_bytes=stats.sdb_prov_bytes,
        ops=stats.n_sdb_items + stats.n_records_gt_1kb,
        raw_bytes=stats.raw_bytes,
        raw_ops=stats.n_objects,
    )
    s3_sdb_sqs = StorageCostRow(
        architecture="s3+simpledb+sqs",
        prov_bytes=2 * stats.wal_prov_bytes + stats.sdb_prov_bytes,
        ops=(
            2 * (stats.n_objects + stats.n_wal_messages)
            + stats.n_sdb_items
            + stats.n_records_gt_1kb
        ),
        raw_bytes=stats.raw_bytes,
        raw_ops=stats.n_objects,
    )
    return {
        row.architecture: row for row in (raw, s3, s3_sdb, s3_sdb_sqs)
    }


def paper_formula_a3_ops(stats: TraceStats) -> int:
    """A3 operations by the paper's own §5 formula.

    ``2·[N_S3objects + provsize/8KB] + N_SimpleDBitems + N_provrecs>1KB``
    — which counts only the 8 KB provenance chunks on the queue. The
    *protocol* of §4.3 additionally sends a begin record, a data pointer
    record, and a commit record per transaction (and receives each of
    them once), which the formula omits; ``storage_table`` reports the
    protocol-true count, this function the paper's.
    ``benchmarks/bench_table2_storage.py`` prints the two side by side
    with the paper's printed 231,287.
    """
    chunk_ops = -(-stats.s3_prov_bytes // (8 * 1024))  # ceil division
    return (
        2 * (stats.n_objects + chunk_ops)
        + stats.n_sdb_items
        + stats.n_records_gt_1kb
    )


def render_table2(stats: TraceStats, include_paper: bool = True) -> str:
    """The Table 2 reproduction, optionally with the paper's numbers."""
    rows = storage_table(stats)
    table = TextTable(
        ["architecture", "prov space", "overhead", "ops", "ops factor"],
        title="Table 2: storage cost comparison",
    )
    order = ("raw", "s3", "s3+simpledb", "s3+simpledb+sqs")
    for name in order:
        row = rows[name]
        space = fmt_bytes(row.prov_bytes)
        if name == "raw":
            table.add_row("raw (data)", space, "-", fmt_count(row.ops), "1x")
        else:
            table.add_row(
                name, space, row.overhead, fmt_count(row.ops), row.ops_factor
            )
    rendered = table.render()
    rendered += (
        f"\n(A3 ops by the paper's formula, which omits the per-transaction "
        f"begin/data/commit records: {fmt_count(paper_formula_a3_ops(stats))})"
    )
    if include_paper:
        paper = TextTable(
            ["architecture", "prov space", "overhead", "ops"],
            title="paper's Table 2 (for comparison)",
        )
        paper.add_row("raw (data)", "1.27GB", "-", "31,180")
        paper.add_row("s3", "121.8MB", "9.3%", "24,952 (0.8x)")
        paper.add_row("s3+simpledb", "167.8MB*", "13.6%", "168,514 (5.4x)")
        paper.add_row("s3+simpledb+sqs", "421.4MB", "32.2%", "231,287 (7.41x)")
        rendered += (
            "\n\n" + paper.render()
            + "\n* the paper's prose says 177.9MB for this cell"
        )
    return rendered


def shape_check(stats: TraceStats) -> list[str]:
    """Verify the qualitative claims of Table 2 hold for our trace.

    Returns a list of violated claims (empty = the shape reproduces):

    1. storage ordering: S3 < S3+SimpleDB < S3+SimpleDB+SQS;
    2. operation ordering: S3 < Raw < S3+SimpleDB < S3+SimpleDB+SQS;
    3. the full-properties architecture costs a *reasonable* space
       overhead (tens of percent, not multiples) over raw data;
    4. A1 needs fewer extra ops than raw PUTs (its factor < 1).
    """
    rows = storage_table(stats)
    problems = []
    if not (
        rows["s3"].prov_bytes
        < rows["s3+simpledb"].prov_bytes
        < rows["s3+simpledb+sqs"].prov_bytes
    ):
        problems.append("storage ordering s3 < s3+sdb < s3+sdb+sqs violated")
    if not (
        rows["s3"].ops
        < rows["raw"].ops
        < rows["s3+simpledb"].ops
        < rows["s3+simpledb+sqs"].ops
    ):
        problems.append("ops ordering s3 < raw < s3+sdb < s3+sdb+sqs violated")
    full = rows["s3+simpledb+sqs"]
    if not (0.05 < full.prov_bytes / full.raw_bytes < 1.0):
        problems.append(
            "full-architecture space overhead outside the reasonable band"
        )
    if rows["s3"].ops >= rows["raw"].ops:
        problems.append("A1 extra ops should be below raw ops (paper: 0.8x)")
    return problems
