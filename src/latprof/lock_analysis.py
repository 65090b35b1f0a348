"""Lock contention statistics and deadlock-risk detection.

Works on per-acquisition records (tid, lock, request/grant/release times)
coming from the simulator or from external tooling via the acquisitions
CSV.  The mutrace text format only carries aggregate rows, so the mutrace
parser yields MutexStats directly and never feeds this module.

The lock-order graph is a directed `graph_core.Graph` with one node per
lock and an edge A->B weighted by the number of times a thread was
granted B while still holding A; its elementary cycles, found by
`graph_core.detect_cycles`, are the classic deadlock-risk signal.
"Changed" is defined as the owner-change count: the number of grants
whose tid differs from the previous grant's tid on the same lock.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from .graph_core import Graph
from .parsers import MalformedRow, MutexStats
from .trace_model import NS_PER_MS, format_ns, parse_ns

ACQUISITIONS_HEADER = ["tid", "lock_id", "request_ts", "grant_ts", "release_ts"]


@dataclass(frozen=True)
class LockAcquisition:
    tid: int
    lock_id: int
    request_ts: int  # ns
    grant_ts: int  # ns
    release_ts: int  # ns

    def __post_init__(self) -> None:
        if not 0 <= self.request_ts <= self.grant_ts <= self.release_ts:
            if self.request_ts < 0:
                raise ValueError(
                    f"timestamp must be non-negative, got {self.request_ts}")
            raise ValueError("acquisition times must satisfy request <= grant <= release")


def contention_stats(acquisitions) -> list:
    """Per-lock MutexStats: grant counts, owner changes, and wait times.

    locked counts grants; contended counts grants that had to wait
    (grant_ts > request_ts); total/avg/max are of (grant - request) in
    milliseconds with avg = total / locked, all exact rationals (waits add
    up as integer nanoseconds, then convert once).
    """
    by_lock: dict[int, list] = {}
    # sorted() is stable: equal grant times keep input order
    for acq in sorted(acquisitions, key=lambda a: a.grant_ts):
        by_lock.setdefault(acq.lock_id, []).append(acq)

    stats = []
    for lock_id in sorted(by_lock):
        grants = by_lock[lock_id]
        locked = len(grants)
        waits_ns = [a.grant_ts - a.request_ts for a in grants]
        contended = sum(1 for w in waits_ns if w > 0)
        changed = sum(
            1 for prev, cur in zip(grants, grants[1:]) if prev.tid != cur.tid
        )
        total = Fraction(sum(waits_ns), NS_PER_MS)
        stats.append(
            MutexStats(
                mutex_id=lock_id,
                locked=locked,
                changed=changed,
                contended=contended,
                total_ms=total,
                avg_ms=total / locked if locked else Fraction(0),
                max_ms=Fraction(max(waits_ns), NS_PER_MS) if waits_ns else Fraction(0),
                flags="",
            )
        )
    return stats


def build_lock_order_graph(acquisitions) -> Graph:
    """Directed graph with an edge A->B, weighted by how many grants of B
    came to a thread still holding A.

    Within a thread, grants at equal timestamps keep their input order,
    so program order decides nesting when the stream came from
    instantaneous (uncontended) acquisitions.  A re-entrant grant (the
    lock already held) makes no self-edge.
    """
    graph = Graph(directed=True)
    by_tid: dict[int, list] = {}
    for acq in sorted(acquisitions, key=lambda a: a.grant_ts):
        graph.add_node(acq.lock_id)
        by_tid.setdefault(acq.tid, []).append(acq)

    counts: dict = {}  # (held, acquired) -> grants
    for tid in sorted(by_tid):
        held: list = []
        for acq in by_tid[tid]:
            held = [b for b in held if b.release_ts > acq.grant_ts]
            for b in held:
                if b.lock_id != acq.lock_id:
                    key = (b.lock_id, acq.lock_id)
                    counts[key] = counts.get(key, 0) + 1
            held.append(acq)
    for (held_id, acquired), count in counts.items():
        graph.add_edge(held_id, acquired, count)
    return graph


# ---------------------------------------------------------------------------
# acquisitions CSV interchange


def _numbered_rows(text: str):
    """(line the row starts on, row) for each non-blank CSV row."""
    reader = csv.reader(io.StringIO(text))
    lineno = 1
    try:
        for row in reader:
            if row:
                yield lineno, row
            lineno = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field past the csv module's size limit
        raise MalformedRow(lineno, "", str(exc)) from exc


def read_acquisitions_csv(text: str) -> list:
    """Parse ``tid,lock_id,request_ts,grant_ts,release_ts`` (seconds)."""
    rows = _numbered_rows(text)
    lineno, header = next(rows, (1, []))
    if header != ACQUISITIONS_HEADER:
        raise MalformedRow(lineno, ",".join(header),
                           f"expected header {','.join(ACQUISITIONS_HEADER)}")
    acquisitions = []
    for lineno, row in rows:
        if len(row) != 5:
            raise MalformedRow(lineno, ",".join(row), "expected 5 columns")
        try:
            acquisitions.append(
                LockAcquisition(
                    tid=int(row[0]),
                    lock_id=int(row[1]),
                    request_ts=parse_ns(row[2]),
                    grant_ts=parse_ns(row[3]),
                    release_ts=parse_ns(row[4]),
                )
            )
        except ValueError as exc:
            raise MalformedRow(lineno, ",".join(row), str(exc)) from exc
    return acquisitions


def write_acquisitions_csv(acquisitions) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ACQUISITIONS_HEADER)
    for acq in acquisitions:
        writer.writerow([
            acq.tid,
            acq.lock_id,
            format_ns(acq.request_ts),
            format_ns(acq.grant_ts),
            format_ns(acq.release_ts),
        ])
    return out.getvalue()
