"""Lock contention statistics and deadlock-risk detection.

Works on per-acquisition records (tid, lock, request/grant/release times)
coming from the simulator or from external tooling via the acquisitions
CSV.  The mutrace text format only carries aggregate rows, so the mutrace
parser yields MutexStats directly and never feeds this module.

The lock-order graph draws an edge A->B each time a thread is granted B
while still holding A; elementary cycles in that graph are the classic
deadlock-risk signal.  "Changed" is defined as the owner-change count:
the number of grants whose tid differs from the previous grant's tid on
the same lock.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction

from .graph_core import Graph, detect_cycles
from .parsers import MalformedRow, MutexStats
from .trace_model import format_ns, parse_ns

NS_PER_MS = 10**6

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
    for index, acq in enumerate(acquisitions):
        by_lock.setdefault(acq.lock_id, []).append((acq.grant_ts, index, acq))

    stats = []
    for lock_id in sorted(by_lock):
        grants = [acq for _, _, acq in sorted(by_lock[lock_id], key=lambda g: g[:2])]
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


@dataclass
class LockOrderGraph:
    """Directed held->acquired edges with occurrence counts.

    Re-entrant acquisitions (same lock already held) never create
    self-edges; they are tallied separately per lock.
    """

    edges: dict = field(default_factory=dict)  # (held, acquired) -> count
    nodes: set = field(default_factory=set)
    reentrant: dict = field(default_factory=dict)  # lock_id -> count


def build_lock_order_graph(acquisitions) -> LockOrderGraph:
    """Edge A->B for each grant of B by a thread still holding A.

    Within a thread, grants at equal timestamps keep their input order,
    so program order decides nesting when the stream came from
    instantaneous (uncontended) acquisitions.
    """
    graph = LockOrderGraph()
    by_tid: dict[int, list] = {}
    for index, acq in enumerate(acquisitions):
        graph.nodes.add(acq.lock_id)
        by_tid.setdefault(acq.tid, []).append((acq.grant_ts, index, acq))

    for tid in sorted(by_tid):
        held: list = []
        for grant_ns, _, acq in sorted(by_tid[tid], key=lambda g: g[:2]):
            held = [b for b in held if b.release_ts > grant_ns]
            for b in held:
                if b.lock_id == acq.lock_id:
                    graph.reentrant[acq.lock_id] = graph.reentrant.get(acq.lock_id, 0) + 1
                else:
                    key = (b.lock_id, acq.lock_id)
                    graph.edges[key] = graph.edges.get(key, 0) + 1
            held.append(acq)
    return graph


def detect_deadlock_risk(graph: LockOrderGraph, max_len: int = 8) -> list:
    """All elementary lock-order cycles up to max_len, canonical rotation.

    An empty list means no deadlock risk was detected.
    """
    g = Graph(directed=True)
    for node in graph.nodes:
        g.add_node(node)
    for (held, acquired), count in graph.edges.items():
        g.add_edge(held, acquired, count)
    return detect_cycles(g, max_len=max_len)


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
