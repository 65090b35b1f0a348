"""Reference writers: the per-event CSV, bulk and `parse` NDJSON writers
that `latprof.export` replaced, kept frozen so tests can compare the
field-formatting writers against them byte for byte, and readers that
parse the CSV and bulk exports back.

They build an `EventRecord` per event, a dict per bulk
document and per `parse` event and frame, and call `json.dumps` per line.
Do not optimise them: their only job is to be obviously right.
"""

import csv
import io
import json
from dataclasses import dataclass

from latprof.export import CSV_HEADER
from latprof.trace_model import NS_PER_SEC


@dataclass(frozen=True)
class EventRecord:
    """Flattened event projection used by the CSV and bulk formats."""

    timestamp_rel: str  # ss.SSS, truncated
    comm: str
    pid: int
    tid: int
    cpu: int
    event: str
    dso: str
    symbol: str


def trace_origin(events):
    stamps = [ev.ts for ev in events]
    return min(stamps) if stamps else None


def _relative_ns(ev, origin):
    return ev.ts - origin


def _format_ms(ns):
    """ss.SSS, truncated: the old `Timestamp.format_ms` arithmetic."""
    whole, rem = divmod(ns, NS_PER_SEC)
    frac = f"{rem:09d}"[:3]
    return f"{whole}.{frac}"


def event_record(ev, origin):
    leaf = ev.leaf()
    return EventRecord(
        timestamp_rel=_format_ms(_relative_ns(ev, origin)),
        comm=ev.comm,
        pid=ev.pid,
        tid=ev.tid,
        cpu=ev.cpu,
        event=ev.event,
        dso=(leaf.dso or "") if leaf else "",
        symbol=(leaf.symbol or "") if leaf else "",
    )


def to_csv(events):
    origin = trace_origin(events)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(CSV_HEADER)
    for ev in events:
        r = event_record(ev, origin)
        writer.writerow([r.timestamp_rel, r.comm, r.pid, r.tid, r.cpu,
                         r.event, r.dso, r.symbol])
    return out.getvalue()


def to_bulk_ndjson(events, index_name="linuxperf"):
    origin = trace_origin(events)
    lines = []
    action = json.dumps({"index": {"_index": index_name}}, separators=(",", ":"))
    for ev in events:
        r = event_record(ev, origin)
        doc = {
            "timestamp_rel": r.timestamp_rel,
            "comm": r.comm,
            "pid": r.pid,
            "tid": r.tid,
            "cpu": r.cpu,
            "event": r.event,
            "dso": r.dso,
            "symbol": r.symbol,
            "ts_ns": _relative_ns(ev, origin),
        }
        lines.append(action)
        lines.append(json.dumps(doc, separators=(",", ":"), ensure_ascii=True))
    return "\n".join(lines) + "\n" if lines else ""


def parse_csv(text: str) -> list:
    """Parse our own CSV export back to records."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"expected CSV header {','.join(CSV_HEADER)}")
    return [
        EventRecord(timestamp_rel=r[0], comm=r[1], pid=int(r[2]), tid=int(r[3]),
                    cpu=int(r[4]), event=r[5], dso=r[6], symbol=r[7])
        for r in rows[1:]
    ]


def parse_bulk_ndjson(text: str) -> list:
    """Parse our own bulk output back into document dicts."""
    lines = text.splitlines()
    if len(lines) % 2 != 0:
        raise ValueError("bulk output must pair action and document lines")
    docs = []
    for i in range(0, len(lines), 2):
        action = json.loads(lines[i])
        if "index" not in action or "_index" not in action["index"]:
            raise ValueError(f"line {i + 1}: not a bulk action line")
        docs.append(json.loads(lines[i + 1]))
    return docs


def perf_ndjson(events):
    """`latprof parse` output for perf events."""
    lines = []
    for ev in events:
        lines.append(json.dumps({
            "comm": ev.comm, "pid": ev.pid, "tid": ev.tid, "cpu": ev.cpu,
            "ts_ns": ev.ts, "event": ev.event, "args": ev.args,
            "period": ev.period,
            "stack": [
                {"address": f.address, "symbol": f.symbol,
                 "offset": f.offset, "dso": f.dso}
                for f in ev.stack
            ],
        }, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)


def _fraction_float(value):
    return float(value) if value is not None else None


def record_ndjson(fmt, records):
    """`latprof parse` output for gprof, oprofile, mutrace and strace records."""
    lines = []
    for r in records:
        if fmt == "gprof":
            doc = {
                "percent_time": _fraction_float(r.percent_time),
                "cumulative_s": _fraction_float(r.cumulative_s),
                "self_s": _fraction_float(r.self_s),
                "calls": r.calls,
                "self_ms_per_call": _fraction_float(r.self_ms_per_call),
                "total_ms_per_call": _fraction_float(r.total_ms_per_call),
                "name": r.name,
            }
        elif fmt == "oprofile":
            doc = {
                "symbol": r.symbol, "percent": _fraction_float(r.percent),
                "image": r.image,
            }
        elif fmt == "mutrace":
            doc = {
                "mutex_id": r.mutex_id, "locked": r.locked,
                "changed": r.changed, "contended": r.contended,
                "total_ms": _fraction_float(r.total_ms),
                "avg_ms": _fraction_float(r.avg_ms),
                "max_ms": _fraction_float(r.max_ms), "flags": r.flags,
            }
        else:
            doc = {
                "rel_ts": _fraction_float(r.rel_ts), "name": r.name,
                "args": r.args, "retval": r.retval,
                "duration_s": _fraction_float(r.duration_s),
            }
        lines.append(json.dumps(doc, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)
