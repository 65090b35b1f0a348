"""Render analysis results to dashboard-ingestion formats.

Exported timestamps are relative to the trace origin (the first event's
timestamp).  The CSV carries the ss.SSS display form, which
truncates below a millisecond; the bulk NDJSON documents additionally
carry `ts_ns`, the full-precision relative nanoseconds, so the lossless
path survives the dashboard pipeline.  CSV column order and JSON key
order are pinned conventions (documented in the README), emitted
byte-stably: LF line endings, ASCII-escaped JSON, insertion-ordered keys.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .trace_model import NS_PER_SEC, format_ns

NS_PER_MS = 10**6

CSV_HEADER = ["timestamp", "comm", "pid", "tid", "cpu", "event", "dso", "symbol"]

_INDEX_NAME_RE = re.compile(r"^[a-z0-9_-]+$")
DEFAULT_INDEX = "linuxperf"


class BadIndexName(Exception):
    pass


class EmptyInput(Exception):
    pass


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


class _JsonText(dict):
    """Per-call cache: each distinct string (or None) -> its JSON text."""

    def __missing__(self, key):
        text = self[key] = json.dumps(key)
        return text


def _origin_ns(events) -> int | None:
    """The trace origin: the earliest event timestamp, in ns."""
    return min((ev.ts for ev in events), default=None)


def _rows(events):
    """Per event: the event, its ns since the trace origin, that offset as
    ss.SSS text (truncated below a millisecond, never rounded) and its leaf
    frame's dso and symbol ("" when absent)."""
    origin = _origin_ns(events)
    for ev in events:
        rel = ev.ts - origin
        if ev.stack:
            leaf = ev.stack[0]
            dso, symbol = leaf.dso or "", leaf.symbol or ""
        else:
            dso = symbol = ""
        text = f"{rel // NS_PER_SEC}.{rel % NS_PER_SEC // NS_PER_MS:03d}"
        yield ev, rel, text, dso, symbol


def to_csv(events) -> str:
    """RFC-4180 CSV, LF line endings, header + one row per event."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(CSV_HEADER)
    writer.writerows([text, ev.comm, ev.pid, ev.tid, ev.cpu, ev.event, dso, symbol]
                     for ev, _, text, dso, symbol in _rows(events))
    return out.getvalue()


def parse_csv(text: str) -> list:
    """Repo-internal CSV reader: parse our own export back to records."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"expected CSV header {','.join(CSV_HEADER)}")
    return [
        EventRecord(timestamp_rel=r[0], comm=r[1], pid=int(r[2]), tid=int(r[3]),
                    cpu=int(r[4]), event=r[5], dso=r[6], symbol=r[7])
        for r in rows[1:]
    ]


def to_bulk_ndjson(events, index_name: str = DEFAULT_INDEX) -> str:
    """Bulk-indexing NDJSON: an action line then a document line per event.

    Documents carry the EventRecord fields plus full-precision `ts_ns`;
    output ends with a newline as the bulk API requires (empty input
    produces empty output).
    """
    if not _INDEX_NAME_RE.match(index_name):
        raise BadIndexName(f"index name must match [a-z0-9_-]+, got {index_name!r}")
    action = json.dumps({"index": {"_index": index_name}}, separators=(",", ":"))
    q = _JsonText()
    return "".join(
        f'{action}\n{{"timestamp_rel":"{text}","comm":{q[ev.comm]},"pid":{ev.pid},'
        f'"tid":{ev.tid},"cpu":{ev.cpu},"event":{q[ev.event]},"dso":{q[dso]},'
        f'"symbol":{q[symbol]},"ts_ns":{rel}}}\n'
        for ev, rel, text, dso, symbol in _rows(events))


def to_perf_ndjson(events) -> str:
    """`latprof parse` NDJSON of perf events: one object per event with every
    field, ns timestamps and the stack as a list of frame objects."""
    q = _JsonText()
    encode = json.JSONEncoder(separators=(",", ":")).encode
    lines = []
    for ev in events:
        stack = ",".join(
            f'{{"address":{"null" if f.address is None else f.address},'
            f'"symbol":{q[f.symbol]},'
            f'"offset":{"null" if f.offset is None else f.offset},"dso":{q[f.dso]}}}'
            for f in ev.stack)
        lines.append(
            f'{{"comm":{q[ev.comm]},"pid":{ev.pid},"tid":{ev.tid},"cpu":{ev.cpu},'
            f'"ts_ns":{ev.ts},"event":{q[ev.event]},"args":{encode(ev.args)},'
            f'"period":{ev.period},"stack":[{stack}]}}\n')
    return "".join(lines)


def to_records_ndjson(records, renames=None) -> str:
    """`latprof parse` NDJSON of flat records (gprof, oprofile, mutrace and
    strace rows): one object per record with its fields in declaration
    order, keyed by field name or by its entry in `renames`; exact
    fractions are written as floats."""
    renames = renames or {}
    encode = json.JSONEncoder(separators=(",", ":")).encode
    lines = []
    for r in records:
        doc = {}
        for f in fields(r):
            value = getattr(r, f.name)
            doc[renames.get(f.name, f.name)] = \
                float(value) if isinstance(value, Fraction) else value
        lines.append(encode(doc) + "\n")
    return "".join(lines)


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


@dataclass
class HistogramView:
    """Events-per-bin counts split by command name."""

    bin_width: Fraction  # seconds
    bins: list = field(default_factory=list)  # (bin_start_seconds, {comm: count})

    def total(self) -> int:
        return sum(sum(counts.values()) for _, counts in self.bins)


def events_per_second(events, bin_width=1) -> HistogramView:
    """Histogram of event counts per time bin, keyed by comm."""
    width = Fraction(bin_width)
    if width <= 0:
        raise ValueError("bin width must be positive")
    width_ns = width * NS_PER_SEC
    if width_ns.denominator != 1:
        raise ValueError(f"bin width {bin_width!r} not representable in ns")
    width_ns = int(width_ns)
    origin = _origin_ns(events)
    by_bin: dict = {}
    for ev in events:
        index = (ev.ts - origin) // width_ns
        counts = by_bin.setdefault(index, {})
        counts[ev.comm] = counts.get(ev.comm, 0) + 1
    return HistogramView(
        bin_width=width,
        bins=[(index * width, by_bin[index]) for index in sorted(by_bin)],
    )


@dataclass
class PieView:
    """Utilization fractions per comm (or per comm+dso); fractions sum to 1."""

    slices: dict = field(default_factory=dict)


def utilization_pie(events, key_mode: str = "comm") -> PieView:
    """Fractions of event count (period weight for samples) per key."""
    if key_mode not in ("comm", "comm_dso"):
        raise ValueError(f"unknown key mode {key_mode!r}")
    weights: dict = {}
    for ev in events:
        if key_mode == "comm":
            key = ev.comm
        else:
            leaf = ev.leaf()
            key = (ev.comm, (leaf.dso or "") if leaf else "")
        weight = ev.period if ev.event_class == "cpu-clock" else 1
        weights[key] = weights.get(key, 0) + weight
    if not weights:
        raise EmptyInput("no events to summarize")
    total = sum(weights.values())
    return PieView(slices={k: Fraction(w, total) for k, w in sorted(weights.items())})


# ---------------------------------------------------------------------------
# text report


def _section(title: str) -> str:
    return f"=== {title} ==="


def _head(rows: list, top_n: int) -> list:
    """The first `top_n` rows; a negative `top_n` keeps every row."""
    return rows[: top_n if top_n >= 0 else None]


def render_lock_table(mutex_stats) -> list:
    """The mutrace-style contention table as report lines."""
    lines = [_section("Lock contention")]
    if mutex_stats:
        lines.append("Mutex #   Locked  Changed    Cont. tot.Time[ms] avg.Time[ms]"
                      " max.Time[ms]  Flags")
        for m in mutex_stats:
            lines.append(
                f"{m.mutex_id:>7} {m.locked:>8} {m.changed:>8} {m.contended:>8} "
                f"{float(m.total_ms):>12.3f} {float(m.avg_ms):>12.3f} "
                f"{float(m.max_ms):>12.3f} {m.flags or '-':>6}"
            )
    else:
        lines.append("(no data)")
    return lines


def render_text_report(profile, wait_summary, top_n: int = 20) -> str:
    """Fixed-width report: flat profile, wait totals and an empty
    mutrace-style lock section (perf-script text carries no lock data)."""
    lines = []

    lines.append(_section("Flat profile"))
    rows = _head(list(profile or []), top_n)
    if rows:
        lines.append(f"{'%':>8}  {'samples':>8}  {'weight':>10}  key")
        for r in rows:
            key = "/".join(part for part in (r.comm, r.dso, r.symbol)
                           if part is not None)
            lines.append(f"{float(r.percent):8.2f}  {r.samples:8d}  {r.weight:10d}  {key}")
    else:
        lines.append("(no data)")

    lines.append("")
    lines.append(_section("Off-CPU wait time by reason"))
    if wait_summary is not None and wait_summary.by_tid_reason:
        lines.append(f"{'tid':>8}  {'reason':<14}  {'seconds':>14}")
        for tid, reason, ns in wait_summary.tid_reason_rows():
            lines.append(f"{tid:>8}  {reason.value:<14}  {ns / NS_PER_SEC:14.6f}")
    else:
        lines.append("(no data)")

    lines.append("")
    lines.extend(render_lock_table(None))
    lines.append("")
    return "\n".join(lines)


def render_offcpu_report(wait_summary, comms, top_n: int = 20) -> str:
    """Fixed-width off-CPU report: totals per (tid, reason) with each tid's
    comm, the `top_n` heaviest non-empty wait stacks, and the log2
    duration histogram."""
    lines = [_section("Off-CPU wait time by (tid, reason)")]
    if wait_summary.by_tid_reason:
        lines.append(f"{'tid':>8}  {'reason':<14}  {'seconds':>14}  comm")
        for tid, reason, ns in wait_summary.tid_reason_rows():
            lines.append(f"{tid:>8}  {reason.value:<14}  {ns / NS_PER_SEC:14.6f}  "
                         f"{comms.get(tid, '')}")
    else:
        lines.append("(no data)")

    lines.append("")
    lines.append(_section("Top wait stacks"))
    ranked = sorted(wait_summary.by_stack.items(), key=lambda kv: (-kv[1][0], kv[0]))
    shown = _head([(sig, ns, count) for sig, (ns, count) in ranked if sig], top_n)
    if shown:
        for sig, ns, count in shown:
            lines.append(f"{ns / NS_PER_SEC:14.6f}s  {count:6d}x  {sig}")
    else:
        lines.append("(no data)")

    lines.append("")
    lines.append(_section("Wait duration histogram (log2 buckets, us)"))
    if wait_summary.histogram:
        for bucket, count in sorted(wait_summary.histogram.items()):
            lo, hi = 2.0 ** bucket, 2.0 ** (bucket + 1)
            lines.append(f"[{lo:>12.3f}, {hi:>12.3f})  {count}")
    else:
        lines.append("(no data)")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# combined JSON report document


def to_report_json(profile=None, wait_summary=None,
                   histogram: HistogramView = None, pie: PieView = None) -> str:
    """One JSON document bundling every dashboard view."""
    doc: dict = {}
    if profile is not None:
        doc["profile"] = [
            {"comm": r.comm, "dso": r.dso, "symbol": r.symbol,
             "samples": r.samples, "weight": r.weight,
             "percent": round(float(r.percent), 4)}
            for r in profile
        ]
    if wait_summary is not None:
        doc["wait_totals"] = [
            {"tid": tid, "reason": reason.value, "blocked_ns": ns}
            for tid, reason, ns in wait_summary.tid_reason_rows()
        ]
        doc["wait_stacks"] = [
            {"stack": sig, "blocked_ns": ns, "count": count}
            for sig, (ns, count) in sorted(wait_summary.by_stack.items())
        ]
        doc["wait_histogram_log2_us"] = {
            str(k): v for k, v in sorted(wait_summary.histogram.items())
        }
    if histogram is not None:
        doc["events_per_bin"] = {
            "bin_width_s": float(histogram.bin_width),
            "bins": [
                {"start_s": float(start), "counts": dict(sorted(counts.items()))}
                for start, counts in histogram.bins
            ],
        }
    if pie is not None:
        doc["utilization"] = [
            {"key": key if isinstance(key, str) else "/".join(key),
             "fraction": float(fraction)}
            for key, fraction in pie.slices.items()
        ]
    return json.dumps(doc, indent=2, sort_keys=False, ensure_ascii=True) + "\n"


# ---------------------------------------------------------------------------
# perf-script text renderer (the inverse of parsers.parse_perf_script)


def _frame_line(frame) -> str:
    symbol = frame.symbol if frame.symbol else "[unknown]"
    offset = f"+0x{frame.offset:x}" if frame.offset is not None else ""
    dso = frame.dso if frame.dso else "[unknown]"
    return f"\n\t{frame.address or 0:x} {symbol}{offset} ({dso})"


def render_perf_script(events) -> str:
    """Write events in the perf-script text grammar the parsers accept.

    Timestamps render with nine fractional digits so the parse/render
    round trip is exact at nanosecond resolution.  Frames without an
    address render address 0.
    """
    blocks = []
    stack_text = {}  # stack -> its frame lines, formatted once per call
    for ev in events:
        if "raw" in ev.args and len(ev.args) == 1:
            payload = ev.args["raw"]
        else:
            payload = " ".join(f"{k}={v}" for k, v in ev.args.items())
        period = f"{ev.period} " if ev.period != 1 else ""
        header = (f"{ev.comm} {ev.pid}/{ev.tid} [{ev.cpu:03d}] "
                  f"{format_ns(ev.ts)}: {period}{ev.event}: {payload}".rstrip())
        frames = stack_text.get(ev.stack)
        if frames is None:
            frames = stack_text[ev.stack] = "".join(
                _frame_line(frame) for frame in ev.stack)
        blocks.append(header + frames)
    return "\n\n".join(blocks) + "\n" if blocks else ""
