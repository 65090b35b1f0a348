"""Render analysis results to dashboard-ingestion formats.

Events are rendered by folds, each given every event in canonical order
by `add`: the writers (`CsvWriter`, `BulkWriter`, `PerfNdjsonWriter`,
`PerfScriptWriter`) pass their text on to a `write` callable, and
`EventCounts` tallies the histogram and pie.  The report renderers take
what the folds have built.

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
import json
import re
from dataclasses import dataclass, field, fields
from fractions import Fraction
from types import SimpleNamespace

from .trace_model import NS_PER_MS, NS_PER_SEC, STACK_LEAF, STACK_NONE, format_ns

CSV_HEADER = ["timestamp", "comm", "pid", "tid", "cpu", "event", "dso", "symbol"]

_INDEX_NAME_RE = re.compile(r"^[a-z0-9_-]+$")
DEFAULT_INDEX = "linuxperf"


class BadIndexName(Exception):
    pass


class _JsonText(dict):
    """Per-writer cache: each distinct string (or None) -> its JSON text."""

    def __missing__(self, key):
        text = self[key] = json.dumps(key)
        return text


# rows a writer formats before it passes them on as one block of text
_BLOCK_ROWS = 256


class _RowWriter:
    """A fold that formats each event it is given as a row of text and
    passes the rows on to `write(text)` in blocks: `add` each event, then
    `flush()` once at the end.  The rows of a run depend only on its
    events, not on how they are split into blocks."""

    def __init__(self, write):
        self._write = write
        self._rows = []

    def flush(self) -> None:
        """Pass on the rows not yet written."""
        if self._rows:
            self._write("".join(self._rows))
            self._rows.clear()


class _RelativeRowWriter(_RowWriter):
    """A row writer whose rows give each event's time since the trace
    origin: the first event added, which is the earliest when events come
    in canonical order."""

    def __init__(self, write):
        super().__init__(write)
        self._origin = None

    @staticmethod
    def stack_depth(event_class, event_name) -> int:
        """What `add` reads of an event's stack: the leaf, of every event."""
        return STACK_LEAF

    def _fields(self, ev) -> tuple:
        """The event's ns since the origin, that offset as ss.SSS text
        (truncated below a millisecond, never rounded) and its leaf frame's
        dso and symbol ("" when absent)."""
        if self._origin is None:
            self._origin = ev.ts
        rel = ev.ts - self._origin
        if ev.stack:
            leaf = ev.stack[0]
            dso, symbol = leaf.dso or "", leaf.symbol or ""
        else:
            dso = symbol = ""
        text = f"{rel // NS_PER_SEC}.{rel % NS_PER_SEC // NS_PER_MS:03d}"
        return rel, text, dso, symbol


class CsvWriter(_RelativeRowWriter):
    """RFC-4180 CSV, LF line endings: the header, then one row per event
    added."""

    def __init__(self, write):
        super().__init__(write)
        # csv.writer writes each row as one string, appended to the rows
        self._writerow = csv.writer(SimpleNamespace(write=self._rows.append),
                                    lineterminator="\n",
                                    quoting=csv.QUOTE_MINIMAL).writerow
        self._writerow(CSV_HEADER)

    def add(self, ev) -> None:
        _, text, dso, symbol = self._fields(ev)
        self._writerow([text, ev.comm, ev.pid, ev.tid, ev.cpu, ev.event, dso, symbol])
        if len(self._rows) >= _BLOCK_ROWS:
            self.flush()


def check_index_name(index_name: str) -> None:
    """Raise BadIndexName unless `index_name` is a valid bulk index name."""
    if not _INDEX_NAME_RE.match(index_name):
        raise BadIndexName(f"index name must match [a-z0-9_-]+, got {index_name!r}")


class BulkWriter(_RelativeRowWriter):
    """Bulk-indexing NDJSON: an action line then a document line per event
    added, each line ended by a newline as the bulk API requires.

    Documents carry the CSV columns, the timestamp as `timestamp_rel`,
    plus full-precision `ts_ns`.
    A bad index name is a BadIndexName here.
    """

    def __init__(self, write, index_name: str = DEFAULT_INDEX):
        check_index_name(index_name)
        super().__init__(write)
        self._action = json.dumps({"index": {"_index": index_name}},
                                  separators=(",", ":"))
        self._q = _JsonText()

    def add(self, ev) -> None:
        rel, text, dso, symbol = self._fields(ev)
        q = self._q
        self._rows.append(
            f'{self._action}\n{{"timestamp_rel":"{text}","comm":{q[ev.comm]},'
            f'"pid":{ev.pid},"tid":{ev.tid},"cpu":{ev.cpu},"event":{q[ev.event]},'
            f'"dso":{q[dso]},"symbol":{q[symbol]},"ts_ns":{rel}}}\n')
        if len(self._rows) >= _BLOCK_ROWS:
            self.flush()


class PerfNdjsonWriter(_RowWriter):
    """`latprof parse` NDJSON of perf events: one object per event added,
    with every field, ns timestamps and the stack as a list of frame
    objects."""

    def __init__(self, write):
        super().__init__(write)
        self._q = _JsonText()
        self._encode = json.JSONEncoder(separators=(",", ":")).encode

    def add(self, ev) -> None:
        q = self._q
        stack = ",".join(
            f'{{"address":{"null" if f.address is None else f.address},'
            f'"symbol":{q[f.symbol]},'
            f'"offset":{"null" if f.offset is None else f.offset},"dso":{q[f.dso]}}}'
            for f in ev.stack)
        self._rows.append(
            f'{{"comm":{q[ev.comm]},"pid":{ev.pid},"tid":{ev.tid},"cpu":{ev.cpu},'
            f'"ts_ns":{ev.ts},"event":{q[ev.event]},"args":{self._encode(ev.args)},'
            f'"period":{ev.period},"stack":[{stack}]}}\n')
        if len(self._rows) >= _BLOCK_ROWS:
            self.flush()


def to_records_ndjson(records) -> str:
    """`latprof parse` NDJSON of flat records (gprof, oprofile, mutrace and
    strace rows): one object per record with its fields in declaration
    order, keyed by field name; exact fractions are written as floats."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    lines = []
    for r in records:
        doc = {}
        for f in fields(r):
            value = getattr(r, f.name)
            doc[f.name] = float(value) if isinstance(value, Fraction) else value
        lines.append(encode(doc) + "\n")
    return "".join(lines)


@dataclass
class HistogramView:
    """Events-per-bin counts split by command name."""

    bin_width: Fraction  # seconds
    bins: list = field(default_factory=list)  # (bin_start_seconds, {comm: count})

    def total(self) -> int:
        return sum(sum(counts.values()) for _, counts in self.bins)


class EventCounts:
    """Per-comm event counts folded one event at a time, in canonical
    order (the first event added is the trace origin): `add` each event,
    then read `histogram()` and `pie()`.  A bin width that is not positive
    or not a whole number of ns is a ValueError here."""

    def __init__(self, bin_width=1):
        self.bin_width = Fraction(bin_width)
        if self.bin_width <= 0:
            raise ValueError("bin width must be positive")
        width_ns = self.bin_width * NS_PER_SEC
        if width_ns.denominator != 1:
            raise ValueError(f"bin width {bin_width!r} not representable in ns")
        self._width_ns = int(width_ns)
        self._origin = None
        self._bins = {}  # bin index -> {comm: count}
        self._weights = {}  # comm -> event count, period weight for samples

    @staticmethod
    def stack_depth(event_class, event_name) -> int:
        """What `add` reads of an event's stack: nothing."""
        return STACK_NONE

    def add(self, ev) -> None:
        if self._origin is None:
            self._origin = ev.ts
        index = (ev.ts - self._origin) // self._width_ns
        counts = self._bins.get(index)
        if counts is None:
            counts = self._bins[index] = {}
        counts[ev.comm] = counts.get(ev.comm, 0) + 1
        weight = ev.period if ev.event_class == "cpu-clock" else 1
        self._weights[ev.comm] = self._weights.get(ev.comm, 0) + weight

    def histogram(self) -> HistogramView:
        """Events per time bin, keyed by comm, bins in time order."""
        return HistogramView(
            bin_width=self.bin_width,
            bins=[(index * self.bin_width, self._bins[index])
                  for index in sorted(self._bins)],
        )

    def pie(self) -> dict:
        """{comm: fraction} of event count (period weight for samples), in
        comm order; the fractions sum to 1, and no events, or a total
        weight of 0 (samples of period 0 only), give {}."""
        total = sum(self._weights.values())
        if not total:
            return {}
        return {k: Fraction(w, total) for k, w in sorted(self._weights.items())}


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
                   histogram: HistogramView = None, pie: dict = None) -> str:
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
            {"key": key, "fraction": float(fraction)}
            for key, fraction in pie.items()
        ]
    return json.dumps(doc, indent=2, sort_keys=False, ensure_ascii=True) + "\n"


# ---------------------------------------------------------------------------
# perf-script text renderer (the inverse of parsers.parse_perf_script)


def _frame_line(frame) -> str:
    symbol = frame.symbol if frame.symbol else "[unknown]"
    offset = f"+0x{frame.offset:x}" if frame.offset is not None else ""
    dso = frame.dso if frame.dso else "[unknown]"
    return f"\n\t{frame.address or 0:x} {symbol}{offset} ({dso})"


class PerfScriptWriter(_RowWriter):
    """Events in the perf-script text grammar the parsers accept: a block
    per event added, the blocks separated by blank lines.

    Timestamps render with nine fractional digits so the parse/render
    round trip is exact at nanosecond resolution.  Frames without an
    address render address 0.
    """

    def __init__(self, write):
        super().__init__(write)
        self._stack_text = {}  # stack -> its frame lines, formatted once
        # id(args) -> (args, its payload text), formatted once per shared
        # args dict; holding each dict keeps its id from being reused
        self._payloads = {}
        self._separator = ""  # the blank line before every block but the first

    def _payload(self, args) -> str:
        cached = self._payloads.get(id(args))
        if cached is not None:
            return cached[1]
        if "raw" in args and len(args) == 1:
            payload = args["raw"]
        else:
            payload = " ".join(f"{k}={v}" for k, v in args.items())
        self._payloads[id(args)] = (args, payload)
        return payload

    def add(self, ev) -> None:
        payload = self._payload(ev.args)
        period = f"{ev.period} " if ev.period != 1 else ""
        header = (f"{ev.comm} {ev.pid}/{ev.tid} [{ev.cpu:03d}] "
                  f"{format_ns(ev.ts)}: {period}{ev.event}: {payload}".rstrip())
        frames = self._stack_text.get(ev.stack)
        if frames is None:
            frames = self._stack_text[ev.stack] = "".join(
                _frame_line(frame) for frame in ev.stack)
        self._rows.append(f"{self._separator}{header}{frames}\n")
        self._separator = "\n"
        if len(self._rows) >= _BLOCK_ROWS:
            self.flush()
