"""Parsers for the five textual profiler formats.

Accepted grammars (pinned here; see README for examples):

* perf script text -- sample blocks of
  ``comm  pid/tid [cpu] sec.frac: [period] event: payload`` headers (an
  alternate ``comm tid [cpu] ...`` form sets pid equal to tid), followed by
  stack-frame lines ``addr symbol+0xoff (dso)`` recognized by their leading
  whitespace, terminated by a blank line or the next header.  Fractional
  timestamp digits are exact up to nanoseconds.  Payloads made of
  ``key=value`` tokens (the ``==>`` separator is skipped) parse into the
  args map; anything else is stored under the key "raw".
* gprof flat profile -- numeric columns after the
  ``time   seconds   seconds    calls`` header; blank cells become absent.
* oprofile/xenoprof flat text -- ``symbol percent image`` rows after an
  optional ``Function`` header; an interior space in the percent token
  ("13 .32") is accepted and joined, since published listings show that
  spacing.
* mutrace summary -- rows following the ``Mutex #`` column header.
* strace -rT -- ``rel_ts name(args) = ret <dur>`` lines; unfinished/resumed
  pairs merge into one record; ``+++ ... +++`` and ``--- ... ---``
  annotation lines are skipped.

Numbers always parse in the C locale (dot decimal separator).  Rational
columns are stored exactly as printed (`Fraction`), never recomputed:
published gprof listings show display rounding that recomputation would
violate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .trace_model import NS_PER_SEC, Frame, TraceEvent


class ParseError(Exception):
    pass


class MissingHeader(ParseError):
    pass


class MalformedLine(ParseError):
    """A line that matches no grammar rule (perf script input)."""

    def __init__(self, lineno: int, line: str, reason: str):
        super().__init__(f"line {lineno}: {reason}: {line!r}")
        self.lineno = lineno
        self.line = line
        self.reason = reason


class MalformedRow(ParseError):
    """A data row that does not fit the table grammar."""

    def __init__(self, lineno: int, line: str, reason: str):
        super().__init__(f"line {lineno}: {reason}: {line!r}")
        self.lineno = lineno
        self.line = line
        self.reason = reason


# ---------------------------------------------------------------------------
# perf script


_PERF_HEADER_RE = re.compile(
    r"^(?P<comm>\S+)\s+"
    r"(?P<pid>\d+)(?:/(?P<tid>\d+))?\s+"
    r"\[(?P<cpu>\d+)\]\s+"
    r"(?P<ts>\d+\.\d+):\s*"
    r"(?:(?P<period>\d+)\s+)?"
    r"(?P<event>[A-Za-z0-9_.\-]+(?::[A-Za-z0-9_.\-]+)?):"
    r"\s?(?P<payload>.*)$"
)

_FRAME_RE = re.compile(
    r"^\s+(?P<addr>[0-9a-fA-F]+)\s+"
    r"(?P<sym>.*?)(?:\+0x(?P<off>[0-9a-fA-F]+))?\s+"
    r"\((?P<dso>[^)]*)\)\s*$"
)

# A key=value payload: whitespace-separated tokens, each a key=value pair
# or the "==>" separator.  `\s` matches exactly the characters str.split()
# splits on, so this accepts the payloads whose every token fits the
# key=value grammar, and findall then yields their pairs in order.
_PAYLOAD_RE = re.compile(r"\s*(?:(?:==>|[A-Za-z_][A-Za-z0-9_]*=\S*)(?:\s+|\Z))*")
_KEYVAL_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)=(\S*)")


@dataclass
class PerfParse:
    """Lenient perf-script parse result: events plus the lines that failed."""

    events: list
    errors: list


def _parse_payload(payload: str) -> dict:
    if _PAYLOAD_RE.fullmatch(payload) is None:
        return {"raw": payload.strip()}
    return dict(_KEYVAL_RE.findall(payload))


def _frame_from_match(m) -> Frame:
    addr, sym, off, dso = m.groups()
    sym = sym.strip()
    return Frame(
        address=int(addr, 16),
        symbol=None if sym in ("", "[unknown]") else sym,
        offset=int(off, 16) if off is not None else None,
        dso=dso.strip() or None,
    )


def parse_perf_script(source, strict: bool = False) -> PerfParse:
    """Parse perf-script text into TraceEvents (stacks attached leaf-first).

    In lenient mode (default) lines matching no grammar rule are collected
    as MalformedLine errors and parsing continues; strict mode raises on
    the first such line.  Lenient parsing never raises: every line is an
    event header, a frame, a blank, or a reported error.

    Each distinct frame line, stack and payload text is parsed once per
    call: events share interned `Frame` objects and stack tuples, and each
    event gets its own copy of its args dict.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in source]

    events = []
    errors = []
    frames = {}  # frame-line text -> Frame
    stacks = {}  # the block's frame-line texts -> stack tuple
    payloads = {}  # payload text -> args, copied for each event
    pending = None  # (lineno, header groups, frame-line texts)

    def fail(err: MalformedLine):
        if strict:
            raise err
        errors.append(err)

    def flush():
        nonlocal pending
        if pending is None:
            return
        lineno, groups, texts = pending
        pending = None
        comm, pid, tid, cpu, ts, period, event, payload = groups
        texts = tuple(texts)
        stack = stacks.get(texts)
        if stack is None:
            stack = stacks[texts] = tuple(frames[text] for text in texts)
        args = payloads.get(payload)
        if args is None:
            args = payloads[payload] = _parse_payload(payload)
        whole, _, frac = ts.partition(".")  # the header grammar makes it digits.digits
        try:
            # int() raises ValueError past the interpreter's digit limit
            pid = int(pid)
            events.append(
                TraceEvent(
                    comm=comm,
                    pid=pid,
                    tid=int(tid) if tid is not None else pid,
                    cpu=int(cpu),
                    ts=int(whole) * NS_PER_SEC + int(frac[:9].ljust(9, "0")),
                    event=event,
                    args=dict(args),
                    period=int(period or 1),
                    stack=stack,
                )
            )
        except ValueError as exc:
            fail(MalformedLine(lineno, lines[lineno - 1], str(exc)))

    for lineno, line in enumerate(lines, 1):
        if not line or line.isspace():
            flush()
            continue
        if line[0] not in " \t":
            flush()
            m = _PERF_HEADER_RE.match(line)
            if m is None:
                fail(MalformedLine(lineno, line, "unrecognized event header"))
                continue
            pending = (lineno, m.groups(), [])
        else:
            if line not in frames:
                m = _FRAME_RE.match(line)
                if m is None:
                    fail(MalformedLine(lineno, line, "unrecognized stack frame"))
                    continue
                frames[line] = _frame_from_match(m)
            if pending is None:
                fail(MalformedLine(lineno, line, "stack frame outside a sample block"))
                continue
            pending[2].append(line)
    flush()
    return PerfParse(events=events, errors=errors)


# ---------------------------------------------------------------------------
# gprof flat profile


@dataclass(frozen=True)
class GprofRow:
    percent_time: Fraction
    cumulative_s: Fraction
    self_s: Fraction
    calls: int | None
    self_ms_per_call: Fraction | None
    total_ms_per_call: Fraction | None
    name: str

    def __post_init__(self) -> None:
        if not 0 <= self.percent_time <= 100:
            raise ValueError(f"percent out of range: {self.percent_time}")
        if self.self_s < 0 or self.cumulative_s < 0:
            raise ValueError("negative time column")


_NUM = r"\d+\.\d+"
_GPROF_ROW_RES = (
    re.compile(
        rf"^\s*({_NUM})\s+({_NUM})\s+({_NUM})\s+(\d+)\s+({_NUM})\s+({_NUM})\s+(\S.*?)\s*$"
    ),
    re.compile(rf"^\s*({_NUM})\s+({_NUM})\s+({_NUM})\s+(\d+)\s+(\S.*?)\s*$"),
    re.compile(rf"^\s*({_NUM})\s+({_NUM})\s+({_NUM})\s+(\S.*?)\s*$"),
)


def _is_gprof_header(line: str) -> bool:
    return " ".join(line.split()).startswith("time seconds seconds calls")


def parse_gprof_flat(text: str) -> list:
    """Parse a gprof flat profile; blank numeric cells become absent."""
    lines = text.splitlines()
    start = None
    for i, line in enumerate(lines):
        if _is_gprof_header(line):
            start = i + 1
            break
    if start is None:
        raise MissingHeader("gprof flat-profile column header not found")

    rows = []
    for lineno, line in enumerate(lines[start:], start + 1):
        if not line.strip():
            break
        for pattern in _GPROF_ROW_RES:
            m = pattern.match(line)
            if m:
                break
        else:
            raise MalformedRow(lineno, line, "does not match any flat-profile row form")
        g = m.groups()
        try:
            if len(g) == 7:
                rows.append(
                    GprofRow(Fraction(g[0]), Fraction(g[1]), Fraction(g[2]),
                             int(g[3]), Fraction(g[4]), Fraction(g[5]), g[6])
                )
            elif len(g) == 5:
                rows.append(
                    GprofRow(Fraction(g[0]), Fraction(g[1]), Fraction(g[2]),
                             int(g[3]), None, None, g[4])
                )
            else:
                rows.append(
                    GprofRow(Fraction(g[0]), Fraction(g[1]), Fraction(g[2]),
                             None, None, None, g[3])
                )
        except ValueError as exc:
            raise MalformedRow(lineno, line, str(exc)) from exc
    return rows


# ---------------------------------------------------------------------------
# oprofile / xenoprof flat image profile


@dataclass(frozen=True)
class ImageProfileRow:
    symbol: str
    percent: Fraction
    image: str

    def __post_init__(self) -> None:
        if not 0 <= self.percent <= 100:
            raise ValueError(f"percent out of range: {self.percent}")


_PERCENT_RE = re.compile(r"^\d+(\.\d+)?$|^\.\d+$")


def parse_oprofile_flat(text: str) -> list:
    """Parse flat image-profile rows of ``symbol percent image``."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        tokens = line.split()
        if tokens == ["Function"]:
            continue
        if len(tokens) == 3:
            sym, pct_text, image = tokens
        elif len(tokens) == 4:
            # interior space in the percent token: "13 .32" -> "13.32"
            sym, image = tokens[0], tokens[3]
            pct_text = tokens[1] + tokens[2]
        else:
            raise MalformedRow(lineno, line, "expected 'symbol percent image'")
        if not _PERCENT_RE.match(pct_text):
            raise MalformedRow(lineno, line, f"bad percent token {pct_text!r}")
        try:
            rows.append(ImageProfileRow(sym, Fraction(pct_text), image))
        except ValueError as exc:
            raise MalformedRow(lineno, line, str(exc)) from exc
    return rows


# ---------------------------------------------------------------------------
# mutrace summary table


@dataclass(frozen=True)
class MutexStats:
    """Per-lock contention statistics, mirroring the mutrace summary columns."""

    mutex_id: int
    locked: int
    changed: int
    contended: int
    total_ms: Fraction
    avg_ms: Fraction
    max_ms: Fraction
    flags: str = ""

    def __post_init__(self) -> None:
        if self.changed > self.locked:
            raise ValueError("changed exceeds locked")
        if self.contended > self.locked:
            raise ValueError("contended exceeds locked")
        if min(self.total_ms, self.avg_ms, self.max_ms) < 0:
            raise ValueError("negative time column")
        if self.locked > 0:
            if self.max_ms < self.avg_ms:
                raise ValueError("max below avg")
            # the avg column is display-rounded; allow half a thousandth per lock
            if abs(self.avg_ms - self.total_ms / self.locked) > Fraction(5, 10000) * self.locked:
                raise ValueError("avg inconsistent with total/locked")


def parse_mutrace(text: str) -> list:
    """Parse the mutrace per-mutex summary table."""
    lines = text.splitlines()
    start = None
    for i, line in enumerate(lines):
        if line.lstrip().startswith("Mutex #"):
            start = i + 1
            break
    if start is None:
        raise MissingHeader("mutrace 'Mutex #' header not found")

    rows = []
    for lineno, line in enumerate(lines[start:], start + 1):
        if not re.match(r"^\s*\d", line):
            break
        tokens = line.split()
        if len(tokens) != 8:
            raise MalformedRow(lineno, line, f"expected 8 columns, got {len(tokens)}")
        try:
            rows.append(
                MutexStats(
                    mutex_id=int(tokens[0]),
                    locked=int(tokens[1]),
                    changed=int(tokens[2]),
                    contended=int(tokens[3]),
                    total_ms=Fraction(tokens[4]),
                    avg_ms=Fraction(tokens[5]),
                    max_ms=Fraction(tokens[6]),
                    flags=tokens[7],
                )
            )
        except ValueError as exc:
            raise MalformedRow(lineno, line, str(exc)) from exc
    return rows


# ---------------------------------------------------------------------------
# strace -rT


@dataclass(frozen=True)
class SyscallRecord:
    rel_ts: Fraction
    name: str
    args_text: str
    retval: str
    wall_duration_s: Fraction | None

    def __post_init__(self) -> None:
        if self.rel_ts < 0:
            raise ValueError("negative relative timestamp")
        if self.wall_duration_s is not None and self.wall_duration_s < 0:
            raise ValueError("negative duration")


_STRACE_LINE_RE = re.compile(
    rf"^\s*(?P<rel>{_NUM})\s+(?P<name>[A-Za-z0-9_]+)\((?P<args>.*)\)\s*=\s*"
    rf"(?P<ret>.+?)(?:\s+<(?P<dur>{_NUM})>)?\s*$"
)
_STRACE_UNFINISHED_RE = re.compile(
    rf"^\s*(?P<rel>{_NUM})\s+(?P<name>[A-Za-z0-9_]+)\((?P<args>.*)<unfinished\s+\.\.\.>\s*$"
)
_STRACE_RESUMED_RE = re.compile(
    rf"^\s*(?P<rel>{_NUM})\s+<\.\.\.\s+(?P<name>[A-Za-z0-9_]+)\s+resumed>\s*"
    rf"(?P<args>.*?)\)\s*=\s*(?P<ret>.+?)(?:\s+<(?P<dur>{_NUM})>)?\s*$"
)
_STRACE_NOTE_RE = re.compile(r"^\s*(?:\d+\.\d+\s+)?(?:\+\+\+.*\+\+\+|---.*---)\s*$")


def parse_strace(text: str) -> list:
    """Parse strace -rT output; unfinished/resumed pairs merge into one record.

    Exit-status and signal annotation lines are skipped, since -rT output
    routinely contains them.  A merged record keeps the unfinished line's
    relative timestamp and is emitted at the resumed line's position.
    """
    records = []
    unfinished = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or _STRACE_NOTE_RE.match(line):
            continue
        m = _STRACE_UNFINISHED_RE.match(line)
        if m:
            unfinished[m.group("name")] = (m.group("rel"), m.group("args"))
            continue
        m = _STRACE_RESUMED_RE.match(line)
        if m:
            name = m.group("name")
            if name not in unfinished:
                raise MalformedRow(lineno, line, f"resumed {name} without unfinished")
            rel, head_args = unfinished.pop(name)
            dur = m.group("dur")
            records.append(
                SyscallRecord(
                    rel_ts=Fraction(rel),
                    name=name,
                    args_text=head_args + m.group("args"),
                    retval=m.group("ret"),
                    wall_duration_s=Fraction(dur) if dur is not None else None,
                )
            )
            continue
        m = _STRACE_LINE_RE.match(line)
        if m is None:
            raise MalformedRow(lineno, line, "does not match syscall line grammar")
        dur = m.group("dur")
        records.append(
            SyscallRecord(
                rel_ts=Fraction(m.group("rel")),
                name=m.group("name"),
                args_text=m.group("args"),
                retval=m.group("ret"),
                wall_duration_s=Fraction(dur) if dur is not None else None,
            )
        )
    return records


# ---------------------------------------------------------------------------
# format sniffing (used by the CLI's auto-detection)


_SNIFF_LINES = 50
_SNIFF_PREFIX_CHARS = 1 << 16


def _first_lines(text: str) -> list:
    """``text.splitlines()[:_SNIFF_LINES]``, splitting only a prefix.

    When the prefix holds more lines than needed, its first lines ended
    inside it, so they equal the whole text's (a cut through a ``\r\n``
    pair can only touch the prefix's last line); otherwise split it all.
    """
    lines = text[:_SNIFF_PREFIX_CHARS].splitlines()
    if len(lines) <= _SNIFF_LINES:
        lines = text.splitlines()
    return lines[:_SNIFF_LINES]


def sniff_format(text: str) -> str | None:
    """Guess which of the five grammars a file uses from its first lines.

    Returns one of perf/gprof/oprofile/mutrace/strace/acquisitions, or
    None when nothing matches.
    """
    head = [ln for ln in _first_lines(text) if ln.strip()]
    for line in head[:12]:
        stripped = line.strip()
        if stripped.startswith("Mutex #") or stripped.startswith("mutrace:"):
            return "mutrace"
        if _is_gprof_header(line) or stripped == "Flat profile:":
            return "gprof"
        if stripped.startswith("tid,lock_id,request_ts"):
            return "acquisitions"
        if _PERF_HEADER_RE.match(line):
            return "perf"
        if (_STRACE_LINE_RE.match(line) or _STRACE_UNFINISHED_RE.match(line)
                or _STRACE_NOTE_RE.match(line)):
            return "strace"
    for line in head[:12]:
        tokens = line.split()
        if tokens == ["Function"]:
            return "oprofile"
        if len(tokens) in (3, 4):
            pct = "".join(tokens[1:-1])
            if _PERCENT_RE.match(pct):
                return "oprofile"
    return None
