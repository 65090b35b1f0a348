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
from dataclasses import dataclass, field
from fractions import Fraction

from .trace_model import NS_PER_SEC, STACK_ALL, Frame, TraceEvent


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


class MalformedRow(MalformedLine):
    """A data row that does not fit the table grammar."""


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

# The check of a frame line no block builds: `_FRAME_RE` without its
# groups.  It accepts exactly `_FRAME_RE`'s lines, embedded line breaks
# too: the symbol's `.*?` can take in any "+0x..." text, so the optional
# offset group never decides whether a line matches, and `\s*` before `$`
# takes in the final line break that `$` would otherwise stop before.
_FRAME_CHECK_RE = re.compile(r"\s+[0-9a-fA-F]+\s+.*?\s+\([^)]*\)\s*")

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


@dataclass
class PerfInterns:
    """The text a perf-script parse has seen, each distinct piece parsed or
    stored once.  One instance can serve several inputs of one run, so
    that their events share it too.

    `frames` holds only the frame lines a parse built; `stacks` is keyed
    by the stack itself, the tuple of a block's interned frames, so that
    a stack holds no line text; `checked` holds frame lines it checked
    against the grammar but did not build, so that a recurring one is not
    checked again, and is cleared whenever it reaches `_CHECKED_LINES`
    lines."""

    frames: dict = field(default_factory=dict)  # frame-line text -> Frame
    stacks: dict = field(default_factory=dict)  # stack -> the same stack
    payloads: dict = field(default_factory=dict)  # payload text -> shared args dict
    # comm, event name, frame symbol or dso text -> the one copy kept
    names: dict = field(default_factory=dict)
    checked: set = field(default_factory=set)  # frame-line texts checked, not built


# `PerfInterns.checked` is cleared when it holds this many lines: a line
# checked again costs one more match, never a different answer
_CHECKED_LINES = 1 << 11


def _parse_payload(payload: str) -> dict:
    if _PAYLOAD_RE.fullmatch(payload) is None:
        return {"raw": payload.strip()}
    return dict(_KEYVAL_RE.findall(payload))


def _frame_from_match(m, names: dict) -> Frame:
    addr, sym, off, dso = m.groups()
    sym = sym.strip()
    dso = dso.strip()
    return Frame(int(addr, 16),
                 None if sym in ("", "[unknown]") else names.setdefault(sym, sym),
                 int(off, 16) if off is not None else None,
                 names.setdefault(dso, dso) if dso else None)


def parse_perf_script(text: str, strict: bool = False) -> PerfParse:
    """Parse perf-script text into TraceEvents (stacks attached leaf-first);
    see `perf_events` for the parse itself."""
    errors = []
    return PerfParse(events=list(perf_events(text.splitlines(), errors, strict)),
                     errors=errors)


def perf_events(lines, errors: list, strict: bool = False, interns=None, depth=None):
    """Yield the events of perf-script lines, given without line ends, as
    each sample block ends.

    `lines` is any iterable and is read once, front to back, never held
    whole.  In lenient mode (default) lines matching no grammar rule are
    appended to `errors` as MalformedLines and parsing continues; strict
    mode raises on the first such line.  Lenient parsing never raises:
    every line is an event header, a frame, a blank, or a reported error.

    `depth(event)` gives, for a qualified event name, how much of the
    stacks of that name's events to build: `STACK_ALL` (every frame),
    `STACK_LEAF` (the leaf frame only) or `STACK_NONE` (the empty stack).
    It is called once per distinct name; when `depth` is None, every frame
    of every event is built.  Frame lines not built are still checked
    against the frame grammar, so the errors never depend on `depth`.

    Each distinct built frame line, stack, payload, comm, event name,
    frame symbol and dso is parsed or stored once per `interns` (a fresh
    PerfInterns when None), and events share them: interned `Frame`
    objects and stack tuples, one args dict per distinct payload, one
    string per distinct name.  Treat shared args dicts as read-only, like
    the stacks.
    """
    if interns is None:
        interns = PerfInterns()
    frames = interns.frames
    stacks = interns.stacks
    payloads = interns.payloads
    names = interns.names
    checked = interns.checked
    checked_lines = _CHECKED_LINES
    check_frame = _FRAME_CHECK_RE.fullmatch
    depths = {}  # event name -> how much of its events' stacks to build
    pending = None  # (lineno, header line, header groups, built frames)
    # the pending block's built frames while it builds frames: every one,
    # or until its leaf comes when `leaf_only`; else None
    build = None
    leaf_only = False

    def fail(err: MalformedLine):
        if strict:
            raise err
        errors.append(err)

    def flush():
        """The pending block's event, or None when it is malformed; there
        must be a pending block."""
        nonlocal pending
        lineno, line, groups, built = pending
        pending = None
        comm, pid, tid, cpu, ts, period, event, payload = groups
        built = tuple(built)
        stack = stacks.setdefault(built, built)
        args = payloads.get(payload)
        if args is None:
            args = payloads[payload] = _parse_payload(payload)
        whole, _, frac = ts.partition(".")  # the header grammar makes it digits.digits
        try:
            # int() raises ValueError past the interpreter's digit limit
            pid = int(pid)
            # positional arguments: a keyword call costs 1.6-2x as much
            return TraceEvent(
                names.setdefault(comm, comm),
                pid,
                int(tid) if tid is not None else pid,
                int(cpu),
                int(whole) * NS_PER_SEC + int(frac[:9].ljust(9, "0")),
                names.setdefault(event, event),
                args,
                int(period or 1),
                stack,
            )
        except ValueError as exc:
            fail(MalformedLine(lineno, line, str(exc)))
            return None

    for lineno, line in enumerate(lines, 1):
        if not line or line.isspace():
            build = None
            if pending is not None:
                event = flush()
                if event is not None:
                    yield event
            continue
        if line[0] not in " \t":
            build = None
            if pending is not None:
                event = flush()
                if event is not None:
                    yield event
            m = _PERF_HEADER_RE.match(line)
            if m is None:
                fail(MalformedLine(lineno, line, "unrecognized event header"))
                continue
            groups = m.groups()
            name = groups[6]
            want = depths.get(name)
            if want is None:
                want = depths[name] = STACK_ALL if depth is None else depth(name)
            built = []
            pending = (lineno, line, groups, built)
            build = built if want else None
            leaf_only = want != STACK_ALL
        elif build is not None:  # a frame line the pending block builds
            frame = frames.get(line)
            if frame is None:
                m = _FRAME_RE.match(line)
                if m is None:
                    fail(MalformedLine(lineno, line, "unrecognized stack frame"))
                    continue
                frame = frames[line] = _frame_from_match(m, names)
            build.append(frame)
            if leaf_only:
                build = None
        else:  # a frame line no block builds, checked all the same
            if line not in checked and line not in frames:
                if check_frame(line) is None:
                    fail(MalformedLine(lineno, line, "unrecognized stack frame"))
                    continue
                if len(checked) >= checked_lines:
                    checked.clear()
                checked.add(line)
            if pending is None:
                fail(MalformedLine(lineno, line, "stack frame outside a sample block"))
    if pending is not None:
        event = flush()
        if event is not None:
            yield event


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
# Every column is a whitespace-delimited run of digits, so each prefix
# matches one way only, and the greedy optional groups try the 7-column
# form, then the 5-column form (calls only), then the 4-column form.
_GPROF_ROW_RE = re.compile(
    rf"^\s*({_NUM})\s+({_NUM})\s+({_NUM})\s+"
    rf"(?:(\d+)\s+(?:({_NUM})\s+({_NUM})\s+)?)?(\S.*?)\s*$"
)


def _is_gprof_header(line: str) -> bool:
    return " ".join(line.split()).startswith("time seconds seconds calls")


def _lines_after_header(text: str, is_header, missing: str):
    """(line number, line) for each line after the first header line;
    MissingHeader(missing) when no line is one."""
    lines = enumerate(text.splitlines(), 1)
    for _, line in lines:
        if is_header(line):
            return lines
    raise MissingHeader(missing)


def _fraction(text):
    return None if text is None else Fraction(text)


def parse_gprof_flat(text: str) -> list:
    """Parse a gprof flat profile; blank numeric cells become absent."""
    rows = []
    for lineno, line in _lines_after_header(
            text, _is_gprof_header, "gprof flat-profile column header not found"):
        if not line.strip():
            break
        m = _GPROF_ROW_RE.match(line)
        if m is None:
            raise MalformedRow(lineno, line, "does not match any flat-profile row form")
        pct, cum, self_s, calls, self_per, total_per, name = m.groups()
        try:
            rows.append(
                GprofRow(Fraction(pct), Fraction(cum), Fraction(self_s),
                         None if calls is None else int(calls),
                         _fraction(self_per), _fraction(total_per), name)
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
        if len(tokens) not in (3, 4):
            raise MalformedRow(lineno, line, "expected 'symbol percent image'")
        # an interior space in the percent token: "13 .32" -> "13.32"
        sym, *pct, image = tokens
        pct_text = "".join(pct)
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
    rows = []
    for lineno, line in _lines_after_header(
            text, lambda line: line.lstrip().startswith("Mutex #"),
            "mutrace 'Mutex #' header not found"):
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
    args: str
    retval: str
    duration_s: Fraction | None

    def __post_init__(self) -> None:
        if self.rel_ts < 0:
            raise ValueError("negative relative timestamp")
        if self.duration_s is not None and self.duration_s < 0:
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
        else:
            # a complete line: a resumed line with no unfinished head
            m = _STRACE_LINE_RE.match(line)
            if m is None:
                raise MalformedRow(lineno, line, "does not match syscall line grammar")
            rel, head_args = m.group("rel"), ""
        try:
            records.append(SyscallRecord(
                rel_ts=Fraction(rel),
                name=m.group("name"),
                args=head_args + m.group("args"),
                retval=m.group("ret"),
                duration_s=_fraction(m.group("dur")),
            ))
        except ValueError as exc:
            raise MalformedRow(lineno, line, str(exc)) from exc
    return records


# ---------------------------------------------------------------------------
# format sniffing (used by the CLI's auto-detection)


SNIFF_LINES = 50  # sniff_format reads no further than this many first lines


def sniff_format(lines: list) -> str | None:
    """Guess which of the five grammars an input uses from its first lines.

    `lines` is a list of the input's lines, without line ends, holding at
    least its first SNIFF_LINES lines (or all of them); later lines are
    ignored.  Returns one of perf/gprof/oprofile/mutrace/strace/acquisitions,
    or None when nothing matches.
    """
    head = [ln for ln in lines[:SNIFF_LINES] if ln.strip()]
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
