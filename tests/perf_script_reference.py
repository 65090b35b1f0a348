"""Reference perf-script parser: the line-at-a-time parser that
`latprof.parsers.parse_perf_script` replaced, kept frozen so tests can
compare the interning parser against it.

It runs one regex per frame line and per payload token, builds a fresh
`Frame`, stack tuple and args dict for every event, and converts each
timestamp through the decimal-text rules.  Do not optimise it: its only
job is to be obviously right.
"""

import re

from latprof.parsers import MalformedLine, PerfParse
from latprof.trace_model import NS_PER_SEC, Frame, TraceEvent

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

_KEYVAL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)=(.*)$")


def _timestamp(text: str) -> int:
    text = text.strip()
    if "." in text:
        whole, frac = text.split(".", 1)
    else:
        whole, frac = text, ""
    if not (whole.isdigit() and (frac == "" or frac.isdigit())):
        raise ValueError(f"bad timestamp {text!r}")
    frac = (frac + "000000000")[:9]
    return int(whole) * NS_PER_SEC + int(frac)


def _parse_payload(payload: str) -> dict:
    payload = payload.strip()
    if not payload:
        return {}
    args = {}
    for token in payload.split():
        if token == "==>":
            continue
        m = _KEYVAL_RE.match(token)
        if m is None:
            return {"raw": payload}
        args[m.group(1)] = m.group(2)
    return args


def _frame_from_match(m) -> Frame:
    sym = m.group("sym").strip()
    if sym in ("", "[unknown]"):
        symbol = None
    else:
        symbol = sym
    off = m.group("off")
    dso = m.group("dso").strip() or None
    return Frame(
        address=int(m.group("addr"), 16),
        symbol=symbol,
        offset=int(off, 16) if off is not None else None,
        dso=dso,
    )


def parse_perf_script(source, strict: bool = False) -> PerfParse:
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in source]

    events = []
    errors = []
    pending = None  # (lineno, header match, frames)

    def fail(err: MalformedLine):
        if strict:
            raise err
        errors.append(err)

    def flush():
        nonlocal pending
        if pending is None:
            return
        lineno, m, frames = pending
        pending = None
        pid = int(m.group("pid"))
        tid = int(m.group("tid")) if m.group("tid") is not None else pid
        try:
            events.append(
                TraceEvent(
                    comm=m.group("comm"),
                    pid=pid,
                    tid=tid,
                    cpu=int(m.group("cpu")),
                    ts=_timestamp(m.group("ts")),
                    event=m.group("event"),
                    args=_parse_payload(m.group("payload")),
                    period=int(m.group("period") or 1),
                    stack=tuple(frames),
                )
            )
        except ValueError as exc:
            fail(MalformedLine(lineno, lines[lineno - 1], str(exc)))

    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            flush()
            continue
        if line[0] not in " \t":
            flush()
            m = _PERF_HEADER_RE.match(line)
            if m is None:
                fail(MalformedLine(lineno, line, "unrecognized event header"))
                continue
            pending = (lineno, m, [])
        else:
            m = _FRAME_RE.match(line)
            if m is None:
                fail(MalformedLine(lineno, line, "unrecognized stack frame"))
                continue
            if pending is None:
                fail(MalformedLine(lineno, line, "stack frame outside a sample block"))
                continue
            pending[2].append(_frame_from_match(m))
    flush()
    return PerfParse(events=events, errors=errors)
