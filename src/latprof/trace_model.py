"""Core domain types shared by parsers, analyzers, and exporters.

All values are immutable after construction and safe to share between
threads.  Trace times (event timestamps, interval bounds, lock acquisition
times) are plain non-negative int nanoseconds, so long traces never
accumulate floating-point drift; `parse_ns` and `format_ns` convert
decimal "sec.frac" text exactly at nanosecond resolution at the edges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

NS_PER_SEC = 10**9

# Tracepoint class prefixes recognized in qualified event names, plus the
# unqualified cpu-clock sample event.  Anything else maps to "other".
_EVENT_CLASSES = frozenset(
    {"sched", "syscalls", "block", "ext4", "net", "sock", "skb", "scsi"}
)


def classify_event(event_name: str) -> str:
    """Map a qualified event name ("class:name") to its event class.

    Unqualified "cpu-clock" is the clock sample event; unrecognized
    prefixes map to "other".  Total function: never raises on non-empty
    input.
    """
    token = event_name.split(":", 1)[0]
    if token in _EVENT_CLASSES:
        return token
    if token == "cpu-clock":
        return "cpu-clock"
    return "other"


def parse_ns(text: str) -> int:
    """Parse decimal seconds ("12345.678901") exactly to int nanoseconds.

    Fractional digits beyond nanosecond resolution are truncated, not
    rounded.
    """
    text = text.strip()
    whole, _, frac = text.partition(".")
    if not (whole.isdecimal() and (frac == "" or frac.isdecimal())):
        raise ValueError(f"bad timestamp {text!r}")
    return int(whole) * NS_PER_SEC + int((frac + "000000000")[:9])


def format_ns(ns: int) -> str:
    """Render int nanoseconds as "sec.frac" with nine fractional digits."""
    whole, rem = divmod(ns, NS_PER_SEC)
    return f"{whole}.{rem:09d}"


@dataclass(frozen=True, slots=True)
class Frame:
    """One call-stack frame: code address, symbol, offset, and image."""

    address: int | None = None
    symbol: str | None = None
    offset: int | None = None
    dso: str | None = None

    def __post_init__(self) -> None:
        if self.symbol is None and self.address is None:
            raise ValueError("frame needs a symbol or an address")

    def display_symbol(self) -> str:
        if self.symbol is not None:
            return self.symbol
        return f"0x{self.address:x}"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One timestamped profiler event, with an optional call stack.

    `event` keeps the original qualified name ("sched:sched_switch",
    "cpu-clock"); `event_class` and `event_name` (the short name) are
    derived from it once, at construction.  `stack` is
    leaf-first (innermost frame at index 0), matching perf script print
    order.  `comm` is captured per event because it can change at exec.
    """

    comm: str
    pid: int
    tid: int
    cpu: int
    ts: int  # ns
    event: str
    args: dict = field(default_factory=dict)
    period: int = 1
    stack: tuple = ()
    event_class: str = field(init=False, compare=False, repr=False)
    event_name: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.tid < 0 or self.pid < 0:
            raise ValueError(f"pid/tid must be non-negative, got {self.pid}/{self.tid}")
        if self.cpu < 0:
            raise ValueError(f"cpu must be non-negative, got {self.cpu}")
        if self.ts < 0:
            raise ValueError(f"timestamp must be non-negative, got {self.ts}")
        object.__setattr__(self, "event_class", classify_event(self.event))
        object.__setattr__(self, "event_name", self.event.split(":", 1)[-1])

    def leaf(self) -> Frame | None:
        return self.stack[0] if self.stack else None


class WaitKind(enum.Enum):
    # hot dict keys: hash by identity (equality already is), in C rather
    # than through Enum.__hash__
    __hash__ = object.__hash__

    BLOCKED = "blocked"
    RUNNABLE = "runnable"


class WaitReason(enum.Enum):
    # hot dict keys: hash by identity (equality already is), in C rather
    # than through Enum.__hash__
    __hash__ = object.__hash__

    SCHEDULER_DELAY = "SchedulerDelay"
    BLOCK_IO = "BlockIO"
    LOCK = "Lock"
    NETWORK = "Network"
    TIMER = "Timer"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class WaitInterval:
    """A per-thread blocked or runnable-delay interval with its wait reason.

    `stack` is the call stack attached to the scheduler event that opened
    the interval (empty when the recording lacked stacks).  `truncated`
    marks intervals still open when the trace ended.
    """

    tid: int
    start: int  # ns
    end: int  # ns
    kind: WaitKind
    reason: WaitReason
    stack: tuple = ()
    truncated: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.end:
            if self.start < 0:
                raise ValueError(f"timestamp must be non-negative, got {self.start}")
            raise ValueError("interval end precedes start")
        if self.kind is WaitKind.RUNNABLE and self.reason is not WaitReason.SCHEDULER_DELAY:
            raise ValueError("runnable intervals are scheduler delay by definition")


def stack_signature(stack) -> str:
    """Stable text key for a stack: symbol names joined leaf-first."""
    return ";".join(f.display_symbol() for f in stack)
