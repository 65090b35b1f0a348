"""Core domain types shared by parsers, analyzers, and exporters.

All values are immutable after construction and safe to share between
threads.  Timestamps are integer nanoseconds internally so that long traces
never accumulate floating-point drift; decimal "sec.frac" text converts
exactly at nanosecond resolution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

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


@dataclass(frozen=True, order=True, slots=True)
class Timestamp:
    """A point in trace time, stored as integer nanoseconds."""

    ns: int

    def __post_init__(self) -> None:
        if self.ns < 0:
            raise ValueError(f"timestamp must be non-negative, got {self.ns}")

    @classmethod
    def parse(cls, text: str) -> "Timestamp":
        """Parse decimal seconds ("12345.678901") exactly to nanoseconds.

        Fractional digits beyond nanosecond resolution are truncated, not
        rounded.
        """
        text = text.strip()
        whole, _, frac = text.partition(".")
        if not (whole.isdecimal() and (frac == "" or frac.isdecimal())):
            raise ValueError(f"bad timestamp {text!r}")
        frac = (frac + "000000000")[:9]
        return cls(int(whole) * NS_PER_SEC + int(frac))

    @classmethod
    def from_seconds(cls, seconds) -> "Timestamp":
        """Build from a rational/int second count (exact)."""
        ns = Fraction(seconds) * NS_PER_SEC
        if ns.denominator != 1:
            raise ValueError(f"{seconds} is not representable in nanoseconds")
        return cls(int(ns))

    def seconds(self) -> Fraction:
        return Fraction(self.ns, NS_PER_SEC)

    def format(self, digits: int = 9) -> str:
        """Render "sec.frac" with exactly `digits` fractional digits.

        Sub-digit precision is truncated, never rounded.
        """
        whole, rem = divmod(self.ns, NS_PER_SEC)
        frac = f"{rem:09d}"[:digits]
        return f"{whole}.{frac}" if digits > 0 else str(whole)

    def format_ms(self) -> str:
        """Millisecond "ss.SSS" display form (truncating)."""
        return self.format(3)

    def __sub__(self, other: "Timestamp") -> int:
        """Difference in integer nanoseconds."""
        return self.ns - other.ns


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
    ts: Timestamp
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
    start: Timestamp
    end: Timestamp
    kind: WaitKind
    reason: WaitReason
    stack: tuple = ()
    truncated: bool = False

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("interval end precedes start")
        if self.kind is WaitKind.RUNNABLE and self.reason is not WaitReason.SCHEDULER_DELAY:
            raise ValueError("runnable intervals are scheduler delay by definition")


def duration_ns(w: WaitInterval) -> int:
    return w.end - w.start


def duration(w: WaitInterval) -> Fraction:
    """Interval length in seconds, exact in integer nanoseconds."""
    return Fraction(duration_ns(w), NS_PER_SEC)


def stack_signature(stack) -> str:
    """Stable text key for a stack: symbol names joined leaf-first."""
    return ";".join(f.display_symbol() for f in stack)
