"""Core domain types shared by parsers, analyzers, and exporters.

Values are safe to share between threads: every type here is immutable
except `TraceEvent`, which is mutable only so that it is built quickly
(plain attribute stores, not the frozen `object.__setattr__` path); treat
events as read-only, as their stacks and `args` dicts already are.  Trace
times (event timestamps, interval bounds, lock acquisition times) are
plain non-negative int nanoseconds, so long traces never accumulate
floating-point drift; `parse_ns` and `format_ns` convert decimal
"sec.frac" text exactly at nanosecond resolution at the edges.
"""

from __future__ import annotations

import collections
import enum
import functools
from dataclasses import dataclass, field

NS_PER_SEC = 10**9
NS_PER_MS = 10**6

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


@functools.lru_cache(maxsize=1024)
def event_parts(event: str) -> tuple:
    """(class, short name) of a qualified event name.  Cached, so that the
    events of one name share both strings instead of each holding copies."""
    return classify_event(event), event.split(":", 1)[-1]


# How much of an event's stack a reader reads, least first: no frame, the
# leaf frame only, or every frame.  A fold's `stack_depth(event_class,
# event_name)` says which its `add` reads of the events of that class and
# short name; `parsers.perf_events` builds no more than that.
STACK_NONE = 0
STACK_LEAF = 1
STACK_ALL = 2


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


class Frame(collections.namedtuple("Frame", "address symbol offset dso")):
    """One call-stack frame: code address, symbol, offset and image (dso),
    each None when absent.

    An immutable named tuple, so that it is cheap to build and is hashed
    and compared in C; it equals a plain tuple of the same four values."""

    __slots__ = ()

    def __new__(cls, address: int | None = None, symbol: str | None = None,
                offset: int | None = None, dso: str | None = None) -> Frame:
        if symbol is None and address is None:
            raise ValueError("frame needs a symbol or an address")
        return tuple.__new__(cls, (address, symbol, offset, dso))

    def display_symbol(self) -> str:
        if self.symbol is not None:
            return self.symbol
        return f"0x{self.address:x}"


@dataclass(slots=True)
class TraceEvent:
    """One timestamped profiler event, with an optional call stack.

    `event` keeps the original qualified name ("sched:sched_switch",
    "cpu-clock"); `event_class` and `event_name` (the short name) are
    derived from it once, at construction.  `stack` is
    leaf-first (innermost frame at index 0), matching perf script print
    order.  `comm` is captured per event because it can change at exec.
    Events may share their `args` dict and `stack` tuple with other events
    (the parser shares one per distinct payload and stack); treat both as
    read-only.
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
        self.event_class, self.event_name = event_parts(self.event)

    def leaf(self) -> Frame | None:
        return self.stack[0] if self.stack else None


class WaitKind(enum.Enum):
    """Unused by the library: a wait is a Sleeping or Runnable interval,
    as a `sched_analysis.SchedWalk` passes it to its sink.  Kept only for
    the import in `perfbench/tracer.py`."""

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


def stack_signature(stack) -> str:
    """Stable text key for a stack: symbol names joined leaf-first."""
    return ";".join(f.display_symbol() for f in stack)
