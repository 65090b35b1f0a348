"""Reconstruct per-thread scheduler timelines and attribute off-CPU time.

A per-tid state machine pairs sched_switch/sched_wakeup events directly:
a switch-out closes the thread's Running interval and opens Sleeping (or
Runnable when it left in state R), a wakeup opens Runnable, a switch-in
opens Running.  A wakeup of a thread already Runnable changes nothing
and is not an anomaly: kernels emit sched_waking and then sched_wakeup
for one wake.  Contradictory transitions (e.g. a wakeup of a thread
already running) are tallied as anomalies and ignored.  The Sleeping
and Runnable intervals, which carry a wait reason, are the waits that
`summarize_waits` folds.

Events are processed in a canonical order: timestamp, then an event-kind
rank (wakeups, then everything else, then switch-ins, then switch-outs),
then cpu and event name, keeping input order for remaining ties.  The
kind rank is what makes same-instant wakeup/switch sequences land in the
only order the state machine can accept, so reshuffling equal-timestamp
input never changes totals.

Each wait is classified when its interval opens.  A Runnable interval is
scheduler delay.  A Sleeping interval's reason comes from the opening
switch's prev_state and call stack, plus three pieces of per-tid running
state kept during the same walk: the pending syscall, and the timestamps
of the latest block and network events.  This is exact, not an
approximation: every syscall, block and network event has kind rank 1
and every sched_switch rank 2 or 3, so all such events at or before the
switch's instant have been seen when the switch is processed, and none
after it have.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .trace_model import WaitReason, stack_signature

DEFAULT_LOCK_SYMBOLS = frozenset(
    {
        "futex_wait",
        "futex_wait_queue_me",
        "pthread_mutex_lock",
        "pthread_cond_wait",
        "pthread_join",
        "sem_wait",
    }
)

DEFAULT_LOOKBACK_NS = 1_000_000  # 1 ms block/network correlation window

_BLOCK_SYSCALLS = frozenset({"read", "write", "fsync", "fdatasync"})
_NET_SYSCALLS = frozenset(
    {"poll", "select", "epoll_wait", "recvfrom", "recvmsg", "accept", "connect"}
)
_TIMER_SYSCALLS = frozenset({"nanosleep", "clock_nanosleep"})

_SLEEP_TOKENS = frozenset({"S", "D", "T", "t", "X", "Z", "I"})


@dataclass(frozen=True)
class AnalysisConfig:
    lock_symbols: frozenset = DEFAULT_LOCK_SYMBOLS
    lookback_ns: int = DEFAULT_LOOKBACK_NS


class ThreadState(enum.Enum):
    # hot dict keys: hash by identity (equality already is), in C rather
    # than through Enum.__hash__
    __hash__ = object.__hash__

    RUNNING = "running"
    RUNNABLE = "runnable"
    SLEEPING = "sleeping"
    UNKNOWN = "unknown"


@dataclass(slots=True)
class TimelineInterval:
    start: int  # ns
    end: int  # ns
    state: ThreadState
    stack: tuple = ()
    reason: WaitReason | None = None  # set on Sleeping and Runnable intervals
    truncated: bool = False


@dataclass
class ThreadTimeline:
    tid: int
    comm: str = ""
    intervals: list = field(default_factory=list)

    def total_ns(self) -> int:
        return sum(iv.end - iv.start for iv in self.intervals)


@dataclass
class Timelines:
    by_tid: dict = field(default_factory=dict)
    anomalies: int = 0
    origin: int | None = None  # ns
    end: int | None = None  # ns


def _kind_rank(event) -> int:
    if event.event_class != "sched":
        return 1
    name = event.event_name
    if name.startswith("sched_wakeup") or name == "sched_waking":
        return 0
    if name == "sched_switch":
        if (_int_arg(event, "next_pid") or 0) > 0:
            return 2  # switches a thread in
        return 3  # pure switch-out (to idle)
    return 1


def canonical_sort(events) -> list:
    """The documented deterministic event order shared by all analyses."""
    # sorted() is stable: remaining ties keep input order
    return sorted(events, key=lambda ev: (ev.ts, _kind_rank(ev), ev.cpu, ev.event))


def _int_arg(event, key) -> int | None:
    """The payload value under `key` as an int; None for a non-number,
    including a run of digits longer than `int()` accepts."""
    value = event.args.get(key, "")
    try:
        return int(value) if value.isdecimal() else None
    except ValueError:  # past the int-string digit limit
        return None


class _ThreadMachine:
    """One tid's state during the walk: its open interval, and the context
    that classifies its next wait (the syscall it is in, and when it last
    had a block and a network event)."""

    def __init__(self, tid: int, origin: int):
        self.timeline = ThreadTimeline(tid=tid)
        self.state = ThreadState.UNKNOWN
        self.since = origin
        self.stack = ()
        self.reason = None
        self.syscall = None
        self.block_ns = None
        self.net_ns = None

    def close(self, end: int, truncated: bool = False):
        self.timeline.intervals.append(
            TimelineInterval(start=self.since, end=end, state=self.state,
                             stack=self.stack, reason=self.reason,
                             truncated=truncated))

    def transition(self, ts, new_state, stack=(), reason=None):
        if ts > self.since or self.state is not ThreadState.UNKNOWN:
            self.close(ts)
        self.state = new_state
        self.since = ts
        self.stack = stack
        self.reason = reason


def build_timelines(events, config: AnalysisConfig = None) -> Timelines:
    """Apply the per-tid scheduler state machine in canonical event order.

    Every tid sighted anywhere in the trace (header or sched args) gets a
    timeline starting in Unknown at the trace origin; tid 0 (the idle task)
    is never tracked.  Open intervals are closed at the last event
    timestamp and flagged truncated, so each timeline tiles the full
    observation window exactly.  Sleeping and Runnable intervals carry
    their wait reason, classified under `config` when they open.
    """
    if config is None:
        config = AnalysisConfig()
    ordered = canonical_sort(events)
    result = Timelines()
    if not ordered:
        return result
    origin = ordered[0].ts
    end = ordered[-1].ts
    result.origin = origin
    result.end = end

    threads: dict[int, _ThreadMachine] = {}

    def thread(tid: int, comm: str) -> _ThreadMachine:
        """tid's record, made on first sight; a non-empty comm is kept."""
        t = threads.get(tid)
        if t is None:
            t = threads[tid] = _ThreadMachine(tid, origin)
        if comm:
            t.timeline.comm = comm
        return t

    for ev in ordered:
        cls = ev.event_class
        if ev.tid > 0:
            t = thread(ev.tid, ev.comm)
            if cls == "syscalls":
                name = ev.event_name
                if name.startswith("sys_enter_"):
                    t.syscall = name[len("sys_enter_"):]
                elif name.startswith("sys_exit_"):
                    t.syscall = None
            elif cls == "block":
                t.block_ns = ev.ts
            elif cls in ("net", "sock", "skb"):
                t.net_ns = ev.ts
        if cls != "sched":
            continue
        name = ev.event_name
        if name == "sched_switch":
            prev = _int_arg(ev, "prev_pid")
            nxt = _int_arg(ev, "next_pid")
            if prev is not None and prev > 0:
                t = thread(prev, ev.args.get("prev_comm", ""))
                if t.state in (ThreadState.RUNNING, ThreadState.UNKNOWN):
                    prev_state = ev.args.get("prev_state")
                    token = (prev_state or "").rstrip("+")
                    if token == "R":
                        t.transition(ev.ts, ThreadState.RUNNABLE, stack=ev.stack,
                                     reason=WaitReason.SCHEDULER_DELAY)
                    else:
                        if token not in _SLEEP_TOKENS:
                            result.anomalies += 1
                        window = ev.ts - config.lookback_ns
                        reason = classify_wait(
                            prev_state,
                            ev.stack,
                            t.syscall,
                            t.block_ns is not None and t.block_ns >= window,
                            t.net_ns is not None and t.net_ns >= window,
                            config.lock_symbols,
                        )
                        t.transition(ev.ts, ThreadState.SLEEPING, stack=ev.stack,
                                     reason=reason)
                else:
                    result.anomalies += 1
            if nxt is not None and nxt > 0:
                t = thread(nxt, ev.args.get("next_comm", ""))
                if t.state in (ThreadState.RUNNABLE, ThreadState.UNKNOWN):
                    t.transition(ev.ts, ThreadState.RUNNING)
                else:
                    result.anomalies += 1
        elif name.startswith("sched_wakeup") or name == "sched_waking":
            pid = _int_arg(ev, "pid")
            if pid is not None and pid > 0:
                t = thread(pid, ev.args.get("comm", ""))
                if t.state in (ThreadState.SLEEPING, ThreadState.UNKNOWN):
                    t.transition(ev.ts, ThreadState.RUNNABLE,
                                 reason=WaitReason.SCHEDULER_DELAY)
                elif t.state is ThreadState.RUNNING:
                    result.anomalies += 1

    for tid, t in threads.items():
        t.close(end, truncated=True)
        result.by_tid[tid] = t.timeline
    return result


def classify_wait(prev_state, stack, pending_syscall, has_block_event,
                  has_net_event, lock_symbols=DEFAULT_LOCK_SYMBOLS) -> WaitReason:
    """First matching rule wins: lock, block I/O, network, timer, unknown."""
    if pending_syscall == "futex" or any(
        f.symbol in lock_symbols for f in stack if f.symbol
    ):
        return WaitReason.LOCK
    if (prev_state and "D" in prev_state) or pending_syscall in _BLOCK_SYSCALLS \
            or has_block_event:
        return WaitReason.BLOCK_IO
    if pending_syscall in _NET_SYSCALLS or has_net_event:
        return WaitReason.NETWORK
    if pending_syscall in _TIMER_SYSCALLS:
        return WaitReason.TIMER
    return WaitReason.UNKNOWN


def _log2_bucket_us(dur_ns: int) -> int:
    """k with 2^k <= dur_ns/1000 < 2^(k+1), exact integer arithmetic."""
    if dur_ns >= 1000:
        return (dur_ns // 1000).bit_length() - 1
    k = 0
    value = dur_ns
    while value < 1000:
        value <<= 1
        k -= 1
    return k


@dataclass
class WaitSummary:
    """Wait totals per (tid, reason) and per stack signature, plus a log2
    duration histogram (bucket k covers [2^k, 2^(k+1)) microseconds;
    zero-length intervals are excluded from the histogram)."""

    by_tid_reason: dict = field(default_factory=dict)  # (tid, WaitReason) -> ns
    by_stack: dict = field(default_factory=dict)  # signature -> [ns, count]
    histogram: dict = field(default_factory=dict)  # bucket k -> count

    def total_ns(self) -> int:
        return sum(self.by_tid_reason.values())

    def tid_reason_rows(self) -> list:
        """(tid, reason, ns) rows ordered by tid, then reason name."""
        return sorted(((tid, reason, ns)
                       for (tid, reason), ns in self.by_tid_reason.items()),
                      key=lambda row: (row[0], row[1].value))


def summarize_waits(timelines: Timelines) -> WaitSummary:
    """Fold every wait (Sleeping and Runnable interval: those with a
    reason) of the timelines into one summary."""
    summary = WaitSummary()
    signatures = {}  # stack -> its signature
    for tid, timeline in timelines.by_tid.items():
        for iv in timeline.intervals:
            if iv.reason is None:
                continue
            ns = iv.end - iv.start
            key = (tid, iv.reason)
            summary.by_tid_reason[key] = summary.by_tid_reason.get(key, 0) + ns
            sig = signatures.get(iv.stack)
            if sig is None:
                sig = signatures[iv.stack] = stack_signature(iv.stack)
            cur = summary.by_stack.setdefault(sig, [0, 0])
            cur[0] += ns
            cur[1] += 1
            if ns > 0:
                bucket = _log2_bucket_us(ns)
                summary.histogram[bucket] = summary.histogram.get(bucket, 0) + 1
    return summary
