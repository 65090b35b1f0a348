"""Reconstruct per-thread scheduler timelines and attribute off-CPU time.

A per-tid state machine pairs sched_switch/sched_wakeup events directly:
a switch-out closes the thread's Running interval and opens Sleeping (or
Runnable when it left in state R), a wakeup opens Runnable, a switch-in
opens Running.  Contradictory transitions (e.g. a wakeup of a thread
already running) are tallied as anomalies and ignored.  Sleeping and
Runnable intervals become WaitIntervals.

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

from .trace_model import (
    WaitInterval,
    WaitKind,
    WaitReason,
    stack_signature,
)

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


@dataclass
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
        next_pid = event.args.get("next_pid", "")
        if next_pid.isdecimal() and int(next_pid) > 0:
            return 2  # switches a thread in
        return 3  # pure switch-out (to idle)
    return 1


def canonical_sort(events) -> list:
    """The documented deterministic event order shared by all analyses."""
    return [
        ev
        for _, _, _, _, _, ev in sorted(
            (ev.ts, _kind_rank(ev), ev.cpu, ev.event, i, ev)
            for i, ev in enumerate(events)
        )
    ]


def _int_arg(event, key) -> int | None:
    value = event.args.get(key, "")
    return int(value) if value.isdecimal() else None


class _ThreadMachine:
    def __init__(self, tid: int, origin: int):
        self.timeline = ThreadTimeline(tid=tid)
        self.state = ThreadState.UNKNOWN
        self.since = origin
        self.stack = ()
        self.reason = None

    def transition(self, ts, new_state, stack=(), reason=None):
        if ts > self.since or self.state is not ThreadState.UNKNOWN:
            self.timeline.intervals.append(
                TimelineInterval(
                    start=self.since,
                    end=ts,
                    state=self.state,
                    stack=self.stack,
                    reason=self.reason,
                )
            )
        self.state = new_state
        self.since = ts
        self.stack = stack
        self.reason = reason

    def finish(self, end: int):
        self.timeline.intervals.append(
            TimelineInterval(
                start=self.since,
                end=end,
                state=self.state,
                stack=self.stack,
                reason=self.reason,
                truncated=True,
            )
        )


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

    machines: dict[int, _ThreadMachine] = {}
    pending_syscall: dict[int, str | None] = {}
    last_block_ns: dict[int, int] = {}
    last_net_ns: dict[int, int] = {}

    def machine(tid: int) -> _ThreadMachine:
        if tid not in machines:
            machines[tid] = _ThreadMachine(tid, origin)
        return machines[tid]

    def note_comm(tid, comm):
        if comm:
            machine(tid).timeline.comm = comm

    def recent(last_ns, tid, ts_ns) -> bool:
        seen = last_ns.get(tid)
        return seen is not None and seen >= ts_ns - config.lookback_ns

    for ev in ordered:
        if ev.tid > 0:
            note_comm(ev.tid, ev.comm)
        cls = ev.event_class
        if cls == "syscalls":
            name = ev.event_name
            if name.startswith("sys_enter_"):
                pending_syscall[ev.tid] = name[len("sys_enter_"):]
            elif name.startswith("sys_exit_"):
                pending_syscall[ev.tid] = None
        elif cls == "block":
            last_block_ns[ev.tid] = ev.ts
        elif cls in ("net", "sock", "skb"):
            last_net_ns[ev.tid] = ev.ts
        if cls != "sched":
            continue
        name = ev.event_name
        if name == "sched_switch":
            prev = _int_arg(ev, "prev_pid")
            nxt = _int_arg(ev, "next_pid")
            if prev is not None and prev > 0:
                note_comm(prev, ev.args.get("prev_comm", ""))
                m = machine(prev)
                if m.state in (ThreadState.RUNNING, ThreadState.UNKNOWN):
                    prev_state = ev.args.get("prev_state")
                    token = (prev_state or "").rstrip("+")
                    if token == "R":
                        m.transition(ev.ts, ThreadState.RUNNABLE, stack=ev.stack,
                                     reason=WaitReason.SCHEDULER_DELAY)
                    else:
                        if token not in _SLEEP_TOKENS:
                            result.anomalies += 1
                        reason = classify_wait(
                            prev_state,
                            ev.stack,
                            pending_syscall.get(prev),
                            recent(last_block_ns, prev, ev.ts),
                            recent(last_net_ns, prev, ev.ts),
                            config.lock_symbols,
                        )
                        m.transition(ev.ts, ThreadState.SLEEPING, stack=ev.stack,
                                     reason=reason)
                else:
                    result.anomalies += 1
            if nxt is not None and nxt > 0:
                note_comm(nxt, ev.args.get("next_comm", ""))
                m = machine(nxt)
                if m.state in (ThreadState.RUNNABLE, ThreadState.UNKNOWN):
                    m.transition(ev.ts, ThreadState.RUNNING)
                else:
                    result.anomalies += 1
        elif name.startswith("sched_wakeup") or name == "sched_waking":
            pid = _int_arg(ev, "pid")
            if pid is not None and pid > 0:
                note_comm(pid, ev.args.get("comm", ""))
                m = machine(pid)
                if m.state in (ThreadState.SLEEPING, ThreadState.UNKNOWN):
                    m.transition(ev.ts, ThreadState.RUNNABLE,
                                 reason=WaitReason.SCHEDULER_DELAY)
                else:
                    result.anomalies += 1

    for tid, m in machines.items():
        m.finish(end)
        result.by_tid[tid] = m.timeline
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


_WAIT_KINDS = {ThreadState.SLEEPING: WaitKind.BLOCKED,
               ThreadState.RUNNABLE: WaitKind.RUNNABLE}


def attribute_offcpu(timelines: Timelines) -> list:
    """One WaitInterval per Sleeping/Runnable timeline interval, in tid order."""
    return [
        WaitInterval(tid, iv.start, iv.end, _WAIT_KINDS[iv.state], iv.reason,
                     iv.stack, iv.truncated)
        for tid in sorted(timelines.by_tid)
        for iv in timelines.by_tid[tid].intervals
        if iv.reason is not None
    ]


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


def summarize_waits(intervals) -> WaitSummary:
    summary = WaitSummary()
    signatures = {}  # stack -> its signature
    for w in intervals:
        ns = w.end - w.start
        key = (w.tid, w.reason)
        summary.by_tid_reason[key] = summary.by_tid_reason.get(key, 0) + ns
        sig = signatures.get(w.stack)
        if sig is None:
            sig = signatures[w.stack] = stack_signature(w.stack)
        cur = summary.by_stack.setdefault(sig, [0, 0])
        cur[0] += ns
        cur[1] += 1
        if ns > 0:
            bucket = _log2_bucket_us(ns)
            summary.histogram[bucket] = summary.histogram.get(bucket, 0) + 1
    return summary
