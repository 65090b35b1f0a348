"""Reconstruct per-thread scheduler timelines and attribute off-CPU time.

A per-tid state machine pairs sched_switch/sched_wakeup events directly:
a switch-out closes the thread's Running interval and opens Sleeping (or
Runnable when it left in state R), a wakeup opens Runnable, a switch-in
opens Running.  A wakeup of a thread already Runnable changes nothing
and is not an anomaly: kernels emit sched_waking and then sched_wakeup
for one wake.  Contradictory transitions (e.g. a wakeup of a thread
already running) are tallied as anomalies and ignored.  The Sleeping
and Runnable intervals, which carry a wait reason, are the waits.  The
machine (`SchedWalk`) takes one event at a time and hands each interval
to a sink as it closes.  An interval is just the seven values the sink
is called with, `(tid, start, end, state, stack, reason, truncated)`;
the default sink is the walk's `WaitSummary`, which keeps only the
waits' totals.

Events are processed in a canonical order: timestamp, then an event-kind
rank (wakeups, then everything else, then switch-ins, then switch-outs),
then cpu and event name, keeping input order for remaining ties.  The
kind rank is what makes same-instant wakeup/switch sequences land in the
only order the state machine can accept, so reshuffling equal-timestamp
input never changes totals.  `canonical_sort` orders a whole event list;
`canonical_stream` gives the same order for inputs already in time order
while holding one equal-timestamp group at a time.

Each wait is classified when its interval opens.  A Runnable interval is
scheduler delay.  A Sleeping interval's reason comes from the opening
switch's prev_state and call stack, plus three pieces of per-tid running
state kept during the same walk: the pending syscall, and the timestamps
of the latest block and network events.  This is exact, not an
approximation: every syscall, block and network event has kind rank 1
and every sched_switch rank 2 or 3, so all such events at or before the
switch's instant have been seen when the switch is processed, and none
after it have.

The walk reads each distinct args dict and stack once: it decodes a
sched_switch or sched_wakeup* payload, and tests a stack for a lock
symbol, the first time it meets that object, and reuses the answer for
every event that shares it (the parser and the simulator share one dict
per distinct payload and one tuple per distinct stack).  So treating
events' args and stacks as read-only is load-bearing here.  The caches
are keyed by identity, keep the objects they answer for, and are cleared
at a fixed size, so no answer depends on them.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from operator import attrgetter

from .trace_model import STACK_ALL, STACK_NONE, WaitReason, stack_signature

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


def _kind_rank(event) -> int:
    if event.event_class != "sched":
        return 1
    name = event.event_name
    if name.startswith("sched_wakeup") or name == "sched_waking":
        return 0
    if name == "sched_switch":
        if _pid_arg(event.args, "next_pid"):
            return 2  # switches a thread in
        return 3  # pure switch-out (to idle)
    return 1


def _canonical_key(event) -> tuple:
    return (event.ts, _kind_rank(event), event.cpu, event.event)


def canonical_sort(events) -> list:
    """The documented deterministic event order shared by all analyses."""
    # sorted() is stable: remaining ties keep input order
    return sorted(events, key=_canonical_key)


class OutOfOrder(Exception):
    """An input steps back in time, so it cannot be ordered as a stream."""


def canonical_stream(inputs):
    """Yield the events of several inputs, each in time order, in canonical
    order: the order `canonical_sort` gives their concatenation.

    The inputs are merged by timestamp, earlier inputs first among equal
    timestamps, and only each equal-timestamp group is sorted, so no more
    than one group is held.  Raises OutOfOrder as soon as an input steps
    back in time: merging in-order inputs never steps back, and a backward
    step in one input makes the merge step back at once.
    """
    if len(inputs) == 1:
        events = inputs[0]
    else:
        events = heapq.merge(*inputs, key=attrgetter("ts"))
    group = []
    group_ts = -1
    for event in events:
        ts = event.ts
        if ts == group_ts:
            group.append(event)
            continue
        if ts < group_ts:
            raise OutOfOrder
        if len(group) > 1:
            group.sort(key=_canonical_key)
            yield from group
        elif group:
            yield group[0]
        group = [event]
        group_ts = ts
    if len(group) > 1:
        group.sort(key=_canonical_key)
    yield from group


def _pid_arg(args: dict, key: str) -> int:
    """The payload value under `key` as a pid; 0 for a non-number,
    including a run of digits longer than `int()` accepts."""
    value = args.get(key, "")
    try:
        return int(value) if value.isdecimal() else 0
    except ValueError:  # past the int-string digit limit
        return 0


# `SchedWalk`'s payload and stack caches and `WaitSummary._signatures` are
# each cleared when they hold this many entries: an object met again after
# that costs one more decode, never a different answer
_CACHED_OBJECTS = 1 << 11


def _bounded(cache: dict) -> dict:
    """`cache`, emptied first if it holds `_CACHED_OBJECTS` entries."""
    if len(cache) >= _CACHED_OBJECTS:
        cache.clear()
    return cache


class _ThreadMachine:
    """One tid's state during the walk: its open interval, and the context
    that classifies its next wait (the syscall it is in, and when it last
    had a block and a network event)."""

    __slots__ = ("tid", "comm", "sink", "state", "since", "stack", "reason",
                 "syscall", "block_ns", "net_ns")

    def __init__(self, tid: int, origin: int, sink):
        self.tid = tid
        self.comm = ""
        self.sink = sink
        self.state = ThreadState.UNKNOWN
        self.since = origin
        self.stack = ()
        self.reason = None
        self.syscall = None
        self.block_ns = None
        self.net_ns = None

    def close(self, end: int, truncated: bool = False):
        self.sink(self.tid, self.since, end, self.state, self.stack, self.reason,
                  truncated)

    def transition(self, ts, new_state, stack=(), reason=None):
        if ts > self.since or self.state is not ThreadState.UNKNOWN:
            self.close(ts)
        self.state = new_state
        self.since = ts
        self.stack = stack
        self.reason = reason


class SchedWalk:
    """The per-tid scheduler state machine, fed one event at a time, in
    canonical order, through `add`.

    Every tid sighted anywhere in the trace (header or sched args) gets a
    record that starts in Unknown at the trace origin, the first event's
    timestamp; tid 0 (the idle task) is never tracked.  Each interval is
    passed, as it closes, to `sink(tid, start, end, state, stack, reason,
    truncated)`, by default `self.summary.add`, which keeps only the waits.
    `finish` closes the open intervals at the last event's timestamp,
    flagged truncated, so each tid's intervals tile the whole observation
    window.  Sleeping and Runnable intervals carry their wait reason,
    classified under `config` when they open.
    """

    def __init__(self, config: AnalysisConfig = None, sink=None):
        self.config = config if config is not None else AnalysisConfig()
        self.summary = WaitSummary()
        self.sink = sink if sink is not None else self.summary.add
        self.threads = {}  # tid -> _ThreadMachine
        self.anomalies = 0
        self.origin = None  # ns
        self.end = None  # ns
        self.saw_sched = False
        # id(args) -> decoded sched_switch or sched_wakeup* payload, and
        # id(stack) -> whether it has a lock symbol; each entry keeps the
        # object it was read from, so that its id is not reused
        self._switches = {}
        self._wakeups = {}
        self._locked = {}

    def _thread(self, tid: int, comm: str) -> _ThreadMachine:
        """tid's record, made on first sight; a non-empty comm is kept."""
        t = self.threads.get(tid)
        if t is None:
            t = self.threads[tid] = _ThreadMachine(tid, self.origin, self.sink)
        if comm:
            t.comm = comm
        return t

    @staticmethod
    def stack_depth(event_class, event_name) -> int:
        """What `add` reads of an event's stack: all of a sched_switch's
        (to classify and sign the wait it opens), nothing of others'."""
        if event_class == "sched" and event_name == "sched_switch":
            return STACK_ALL
        return STACK_NONE

    def add(self, ev) -> None:
        ts = ev.ts
        if self.origin is None:
            self.origin = ts
        self.end = ts
        cls = ev.event_class
        if ev.tid > 0:
            t = self._thread(ev.tid, ev.comm)
            if cls == "syscalls":
                name = ev.event_name
                if name.startswith("sys_enter_"):
                    t.syscall = name[len("sys_enter_"):]
                elif name.startswith("sys_exit_"):
                    t.syscall = None
            elif cls == "block":
                t.block_ns = ts
            elif cls in ("net", "sock", "skb"):
                t.net_ns = ts
        if cls != "sched":
            return
        self.saw_sched = True
        name = ev.event_name
        if name == "sched_switch":
            args = ev.args
            switch = self._switches.get(id(args))
            if switch is None:
                switch = self._decode_switch(args)
            _, prev, prev_comm, prev_state, token, nxt, next_comm = switch
            if prev:
                t = self._thread(prev, prev_comm)
                if t.state in (ThreadState.RUNNING, ThreadState.UNKNOWN):
                    stack = ev.stack
                    if token == "R":
                        t.transition(ts, ThreadState.RUNNABLE, stack=stack,
                                     reason=WaitReason.SCHEDULER_DELAY)
                    else:
                        if token not in _SLEEP_TOKENS:
                            self.anomalies += 1
                        locked = self._locked.get(id(stack))
                        if locked is None:
                            locked = self._scan_stack(stack)
                        window = ts - self.config.lookback_ns
                        reason = _classify(
                            prev_state,
                            locked[1],
                            t.syscall,
                            t.block_ns is not None and t.block_ns >= window,
                            t.net_ns is not None and t.net_ns >= window,
                        )
                        t.transition(ts, ThreadState.SLEEPING, stack=stack,
                                     reason=reason)
                else:
                    self.anomalies += 1
            if nxt:
                t = self._thread(nxt, next_comm)
                if t.state in (ThreadState.RUNNABLE, ThreadState.UNKNOWN):
                    t.transition(ts, ThreadState.RUNNING)
                else:
                    self.anomalies += 1
        elif name.startswith("sched_wakeup") or name == "sched_waking":
            args = ev.args
            wakeup = self._wakeups.get(id(args))
            if wakeup is None:
                wakeup = self._decode_wakeup(args)
            _, pid, comm = wakeup
            if pid:
                t = self._thread(pid, comm)
                if t.state in (ThreadState.SLEEPING, ThreadState.UNKNOWN):
                    t.transition(ts, ThreadState.RUNNABLE,
                                 reason=WaitReason.SCHEDULER_DELAY)
                elif t.state is ThreadState.RUNNING:
                    self.anomalies += 1

    def _decode_switch(self, args: dict) -> tuple:
        """A sched_switch payload's `(args, prev pid, prev comm, prev_state,
        its token, next pid, next comm)`, cached by the dict's identity; a
        pid that is missing, not decimal or not positive reads 0."""
        switches = _bounded(self._switches)
        prev_state = args.get("prev_state")
        entry = switches[id(args)] = (
            args,
            _pid_arg(args, "prev_pid"),
            args.get("prev_comm", ""),
            prev_state,
            (prev_state or "").rstrip("+"),
            _pid_arg(args, "next_pid"),
            args.get("next_comm", ""),
        )
        return entry

    def _decode_wakeup(self, args: dict) -> tuple:
        """A sched_wakeup* payload's `(args, pid, comm)`, cached as
        `_decode_switch`'s are."""
        entry = _bounded(self._wakeups)[id(args)] = (
            args, _pid_arg(args, "pid"), args.get("comm", ""))
        return entry

    def _scan_stack(self, stack: tuple) -> tuple:
        """`(stack, whether it has a lock symbol)`, cached by the stack's
        identity."""
        entry = _bounded(self._locked)[id(stack)] = (
            stack, _has_lock_symbol(stack, self.config.lock_symbols))
        return entry

    def finish(self) -> None:
        """Close every open interval at the last event's timestamp."""
        for t in self.threads.values():
            t.close(self.end, truncated=True)

    def comms(self) -> dict:
        """tid -> its last non-empty comm ("" when none was seen)."""
        return {tid: t.comm for tid, t in self.threads.items()}


def classify_wait(prev_state, stack, pending_syscall, has_block_event,
                  has_net_event, lock_symbols=DEFAULT_LOCK_SYMBOLS) -> WaitReason:
    """First matching rule wins: lock, block I/O, network, timer, unknown."""
    return _classify(prev_state, _has_lock_symbol(stack, lock_symbols),
                     pending_syscall, has_block_event, has_net_event)


def _has_lock_symbol(stack, lock_symbols) -> bool:
    """Whether a frame of `stack` names one of `lock_symbols`."""
    return any(f.symbol in lock_symbols for f in stack if f.symbol)


def _classify(prev_state, lock_frame, pending_syscall, has_block_event,
              has_net_event) -> WaitReason:
    """`classify_wait`'s rules, given whether the stack has a lock frame."""
    if lock_frame or pending_syscall == "futex":
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
    # id(stack) -> (stack, its signature), worked out once per stack object
    # and bounded as `SchedWalk`'s caches are; holding each stack keeps its
    # id from being reused
    _signatures: dict = field(default_factory=dict, repr=False, compare=False)

    def add(self, tid, start, end, state, stack, reason, truncated=False) -> None:
        """Add one interval if it is a wait (has a reason); the arguments
        are those a `SchedWalk` passes its sink."""
        if reason is None:
            return
        ns = end - start
        key = (tid, reason)
        self.by_tid_reason[key] = self.by_tid_reason.get(key, 0) + ns
        cached = self._signatures.get(id(stack))
        if cached is None:
            cached = _bounded(self._signatures)[id(stack)] = (
                stack, stack_signature(stack))
        sig = cached[1]
        cur = self.by_stack.get(sig)
        if cur is None:
            cur = self.by_stack[sig] = [0, 0]
        cur[0] += ns
        cur[1] += 1
        if ns > 0:
            bucket = _log2_bucket_us(ns)
            self.histogram[bucket] = self.histogram.get(bucket, 0) + 1

    def total_ns(self) -> int:
        return sum(self.by_tid_reason.values())

    def tid_reason_rows(self) -> list:
        """(tid, reason, ns) rows ordered by tid, then reason name."""
        return sorted(((tid, reason, ns)
                       for (tid, reason), ns in self.by_tid_reason.items()),
                      key=lambda row: (row[0], row[1].value))
