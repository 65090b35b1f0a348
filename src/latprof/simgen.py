"""Deterministic discrete-event simulation of a bounded-buffer system.

N producers and N consumers coordinate over per-queue counting semaphores
(empty/full) and a mutex.  A producer iterates {compute; WAIT(empty);
WAIT(mutex); critical section; SIGNAL(mutex); SIGNAL(full)} and a consumer
symmetrically {compute; WAIT(full); WAIT(mutex); critical section;
SIGNAL(mutex); SIGNAL(empty)}.  The simulator runs on a virtual
integer-nanosecond clock with one cpu per thread, emits a synthetic
scheduler trace (sched_switch/sched_wakeup with stacks naming the wait
site), and keeps an exact ledger of every completed block interval — the
verification oracle for the scheduler analysis.

Lock acquisitions are recorded against two lock ids per queue: the buffer
slot pool (held from the empty/full WAIT grant until the complementary
SIGNAL) and the mutex.  Under the default wait order both thread kinds
nest slot-then-mutex; the deadlock-prone variant (--inverted-wait-order)
makes producers take the mutex first, which is a classic lock-order
inversion against the consumers and shows up as a cycle in the lock-order
graph.

Conventions: virtual-time ties execute in (time, tid) order; a WAIT whose
grant arrives at the very instant it blocked is coalesced into an
immediate grant (no events, no ledger entry); jitter scales each drawn
duration by (1 + jitter*u), u uniform in [-1, 1] from a per-thread
splitmix64 stream, and is only sampled when jitter > 0.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .lock_analysis import LockAcquisition
from .sched_analysis import (
    AnalysisConfig,
    attribute_offcpu,
    build_timelines,
    summarize_waits,
)
from .trace_model import Frame, TraceEvent, WaitKind

_MASK64 = (1 << 64) - 1
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15


class ConfigError(ValueError):
    pass


class SplitMix64:
    """splitmix64: tiny, seedable, bit-stable across platforms."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + SPLITMIX64_GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform_pm1(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53) * 2.0 - 1.0


@dataclass(frozen=True)
class SimConfig:
    producers: int
    consumers: int
    capacity: int
    items_per_producer: int
    produce_ns: int
    consume_ns: int
    critical_ns: int
    queues: int = 1
    seed: int = 0
    jitter: float = 0.0
    inverted_wait_order: bool = False
    max_sim_ns: int = 3_600_000_000_000

    def validate(self) -> None:
        if self.producers < 1 or self.consumers < 1:
            raise ConfigError("need at least one producer and one consumer")
        if self.queues < 1 or self.capacity < 1 or self.items_per_producer < 1:
            raise ConfigError("queues, capacity, and items must be at least 1")
        if min(self.produce_ns, self.consume_ns, self.critical_ns) <= 0:
            raise ConfigError("durations must be positive")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("jitter must lie in [0, 1]")
        if self.queues > self.producers or self.queues > self.consumers:
            raise ConfigError("every queue needs at least one producer and one consumer")


def slots_lock_id(queue: int) -> int:
    return 2 * queue


def mutex_lock_id(queue: int) -> int:
    return 2 * queue + 1


@dataclass
class GroundTruth:
    """Analytically known per-thread blocked-time ledger.

    `blocked` maps (tid, semaphore id like "empty_q0") to
    [total blocked ns, block count] over completed block intervals;
    blocks still pending at a deadlock are listed in `pending`.
    """

    blocked: dict = field(default_factory=dict)
    pending: list = field(default_factory=list)  # (tid, sem_id, since_ns)
    max_occupancy: dict = field(default_factory=dict)  # queue -> max items seen
    completion_ns: int | None = None
    deadlocked: bool = False
    timed_out: bool = False
    produced: int = 0
    consumed: int = 0

    def to_json(self) -> str:
        doc = {
            "blocked": [
                {"tid": tid, "sem": sem, "blocked_ns": ns, "count": count}
                for (tid, sem), (ns, count) in sorted(self.blocked.items())
            ],
            "pending": [
                {"tid": tid, "sem": sem, "since_ns": since}
                for tid, sem, since in sorted(self.pending)
            ],
            "max_occupancy": {str(q): n for q, n in sorted(self.max_occupancy.items())},
            "completion_ns": self.completion_ns,
            "deadlocked": self.deadlocked,
            "timed_out": self.timed_out,
            "produced": self.produced,
            "consumed": self.consumed,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass
class SimResult:
    """A finished run.

    Switch-out events with the same (semaphore, role) share one read-only
    stack tuple.  `acquisition_rows` holds each lock acquisition as an int
    tuple (grant_ns, tid, grant_seq, lock_id, request_ns, release_ns) in
    (grant, tid, grant_seq) order; `acquisitions` builds the matching
    `LockAcquisition` list on first read.
    """

    config: SimConfig
    events: list
    truth: GroundTruth
    acquisition_rows: list
    crit_intervals: dict  # queue -> [(start_ns, end_ns, tid)]

    @cached_property
    def acquisitions(self) -> list:
        return [
            LockAcquisition(tid=tid, lock_id=lock, request_ts=request,
                            grant_ts=grant, release_ts=release)
            for grant, tid, _, lock, request, release in self.acquisition_rows
        ]


class _Semaphore:
    def __init__(self, sem_id: str, count: int):
        self.sem_id = sem_id
        self.count = count
        self.waiters = deque()  # (tid, blocked_since_ns)


class _Thread:
    def __init__(self, tid, comm, role, queue, rng):
        self.tid = tid
        self.comm = comm
        self.cpu = tid
        self.role = role
        self.queue = queue
        self.rng = rng
        self.gen = None
        self.finished = False
        self.blocked_since = None
        self.blocked_sem = None
        self.block_event_index = None
        self.open_locks = {}  # lock_id -> (request_ns, grant_ns or None, grant_seq)


class _Simulator:
    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.events = []
        self.truth = GroundTruth()
        self.crit_intervals = {q: [] for q in range(cfg.queues)}
        self.occupancy_deltas = {q: [] for q in range(cfg.queues)}
        self.clock = 0
        self.heap = []
        self.seq = 0
        self.grant_seq = 0
        self._symbols = {}
        self._stacks = {}  # (sem_id, role) -> stack tuple shared by switch-outs
        self._rows = []  # (grant_ns, tid, grant_seq, lock_id, request_ns, release_ns)

        self.sems = {}
        for q in range(cfg.queues):
            self.sems[("empty", q)] = _Semaphore(f"empty_q{q}", cfg.capacity)
            self.sems[("full", q)] = _Semaphore(f"full_q{q}", 0)
            self.sems[("mutex", q)] = _Semaphore(f"mutex_q{q}", 1)

        self.to_claim = {q: 0 for q in range(cfg.queues)}
        self.threads = {}
        tid = 1
        for i in range(cfg.producers):
            q = i % cfg.queues
            self.to_claim[q] += cfg.items_per_producer
            self.threads[tid] = _Thread(tid, f"producer{i}", "producer", q,
                                        self._thread_rng(tid))
            tid += 1
        for j in range(cfg.consumers):
            q = j % cfg.queues
            self.threads[tid] = _Thread(tid, f"consumer{j}", "consumer", q,
                                        self._thread_rng(tid))
            tid += 1

    def _thread_rng(self, tid: int) -> SplitMix64:
        return SplitMix64(self.cfg.seed ^ ((tid * SPLITMIX64_GAMMA) & _MASK64))

    # -- deterministic synthetic symbols

    def _addr(self, symbol: str) -> int:
        if symbol not in self._symbols:
            self._symbols[symbol] = 0x400000 + 0x40 * len(self._symbols)
        return self._symbols[symbol]

    def _wait_stack(self, sem_id: str, role: str) -> tuple:
        stack = self._stacks.get((sem_id, role))
        if stack is None:
            frames = ("sem_wait", f"wait_{sem_id}", f"{role}_loop", "main")
            stack = self._stacks[(sem_id, role)] = tuple(
                Frame(address=self._addr(sym), symbol=sym, dso="simgen")
                for sym in frames
            )
        return stack

    # -- duration draws

    def _draw(self, thread: _Thread, base_ns: int) -> int:
        if self.cfg.jitter == 0.0:
            return base_ns
        scaled = round(base_ns * (1.0 + self.cfg.jitter * thread.rng.uniform_pm1()))
        return max(1, int(scaled))

    # -- event emission

    def _emit_switch_out(self, thread: _Thread, now: int, sem_id: str):
        thread.block_event_index = len(self.events)
        self.events.append(TraceEvent(
            comm=thread.comm, pid=thread.tid, tid=thread.tid, cpu=thread.cpu,
            ts=now, event="sched:sched_switch",
            args={
                "prev_comm": thread.comm, "prev_pid": str(thread.tid),
                "prev_prio": "120", "prev_state": "S",
                "next_comm": "swapper", "next_pid": "0", "next_prio": "120",
            },
            stack=self._wait_stack(sem_id, thread.role),
        ))

    def _emit_switch_in(self, thread: _Thread, now: int):
        self.events.append(TraceEvent(
            comm=thread.comm, pid=thread.tid, tid=thread.tid, cpu=thread.cpu,
            ts=now, event="sched:sched_switch",
            args={
                "prev_comm": "swapper", "prev_pid": "0", "prev_prio": "120",
                "prev_state": "R",
                "next_comm": thread.comm, "next_pid": str(thread.tid),
                "next_prio": "120",
            },
        ))

    def _emit_wakeup(self, waker: _Thread, woken: _Thread, now: int):
        self.events.append(TraceEvent(
            comm=waker.comm, pid=waker.tid, tid=waker.tid, cpu=waker.cpu,
            ts=now, event="sched:sched_wakeup",
            args={"comm": woken.comm, "pid": str(woken.tid), "prio": "120",
                  "target_cpu": str(woken.cpu)},
        ))

    # -- lock acquisition bookkeeping

    @staticmethod
    def _lock_for(semkey) -> int:
        kind, q = semkey
        return mutex_lock_id(q) if kind == "mutex" else slots_lock_id(q)

    def _open_lock(self, thread: _Thread, semkey, now: int):
        thread.open_locks[self._lock_for(semkey)] = (now, None, None)

    def _grant_lock(self, thread: _Thread, semkey, now: int):
        lock = self._lock_for(semkey)
        request, _, _ = thread.open_locks[lock]
        self.grant_seq += 1
        thread.open_locks[lock] = (request, now, self.grant_seq)

    def _release_lock(self, thread: _Thread, semkey, now: int):
        lock = self._lock_for(semkey)
        request, grant, seq = thread.open_locks.pop(lock)
        self._record_acquisition(thread.tid, lock, request, grant, seq, now)

    def _record_acquisition(self, tid, lock, request, grant, seq, release):
        # the invariant LockAcquisition enforces, checked on plain ints
        if not 0 <= request <= grant <= release:
            raise AssertionError(
                f"lock {lock} tid {tid}: request {request}, grant {grant},"
                f" release {release} out of order")
        self._rows.append((grant, tid, seq, lock, request, release))

    # -- thread programs

    def _producer(self, thread: _Thread):
        cfg = self.cfg
        q = thread.queue
        first = ("mutex", q) if cfg.inverted_wait_order else ("empty", q)
        second = ("empty", q) if cfg.inverted_wait_order else ("mutex", q)
        for _ in range(cfg.items_per_producer):
            yield ("compute", self._draw(thread, cfg.produce_ns))
            yield ("wait", first)
            yield ("wait", second)
            yield ("crit", q, self._draw(thread, cfg.critical_ns), "add")
            yield ("signal", ("mutex", q))
            yield ("signal", ("full", q))

    def _consumer(self, thread: _Thread):
        cfg = self.cfg
        q = thread.queue
        while self.to_claim[q] > 0:
            self.to_claim[q] -= 1
            yield ("compute", self._draw(thread, cfg.consume_ns))
            yield ("wait", ("full", q))
            yield ("wait", ("mutex", q))
            yield ("crit", q, self._draw(thread, cfg.critical_ns), "remove")
            yield ("signal", ("mutex", q))
            yield ("signal", ("empty", q))

    # -- the event loop

    def _schedule(self, when: int, tid: int):
        self.seq += 1
        heapq.heappush(self.heap, (when, tid, self.seq))

    def _advance(self, thread: _Thread, now: int):
        while True:
            try:
                action = next(thread.gen)
            except StopIteration:
                thread.finished = True
                return
            kind = action[0]
            if kind == "compute":
                self._schedule(now + action[1], thread.tid)
                return
            if kind == "crit":
                _, q, dur, op = action
                self.crit_intervals[q].append((now, now + dur, thread.tid))
                self.occupancy_deltas[q].append(
                    (now + dur, 1 if op == "add" else -1))
                if op == "add":
                    self.truth.produced += 1
                else:
                    self.truth.consumed += 1
                self._schedule(now + dur, thread.tid)
                return
            if kind == "wait":
                semkey = action[1]
                sem = self.sems[semkey]
                self._open_lock(thread, semkey, now)
                if sem.count > 0:
                    sem.count -= 1
                    self._grant_lock(thread, semkey, now)
                    continue
                sem.waiters.append(thread.tid)
                thread.blocked_since = now
                thread.blocked_sem = semkey
                self._emit_switch_out(thread, now, sem.sem_id)
                return
            if kind == "signal":
                semkey = action[1]
                sem = self.sems[semkey]
                # signaling mutex releases the mutex; signaling full/empty
                # releases the signaler's slot-pool unit
                self._release_lock(thread, semkey, now)
                if sem.waiters:
                    woken = self.threads[sem.waiters.popleft()]
                    blocked_ns = now - woken.blocked_since
                    self._grant_lock(woken, semkey, now)
                    if blocked_ns > 0:
                        key = (woken.tid, sem.sem_id)
                        entry = self.truth.blocked.setdefault(key, [0, 0])
                        entry[0] += blocked_ns
                        entry[1] += 1
                        self._emit_wakeup(thread, woken, now)
                        self._emit_switch_in(woken, now)
                    else:
                        # grant arrived at the block instant: coalesce into
                        # an immediate grant, retracting the switch-out
                        self.events[woken.block_event_index] = None
                    woken.blocked_since = None
                    woken.blocked_sem = None
                    woken.block_event_index = None
                    self._schedule(now, woken.tid)
                else:
                    sem.count += 1
                continue
            raise AssertionError(f"unknown action {action!r}")

    def run(self) -> SimResult:
        for tid, thread in sorted(self.threads.items()):
            thread.gen = (self._producer(thread) if thread.role == "producer"
                          else self._consumer(thread))
            self._emit_switch_in(thread, 0)
            self._schedule(0, tid)

        while self.heap:
            now, tid, _ = heapq.heappop(self.heap)
            if now > self.cfg.max_sim_ns:
                self.truth.timed_out = True
                break
            self.clock = max(self.clock, now)
            self._advance(self.threads[tid], now)

        finished = all(t.finished for t in self.threads.values())
        if finished:
            self.truth.completion_ns = self.clock
        elif not self.truth.timed_out:
            self.truth.deadlocked = True
        for thread in self.threads.values():
            if thread.blocked_since is not None:
                self.truth.pending.append(
                    (thread.tid, self.sems[thread.blocked_sem].sem_id,
                     thread.blocked_since))
            for lock, (request, grant, seq) in sorted(thread.open_locks.items()):
                if grant is not None:
                    # granted but never released (wedged in a deadlock):
                    # close at the stop time so the record stays representable
                    self._record_acquisition(thread.tid, lock, request, grant, seq,
                                             max(self.clock, grant))

        for q, deltas in self.occupancy_deltas.items():
            occupancy = 0
            peak = 0
            for _, delta in sorted(deltas, key=lambda d: d[0]):
                occupancy += delta
                peak = max(peak, occupancy)
                if not 0 <= occupancy <= self.cfg.capacity:
                    raise AssertionError(
                        f"occupancy {occupancy} out of [0, {self.cfg.capacity}]")
            self.truth.max_occupancy[q] = peak

        # (grant, tid, grant_seq) order: grant_seq is unique, so it keeps
        # same-instant grants in program order and the rest never decides
        self._rows.sort()
        return SimResult(
            config=self.cfg,
            events=[ev for ev in self.events if ev is not None],
            truth=self.truth,
            acquisition_rows=self._rows,
            crit_intervals=self.crit_intervals,
        )


def simulate(cfg: SimConfig) -> SimResult:
    """Run the bounded-buffer simulation; deterministic in (cfg, seed)."""
    cfg.validate()
    return _Simulator(cfg).run()


# ---------------------------------------------------------------------------
# replay verification


@dataclass(frozen=True)
class Discrepancy:
    kind: str  # "mismatch" or "truncation"
    tid: int
    sem: str
    truth_ns: int
    measured_ns: int
    truth_count: int
    measured_count: int


@dataclass
class ReplayReport:
    discrepancies: list
    checked: int
    anomalies: int

    @property
    def clean(self) -> bool:
        return not self.discrepancies


def _sem_from_stack(stack) -> str | None:
    for frame in stack:
        if frame.symbol and frame.symbol.startswith("wait_"):
            return frame.symbol[len("wait_"):]
    return None


def replay_check(events, truth: GroundTruth, config: AnalysisConfig = None) -> ReplayReport:
    """Run the scheduler analysis over simulated events and diff the ledger.

    Discrepancies are report content, not faults; intervals cut off by a
    truncated event stream are flagged as "truncation" rather than
    "mismatch".
    """
    timelines = build_timelines(events, config)
    waits = attribute_offcpu(timelines)
    summary = summarize_waits(waits)

    # a stream that ends before the simulated completion is truncated; all
    # of its discrepancies are degradation, not analyzer faults
    stream_truncated = (
        truth.completion_ns is not None
        and (timelines.end is None or timelines.end < truth.completion_ns)
    )

    measured = {}
    truncated_keys = set()
    for w in waits:
        if w.kind is not WaitKind.BLOCKED:
            continue
        sem = _sem_from_stack(w.stack)
        if sem is None:
            continue
        key = (w.tid, sem)
        entry = measured.setdefault(key, [0, 0])
        entry[0] += w.end - w.start
        entry[1] += 1
        if w.truncated:
            truncated_keys.add(key)

    discrepancies = []
    pending = {(tid, sem) for tid, sem, _ in truth.pending}
    for key in sorted(set(truth.blocked) | set(measured)):
        truth_ns, truth_count = truth.blocked.get(key, (0, 0))
        measured_ns, measured_count = measured.get(key, (0, 0))
        if truth_ns == measured_ns and truth_count == measured_count:
            continue
        truncation = stream_truncated or key in truncated_keys or key in pending
        discrepancies.append(Discrepancy(
            kind="truncation" if truncation else "mismatch", tid=key[0], sem=key[1],
            truth_ns=truth_ns, measured_ns=measured_ns,
            truth_count=truth_count, measured_count=measured_count,
        ))

    # internal consistency: per-stack totals must re-add to the same number
    sem_total = sum(ns for ns, _ in measured.values())
    stack_total = sum(
        ns for sig, (ns, _) in summary.by_stack.items() if "wait_" in sig
    )
    if sem_total != stack_total:
        discrepancies.append(Discrepancy(
            kind="mismatch", tid=0, sem="(summary)",
            truth_ns=stack_total, measured_ns=sem_total,
            truth_count=0, measured_count=0,
        ))

    checked = len(set(truth.blocked) | set(measured))
    return ReplayReport(discrepancies=discrepancies, checked=checked,
                        anomalies=timelines.anomalies)


def seconds_to_ns(value) -> int:
    """Exact seconds-to-nanoseconds for config plumbing ("0.001" -> 1000000)."""
    ns = Fraction(value) * 10**9
    if ns.denominator != 1:
        raise ConfigError(f"{value!r} is not representable in nanoseconds")
    return int(ns)
