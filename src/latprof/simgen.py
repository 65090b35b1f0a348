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

The run is a stream: `simulate_events` yields the events in time order,
passing on each virtual instant's once the clock has moved past it (in
blocks of a few hundred events).  That is safe because the event heap
pops times that never decrease, and the one retraction (a switch-out
whose grant arrives at its own block instant) happens within that
instant.  Buffer occupancy is checked as the run goes, and lock
acquisitions are kept only when asked for, so a run's memory does not
grow with its length.

Lock acquisitions are recorded against two lock ids per queue: the buffer
slot pool (held from the empty/full WAIT grant until the complementary
SIGNAL) and the mutex.  Under the default wait order both thread kinds
nest slot-then-mutex; the deadlock-prone variant (--inverted-wait-order)
makes producers take the mutex first, which is a classic lock-order
inversion against the consumers.  It shows up as a cycle in the
lock-order graph only when both nestings were granted before the run
wedged: the requests that wedge are never granted, so they are never
acquisition rows.

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

from .lock_analysis import LockAcquisition
from .sched_analysis import SchedWalk, ThreadState, canonical_stream
from .trace_model import Frame, TraceEvent

_MASK64 = (1 << 64) - 1
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
MAX_SIM_NS = 3_600_000_000_000  # a run stops, timed out, past this virtual time
# a run passes its events on once this many have gathered, at the end of an
# instant: drawn in blocks, they are consumed faster than one at a time
_BLOCK_EVENTS = 256


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
    `last_event_ns` is the timestamp of the run's last emitted event (None
    for no events); it is not part of `to_json`.
    """

    blocked: dict = field(default_factory=dict)
    pending: list = field(default_factory=list)  # (tid, sem_id, since_ns)
    max_occupancy: dict = field(default_factory=dict)  # queue -> max items seen
    completion_ns: int | None = None
    deadlocked: bool = False
    timed_out: bool = False
    produced: int = 0
    consumed: int = 0
    last_event_ns: int | None = None

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


def lock_acquisitions(rows) -> list:
    """The `LockAcquisition` of each acquisition row, in row order."""
    return [
        LockAcquisition(tid=tid, lock_id=lock, request_ts=request,
                        grant_ts=grant, release_ts=release)
        for grant, tid, _, lock, request, release in rows
    ]


class _Semaphore:
    def __init__(self, sem_id: str, count: int, lock_id: int):
        self.sem_id = sem_id
        self.count = count
        self.lock_id = lock_id  # the lock a WAIT acquires and a SIGNAL releases
        self.waiters = deque()  # the blocked threads, in arrival order


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
        self.blocked_sem = None  # the _Semaphore it is blocked on
        self.block_event_index = None  # of its switch-out, in the pending events
        self.open_locks = {}  # lock_id -> (request_ns, grant_ns or None, grant_seq)
        # the payloads of the events about this thread, shared by them all
        self.switch_out_args = {
            "prev_comm": comm, "prev_pid": str(tid), "prev_prio": "120",
            "prev_state": "S", "next_comm": "swapper", "next_pid": "0",
            "next_prio": "120",
        }
        self.switch_in_args = {
            "prev_comm": "swapper", "prev_pid": "0", "prev_prio": "120",
            "prev_state": "R", "next_comm": comm, "next_pid": str(tid),
            "next_prio": "120",
        }
        self.wakeup_args = {"comm": comm, "pid": str(tid), "prio": "120",
                            "target_cpu": str(self.cpu)}


class _Simulator:
    """One run.  `run()` is the generator of its events; `truth` and
    `rows` (when given) fill in as it goes and are complete at its end."""

    def __init__(self, cfg: SimConfig, truth: GroundTruth = None, rows=None):
        self.cfg = cfg
        self.truth = truth if truth is not None else GroundTruth()
        # (grant_ns, tid, grant_seq, lock_id, request_ns, release_ns), or
        # None to check each acquisition without keeping it
        self.rows = rows
        # events not yet passed on: whole instants up to the current one;
        # a retracted one is None
        self.pending = []
        self.occupancy = {q: 0 for q in range(cfg.queues)}
        self.truth.max_occupancy = {q: 0 for q in range(cfg.queues)}
        self.clock = 0
        self.heap = []
        self.seq = 0
        self.grant_seq = 0
        self._symbols = {}
        self._stacks = {}  # (sem_id, role) -> stack tuple shared by switch-outs

        # signaling mutex releases the mutex; signaling full/empty releases
        # the signaler's slot-pool unit
        self.sems = {}
        for q in range(cfg.queues):
            self.sems[("empty", q)] = _Semaphore(f"empty_q{q}", cfg.capacity,
                                                 slots_lock_id(q))
            self.sems[("full", q)] = _Semaphore(f"full_q{q}", 0, slots_lock_id(q))
            self.sems[("mutex", q)] = _Semaphore(f"mutex_q{q}", 1, mutex_lock_id(q))

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

    # -- event emission (events are built positionally: a keyword call
    # costs 1.6-2x as much)

    def _emit_switch_out(self, thread: _Thread, now: int, sem_id: str):
        thread.block_event_index = len(self.pending)
        self.pending.append(TraceEvent(
            thread.comm, thread.tid, thread.tid, thread.cpu, now,
            "sched:sched_switch", thread.switch_out_args, 1,
            self._wait_stack(sem_id, thread.role),
        ))

    def _emit_switch_in(self, thread: _Thread, now: int):
        self.pending.append(TraceEvent(
            thread.comm, thread.tid, thread.tid, thread.cpu, now,
            "sched:sched_switch", thread.switch_in_args,
        ))

    def _emit_wakeup(self, waker: _Thread, woken: _Thread, now: int):
        self.pending.append(TraceEvent(
            waker.comm, waker.tid, waker.tid, waker.cpu, now,
            "sched:sched_wakeup", woken.wakeup_args,
        ))

    def _pending_events(self) -> list:
        """The pending events, minus the retracted ones; none are left
        pending."""
        events = [ev for ev in self.pending if ev is not None]
        self.pending = []
        if events:
            self.truth.last_event_ns = events[-1].ts
        return events

    # -- lock acquisition bookkeeping

    def _grant_lock(self, thread: _Thread, lock: int, request: int, now: int):
        self.grant_seq += 1
        thread.open_locks[lock] = (request, now, self.grant_seq)

    def _record_acquisition(self, tid, lock, request, grant, seq, release):
        # the invariant LockAcquisition enforces, checked on plain ints
        if not 0 <= request <= grant <= release:
            raise AssertionError(
                f"lock {lock} tid {tid}: request {request}, grant {grant},"
                f" release {release} out of order")
        if self.rows is not None:
            self.rows.append((grant, tid, seq, lock, request, release))

    # -- buffer occupancy, checked as the run goes

    def _change_occupancy(self, q: int, delta: int):
        """Add `delta` (+1 or -1) to queue `q`'s occupancy as a critical
        section starts.  The queue's mutex keeps its sections apart, so no
        other change to `q` falls between a section's start and its end."""
        occupancy = self.occupancy[q] = self.occupancy[q] + delta
        capacity = self.cfg.capacity
        if not 0 <= occupancy <= capacity:
            raise AssertionError(f"occupancy {occupancy} out of [0, {capacity}]")
        peaks = self.truth.max_occupancy
        if occupancy > peaks[q]:
            peaks[q] = occupancy

    # -- thread programs

    def _producer(self, thread: _Thread):
        cfg = self.cfg
        q = thread.queue
        empty, full, mutex = (self.sems[kind, q] for kind in ("empty", "full", "mutex"))
        first, second = (mutex, empty) if cfg.inverted_wait_order else (empty, mutex)
        for _ in range(cfg.items_per_producer):
            yield ("compute", self._draw(thread, cfg.produce_ns))
            yield ("wait", first)
            yield ("wait", second)
            yield ("crit", q, self._draw(thread, cfg.critical_ns), 1)
            yield ("signal", mutex)
            yield ("signal", full)

    def _consumer(self, thread: _Thread):
        cfg = self.cfg
        q = thread.queue
        empty, full, mutex = (self.sems[kind, q] for kind in ("empty", "full", "mutex"))
        while self.to_claim[q] > 0:
            self.to_claim[q] -= 1
            yield ("compute", self._draw(thread, cfg.consume_ns))
            yield ("wait", full)
            yield ("wait", mutex)
            yield ("crit", q, self._draw(thread, cfg.critical_ns), -1)
            yield ("signal", mutex)
            yield ("signal", empty)

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
                _, q, dur, delta = action  # delta: +1 adds an item, -1 removes one
                self._change_occupancy(q, delta)
                if delta > 0:
                    self.truth.produced += 1
                else:
                    self.truth.consumed += 1
                self._schedule(now + dur, thread.tid)
                return
            sem = action[1]
            if kind == "wait":
                if sem.count > 0:
                    sem.count -= 1
                    self._grant_lock(thread, sem.lock_id, now, now)
                    continue
                thread.open_locks[sem.lock_id] = (now, None, None)
                sem.waiters.append(thread)
                thread.blocked_since = now
                thread.blocked_sem = sem
                self._emit_switch_out(thread, now, sem.sem_id)
                return
            if kind == "signal":
                request, grant, seq = thread.open_locks.pop(sem.lock_id)
                self._record_acquisition(thread.tid, sem.lock_id, request, grant, seq,
                                         now)
                if sem.waiters:
                    woken = sem.waiters.popleft()
                    blocked_ns = now - woken.blocked_since
                    self._grant_lock(woken, sem.lock_id, woken.blocked_since, now)
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
                        self.pending[woken.block_event_index] = None
                    woken.blocked_since = None
                    woken.blocked_sem = None
                    woken.block_event_index = None
                    self._schedule(now, woken.tid)
                else:
                    sem.count += 1
                continue
            raise AssertionError(f"unknown action {action!r}")

    def run(self):
        """Yield the run's events in time order, each instant's once the
        clock has moved past it and a block of events has gathered."""
        for tid, thread in sorted(self.threads.items()):
            thread.gen = (self._producer(thread) if thread.role == "producer"
                          else self._consumer(thread))
            self._emit_switch_in(thread, 0)
            self._schedule(0, tid)

        heap, threads = self.heap, self.threads
        while heap:
            now, tid, _ = heapq.heappop(heap)
            if now > MAX_SIM_NS:
                self.truth.timed_out = True
                break
            if now > self.clock:
                if len(self.pending) >= _BLOCK_EVENTS:
                    yield from self._pending_events()
                self.clock = now
            self._advance(threads[tid], now)
        yield from self._pending_events()

        finished = all(t.finished for t in self.threads.values())
        if finished:
            self.truth.completion_ns = self.clock
        elif not self.truth.timed_out:
            self.truth.deadlocked = True
        for thread in self.threads.values():
            if thread.blocked_since is not None:
                self.truth.pending.append(
                    (thread.tid, thread.blocked_sem.sem_id, thread.blocked_since))
            for lock, (request, grant, seq) in sorted(thread.open_locks.items()):
                if grant is not None:
                    # granted but never released (wedged in a deadlock):
                    # close at the stop time so the record stays representable
                    self._record_acquisition(thread.tid, lock, request, grant, seq,
                                             max(self.clock, grant))
        if self.rows is not None:
            # (grant, tid, grant_seq) order: grant_seq is unique, so it keeps
            # same-instant grants in program order and the rest never decides
            self.rows.sort()


def simulate_events(cfg: SimConfig, truth: GroundTruth, acquisition_rows=None):
    """The events of the bounded-buffer simulation, as a generator that
    holds only the instants not yet passed on; deterministic in (cfg, seed).

    The config is checked at once.  `truth`, a fresh `GroundTruth`, is
    filled in as the events are drawn and is complete only once they are
    exhausted; so is `acquisition_rows`, when it is a list, which then
    holds each lock acquisition as an int tuple (grant_ns, tid, grant_seq,
    lock_id, request_ns, release_ns), sorted; `lock_acquisitions` builds
    their `LockAcquisition`s.  Events share read-only stacks and `args`.
    """
    cfg.validate()
    return _Simulator(cfg, truth, acquisition_rows).run()


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


def replay_check(events, truth: GroundTruth) -> ReplayReport:
    """Run the scheduler analysis over simulated events and diff the ledger.

    One walk, no list and no sort: `events`, any iterable in time order as
    the simulator emits it (`simulate_events` itself, or a prefix of
    its events), pass through `canonical_stream`, which orders
    each equal-timestamp group as `canonical_sort` would, into a
    `SchedWalk`.  Its sink adds every interval to the walk's wait summary
    and each Sleeping interval at a `wait_*` site to the measured ledger.
    `truth` is read only once the events are exhausted, since
    `simulate_events` fills it in as it runs.  Discrepancies are report
    content, not faults; those of a stream that ends before the run's last
    event, of an interval cut off by the stream's end and of a block still
    pending at a deadlock are flagged as "truncation" rather than
    "mismatch".
    """
    measured = {}  # (tid, sem) -> [ns, count]
    truncated_keys = set()

    def sink(tid, start, end, state, stack, reason, truncated):
        summary.add(tid, start, end, state, stack, reason, truncated)
        if state is not ThreadState.SLEEPING:
            return
        sem = _sem_from_stack(stack)
        if sem is None:
            return
        key = (tid, sem)
        entry = measured.setdefault(key, [0, 0])
        entry[0] += end - start
        entry[1] += 1
        if truncated:
            truncated_keys.add(key)

    walk = SchedWalk(sink=sink)
    summary = walk.summary
    for ev in canonical_stream([events]):
        walk.add(ev)
    walk.finish()

    # a stream that ends before the run's last event is truncated; all of
    # its discrepancies are degradation, not analyzer faults
    stream_truncated = (
        truth.last_event_ns is not None
        and (walk.end is None or walk.end < truth.last_event_ns)
    )

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
                        anomalies=walk.anomalies)


def seconds_to_ns(value) -> int:
    """Exact seconds-to-nanoseconds for config plumbing ("0.001" -> 1000000)."""
    ns = Fraction(value) * 10**9
    if ns.denominator != 1:
        raise ConfigError(f"{value!r} is not representable in nanoseconds")
    return int(ns)
