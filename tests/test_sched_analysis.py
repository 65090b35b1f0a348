import random
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latprof import sched_analysis
from latprof.parsers import perf_events
from latprof.sched_analysis import (
    DEFAULT_LOCK_SYMBOLS,
    AnalysisConfig,
    OutOfOrder,
    ThreadState,
    WaitSummary,
    canonical_sort,
    canonical_stream,
    classify_wait,
)
from latprof.trace_model import (
    Frame,
    TraceEvent,
    WaitReason,
    parse_ns,
)

from intervals import walk_intervals


def switch(ts, prev_pid, prev_state, next_pid, cpu=0, stack=(), prev_comm="t",
           next_comm="t"):
    args = {
        "prev_comm": prev_comm, "prev_pid": str(prev_pid), "prev_prio": "120",
        "prev_state": prev_state,
        "next_comm": next_comm, "next_pid": str(next_pid), "next_prio": "120",
    }
    header_tid = prev_pid if prev_pid > 0 else next_pid
    return TraceEvent(prev_comm if prev_pid > 0 else next_comm,
                      header_tid, header_tid, cpu, parse_ns(str(ts)),
                      "sched:sched_switch", args=args, stack=tuple(stack))


def wakeup(ts, pid, cpu=0, waker_tid=99, comm="t"):
    return TraceEvent("waker", waker_tid, waker_tid, cpu, parse_ns(str(ts)),
                      "sched:sched_wakeup",
                      args={"comm": comm, "pid": str(pid), "prio": "120"})


def syscall(ts, tid, name, kind="enter"):
    return TraceEvent("app", tid, tid, 0, parse_ns(str(ts)),
                      f"syscalls:sys_{kind}_{name}")


def traced(ts, tid, event):
    return TraceEvent("app", tid, tid, 0, parse_ns(str(ts)), event)


def states(intervals):
    return [(iv.start, iv.end, iv.state) for iv in intervals]


def intervals_in(by_tid, state):
    """(tid, interval) of every `state` interval, in tid order."""
    return [(tid, iv) for tid in sorted(by_tid)
            for iv in by_tid[tid] if iv.state is state]


def test_sleep_wake_run_cycle():
    # hand state-machine trace from the switch/wakeup pairing rules
    events = [
        switch(1.0, 7, "S", 0),
        wakeup(3.0, 7),
        switch(3.5, 0, "R", 7),
    ]
    _, by_tid = walk_intervals(events)
    assert states(by_tid[7]) == [
        (1_000_000_000, 3_000_000_000, ThreadState.SLEEPING),
        (3_000_000_000, 3_500_000_000, ThreadState.RUNNABLE),
        (3_500_000_000, 3_500_000_000, ThreadState.RUNNING),
    ]
    assert by_tid[7][-1].truncated


def test_unknown_only_timeline():
    events = [
        TraceEvent("app", 5, 5, 0, parse_ns("1.0"), "cpu-clock"),
        TraceEvent("app", 5, 5, 0, parse_ns("2.0"), "cpu-clock"),
    ]
    _, by_tid = walk_intervals(events)
    assert states(by_tid[5]) == [(1_000_000_000, 2_000_000_000, ThreadState.UNKNOWN)]


def test_preemption_runnable_interval():
    events = [
        switch(1.0, 0, "R", 9),
        switch(2.0, 9, "R", 0),
        switch(2.25, 0, "R", 9),
    ]
    _, by_tid = walk_intervals(events)
    assert (2_000_000_000, 2_250_000_000, ThreadState.RUNNABLE) in states(by_tid[9])


def test_wakeup_of_running_thread_is_anomaly():
    events = [
        switch(1.0, 0, "R", 3),
        wakeup(2.0, 3),  # contradictory: already running
        switch(3.0, 3, "S", 0),
    ]
    walk, by_tid = walk_intervals(events)
    assert walk.anomalies == 1
    assert (1_000_000_000, 3_000_000_000, ThreadState.RUNNING) in states(by_tid[3])


def test_first_sighting_opens_unknown_from_origin():
    events = [
        switch(1.0, 4, "S", 0),   # origin; tid 4 sighted immediately
        switch(5.0, 8, "S", 0),   # tid 8 first sighted mid-trace
    ]
    _, by_tid = walk_intervals(events)
    assert states(by_tid[8])[0] == (1_000_000_000, 5_000_000_000, ThreadState.UNKNOWN)


def test_idle_tid_zero_not_tracked():
    _, by_tid = walk_intervals([switch(1.0, 6, "S", 0), wakeup(2.0, 6)])
    assert 0 not in by_tid


def test_timeline_conservation_random_streams():
    rng = random.Random(17)
    for _ in range(200):
        events = []
        t = 0
        for _ in range(rng.randint(1, 60)):
            t += rng.randint(0, 10**6)
            tid = rng.randint(1, 4)
            kind = rng.random()
            if kind < 0.45:
                events.append(TraceEvent("a", tid, tid, rng.randint(0, 1), t,
                                         "sched:sched_switch",
                                         args={"prev_pid": str(tid),
                                               "prev_state": rng.choice(["S", "D", "R", "Wq"]),
                                               "next_pid": str(rng.randint(0, 4))}))
            elif kind < 0.8:
                events.append(TraceEvent("a", tid, tid, 0, t, "sched:sched_wakeup",
                                         args={"pid": str(rng.randint(1, 4))}))
            else:
                events.append(TraceEvent("a", tid, tid, 0, t, "cpu-clock"))
        walk, by_tid = walk_intervals(events)
        window = walk.end - walk.origin
        for intervals in by_tid.values():
            assert sum(iv.end - iv.start for iv in intervals) == window
            # intervals abut and are sorted
            for a, b in zip(intervals, intervals[1:]):
                assert a.end == b.start
            # exactly the Sleeping and Runnable intervals are waits
            for iv in intervals:
                assert 0 <= iv.start <= iv.end
                if iv.state is ThreadState.RUNNABLE:
                    assert iv.reason is WaitReason.SCHEDULER_DELAY
                elif iv.state is ThreadState.SLEEPING:
                    assert iv.reason is not None
                else:
                    assert iv.reason is None


def test_attribution_completeness_random_streams():
    rng = random.Random(29)
    for _ in range(100):
        events = []
        t = 0
        for _ in range(rng.randint(2, 50)):
            t += rng.randint(1, 10**6)
            tid = rng.randint(1, 3)
            if rng.random() < 0.5:
                events.append(switch(f"{t / 1e9:.9f}", tid, rng.choice(["S", "D", "R"]),
                                     rng.randint(0, 3)))
            else:
                events.append(wakeup(f"{t / 1e9:.9f}", tid))
        walk, by_tid = walk_intervals(events)
        waits = [iv for intervals in by_tid.values() for iv in intervals
                 if iv.state in (ThreadState.SLEEPING, ThreadState.RUNNABLE)]
        summary = walk.summary
        assert sum(count for _, count in summary.by_stack.values()) == len(waits)
        assert summary.total_ns() == sum(iv.end - iv.start for iv in waits)


def test_equal_timestamp_permutation_determinism():
    # wake and switch-in at the same instant, plus an immediate re-block;
    # syscall, block and net events share instants with the switches
    base = [
        traced(1.0, 7, "net:net_dev_xmit"),
        switch(1.0, 7, "S", 0),
        wakeup(2.0, 7),
        switch(2.0, 0, "R", 7, cpu=1),
        syscall(2.0, 7, "nanosleep"),
        switch(2.0, 7, "S", 0, cpu=1),
        wakeup(3.0, 7),
        switch(3.0, 0, "R", 7),
        syscall(3.0, 7, "nanosleep", "exit"),
        traced(4.0, 7, "block:block_rq_issue"),
        switch(4.0, 7, "S", 0),
    ]
    reference = walk_intervals(base)[0].summary
    assert {reason for _, reason in reference.by_tid_reason} == {
        WaitReason.NETWORK, WaitReason.TIMER, WaitReason.BLOCK_IO,
        WaitReason.SCHEDULER_DELAY}
    rng = random.Random(41)
    for _ in range(20):
        shuffled = base[:]
        rng.shuffle(shuffled)
        summary = walk_intervals(shuffled)[0].summary
        assert summary.by_tid_reason == reference.by_tid_reason
        assert summary.histogram == reference.histogram


def _merged_events(timestamps):
    """Events at `timestamps` on few cpus, so that equal canonical keys are
    common; a `next_pid` of "0", "00" or "x" switches out to idle."""
    return st.builds(
        lambda ts, cpu, kind: TraceEvent("t", 1, 1, cpu, ts, *kind),
        timestamps, st.integers(0, 1),
        st.one_of(
            st.sampled_from(["sched:sched_wakeup", "sched:sched_waking"]).map(
                lambda name: (name, {"pid": "5"})),
            st.sampled_from(["0", "00", "x", "5", "12"]).map(
                lambda pid: ("sched:sched_switch", {"next_pid": pid})),
            st.sampled_from(["sched:sched_process_exit", "syscalls:sys_enter_read",
                             "cpu-clock"]).map(lambda name: (name, {})),
        ))


_TIME_ORDERED_INPUTS = st.lists(
    st.lists(_merged_events(st.integers(0, 3)), max_size=12).map(
        lambda events: sorted(events, key=attrgetter("ts"))),
    min_size=1, max_size=3)


@settings(max_examples=500, deadline=None)
@given(_TIME_ORDERED_INPUTS)
def test_canonical_stream_is_canonical_sort_of_the_concatenation(inputs):
    streamed = list(canonical_stream([iter(events) for events in inputs]))
    expected = canonical_sort([ev for events in inputs for ev in events])
    assert [id(ev) for ev in streamed] == [id(ev) for ev in expected]


@settings(max_examples=200, deadline=None)
@given(_TIME_ORDERED_INPUTS, st.data())
def test_canonical_stream_raises_when_an_input_steps_back(inputs, data):
    # one input ends with an event at the last instant, then one before it
    stepped = inputs[data.draw(st.integers(0, len(inputs) - 1))]
    stepped += [data.draw(_merged_events(st.just(3))),
                data.draw(_merged_events(st.integers(0, 2)))]
    with pytest.raises(OutOfOrder):
        list(canonical_stream([iter(events) for events in inputs]))


def test_attribute_lock_stack():
    lock_stack = (Frame(symbol="futex_wait", dso="[kernel]"),
                  Frame(symbol="main", dso="app"))
    events = [switch(1.0, 2, "S", 0, stack=lock_stack), wakeup(2.0, 2)]
    (_, blocked), = intervals_in(walk_intervals(events)[1], ThreadState.SLEEPING)
    assert blocked.reason is WaitReason.LOCK
    assert blocked.stack == lock_stack


def test_attribute_runnable_is_scheduler_delay():
    events = [switch(1.0, 2, "R", 0), switch(2.0, 0, "R", 2)]
    runnable = intervals_in(walk_intervals(events)[1], ThreadState.RUNNABLE)
    assert runnable and all(iv.reason is WaitReason.SCHEDULER_DELAY
                            for _, iv in runnable)


def test_attribute_block_event_within_window():
    block_ev = TraceEvent("app", 2, 2, 0, parse_ns("0.9995"),
                          "block:block_rq_issue")
    events = [block_ev, switch(1.0, 2, "D", 0), wakeup(2.0, 2)]
    blocked = [iv for tid, iv in intervals_in(walk_intervals(events)[1],
                                              ThreadState.SLEEPING) if tid == 2]
    assert blocked[0].reason is WaitReason.BLOCK_IO


def test_pending_syscall_tracked_through_exit():
    events = [
        syscall(0.5, 2, "futex", "enter"),
        switch(1.0, 2, "S", 0),
        wakeup(1.5, 2),
        switch(1.6, 0, "R", 2),
        syscall(1.7, 2, "futex", "exit"),
        switch(2.0, 2, "S", 0),   # no pending syscall anymore
        wakeup(2.5, 2),
    ]
    waits = [iv for _, iv in intervals_in(walk_intervals(events)[1],
                                          ThreadState.SLEEPING)]
    assert waits[0].reason is WaitReason.LOCK
    assert waits[1].reason is WaitReason.UNKNOWN


def _random_correlated_stream(rng):
    """Sched, syscall, block and net events, many sharing a switch's instant.

    Each tid switches out at most once per instant, so a blocked wait's
    (tid, start) names its opening switch.
    """
    events = []
    switched_out = set()
    t = rng.randrange(0, 3 * 10**6)
    for _ in range(rng.randint(5, 40)):
        t += rng.choice([0, 0, 0, 1, 999_999, 10**6, 10**6 + 1, 4 * 10**6,
                         5 * 10**6, 6 * 10**6])
        for _ in range(rng.randint(1, 4)):
            tid = rng.randint(1, 3)
            roll = rng.random()
            if roll < 0.3 and (tid, t) not in switched_out:
                switched_out.add((tid, t))
                stack = rng.choice([(), (Frame(symbol="futex_wait"),),
                                    (Frame(symbol="main"),)])
                events.append(TraceEvent(
                    "app", tid, tid, rng.randint(0, 1), t,
                    "sched:sched_switch", stack=stack,
                    args={"prev_pid": str(tid),
                          "prev_state": rng.choice(["S", "D", "R", "Wq"]),
                          "next_pid": str(rng.choice([0, 0, rng.randint(1, 3)]))}))
            elif roll < 0.45:
                events.append(TraceEvent(
                    "app", tid, tid, 0, t, "sched:sched_wakeup",
                    args={"pid": str(rng.randint(1, 3))}))
            elif roll < 0.75:
                name = rng.choice(["futex", "read", "recvmsg", "nanosleep", "getpid"])
                kind = rng.choice(["enter", "exit"])
                events.append(TraceEvent("app", tid, tid, 0, t,
                                         f"syscalls:sys_{kind}_{name}"))
            elif roll < 0.85:
                events.append(TraceEvent("app", tid, tid, 0, t,
                                         "block:block_rq_issue"))
            else:
                events.append(TraceEvent("app", tid, tid, 0, t,
                                         rng.choice(["net:net_dev_xmit",
                                                     "sock:inet_sock_set_state",
                                                     "skb:kfree_skb"])))
    rng.shuffle(events)
    return events


def _reference_reason(ordered, tid, start_ns, lookback_ns):
    """Brute-force wait reason for the switch that took `tid` off at `start_ns`."""
    (pos,) = [
        i for i, ev in enumerate(ordered)
        if ev.event == "sched:sched_switch" and ev.args["prev_pid"] == str(tid)
        and ev.ts == start_ns
    ]
    pending = None
    for ev in ordered[:pos]:
        if ev.tid == tid and ev.event.startswith("syscalls:sys_enter_"):
            pending = ev.event[len("syscalls:sys_enter_"):]
        elif ev.tid == tid and ev.event.startswith("syscalls:sys_exit_"):
            pending = None

    def seen(classes):
        return any(
            ev.tid == tid and ev.event.split(":")[0] in classes
            and start_ns - lookback_ns <= ev.ts <= start_ns
            for ev in ordered
        )

    opening = ordered[pos]
    return classify_wait(opening.args["prev_state"], opening.stack, pending,
                         seen({"block"}), seen({"net", "sock", "skb"}))


def test_wait_reasons_match_brute_force_reference():
    rng = random.Random(59)
    checked = 0
    for _ in range(500):
        events = _random_correlated_stream(rng)
        ordered = canonical_sort(events)
        for lookback_ns in (0, 10**6, 5 * 10**6):
            _, by_tid = walk_intervals(events, AnalysisConfig(lookback_ns=lookback_ns))
            for tid, iv in intervals_in(by_tid, ThreadState.SLEEPING):
                assert iv.reason is _reference_reason(ordered, tid, iv.start,
                                                      lookback_ns)
                checked += 1
    assert checked > 1000


_SHARED_STACKS = (
    (),
    (Frame(0x400000, "sem_wait", 0x10, "libc.so"), Frame(0x400100, "main", None, "app")),
    (Frame(0x400200, "pthread_mutex_lock", None, "libc.so"),),
    (Frame(0x400300, "main", None, "app"),),
    (Frame(0x400400, None, None, None),),
    (Frame(0x400500, "my_lock", None, "app"), Frame(0x400300, "main", None, "app")),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
           st.sampled_from(["S", "D", "D+", "S+", "R", "R+", "I", "X", "W", "DK", "",
                            None]),
           st.sampled_from(range(len(_SHARED_STACKS))),
           st.sampled_from([None, "futex", "read", "recvmsg", "poll", "nanosleep",
                            "getpid"]),
           st.sampled_from([None, 0, 10**6, 10**6 + 1]),
           st.sampled_from([None, 0, 10**6, 10**6 + 1])),
       min_size=1, max_size=8),
       st.sampled_from([DEFAULT_LOCK_SYMBOLS, frozenset({"main", "my_lock"}),
                        frozenset()]))
def test_walk_records_the_reason_classify_wait_gives(cases, lock_symbols):
    """Each switch-out's recorded reason is classify_wait's for its
    prev_state, stack, pending syscall and block/net flags.  tid 1 leaves
    the cpu once per case, through switch payloads and stacks shared
    between cases, so the walk's caches are read again."""
    switch_out = {}  # prev_state -> the one args dict of its switch-outs
    switch_in = {"prev_pid": "0", "prev_state": "R", "next_pid": "1"}
    wake = {"comm": "t", "pid": "1"}
    events = []
    expected = []
    for i, (prev_state, stack_index, pending, block_age, net_age) in enumerate(cases):
        base = i * 10**7
        out_ns = base + 5 * 10**6
        events.append(TraceEvent("w", 9, 9, 0, base + 10**6, "sched:sched_wakeup",
                                 wake))
        events.append(TraceEvent("t", 0, 0, 0, base + 2 * 10**6,
                                 "sched:sched_switch", switch_in))
        kind = "exit_read" if pending is None else f"enter_{pending}"
        events.append(TraceEvent("t", 1, 1, 0, base + 3 * 10**6,
                                 f"syscalls:sys_{kind}"))
        for age, event in ((block_age, "block:block_rq_issue"),
                           (net_age, "net:net_dev_xmit")):
            if age is not None:
                events.append(TraceEvent("t", 1, 1, 0, out_ns - age, event))
        args = switch_out.get(prev_state)
        if args is None:
            args = switch_out[prev_state] = {"prev_pid": "1", "next_pid": "0"}
            if prev_state is not None:
                args["prev_state"] = prev_state
        stack = _SHARED_STACKS[stack_index]
        events.append(TraceEvent("t", 1, 1, 0, out_ns, "sched:sched_switch", args,
                                 1, stack))
        if (prev_state or "").rstrip("+") == "R":
            expected.append(WaitReason.SCHEDULER_DELAY)
        else:
            expected.append(classify_wait(
                prev_state, stack, pending,
                block_age is not None and block_age <= 10**6,
                net_age is not None and net_age <= 10**6,
                lock_symbols))
    _, by_tid = walk_intervals(events, AnalysisConfig(lock_symbols=lock_symbols))
    recorded = [iv.reason for iv in by_tid[1]
                if iv.start % 10**7 == 5 * 10**6]
    assert recorded == expected


# every sched payload shape the walk decodes: R+, an unknown prev_state
# token, a missing or non-decimal pid, pid 0
_SWITCH_PAYLOADS = [
    f"prev_comm=t{a} prev_pid={a} prev_prio=120 prev_state={state} ==> "
    f"next_comm=t{b} next_pid={b} next_prio=120"
    for a in range(4) for b in range(4) for state in ("S", "D", "R", "R+", "W")
] + [
    "prev_comm=t1 prev_state=S ==> next_comm=t2 next_pid=2",
    "prev_comm=t1 prev_pid=x1 prev_state=S ==> next_comm=t2 next_pid=2",
    "prev_comm=t3 prev_pid=3 prev_state=D ==> next_comm=t2 next_pid=2x",
    "prev_comm=t2 prev_pid=2 ==> next_comm=t1 next_pid=1",
]
_WAKEUP_PAYLOADS = [f"comm=t{a} pid={a} prio=120 target_cpu=000" for a in range(4)] + [
    "comm=t1 prio=120 target_cpu=000",
    "comm=t2 pid=-2 prio=120 target_cpu=000",
]
_STACK_LINES = [
    [],
    ["\t400000 sem_wait+0x10 (libc.so)", "\t400100 main (app)"],
    ["\t400200 pthread_mutex_lock (libc.so)"],
    ["\t400300 main (app)"],
    ["\t400400 [unknown] ([unknown])"],
]


def _trace_sharing_payloads_and_stacks(seed):
    """Perf-script text whose sched events draw from a few payloads and
    stacks.  It opens with a thread that is woken while it runs."""
    rng = random.Random(seed)
    blocks = [
        ("sched:sched_switch", _SWITCH_PAYLOADS[1], []),  # t0 -> t1 runs
        ("sched:sched_wakeup", _WAKEUP_PAYLOADS[1], []),  # wakes a running t1
    ]
    for _ in range(400):
        roll = rng.random()
        if roll < 0.55:
            blocks.append(("sched:sched_switch", rng.choice(_SWITCH_PAYLOADS),
                           rng.choice(_STACK_LINES)))
        elif roll < 0.85:
            blocks.append(("sched:sched_wakeup", rng.choice(_WAKEUP_PAYLOADS), []))
        else:
            blocks.append((rng.choice(["syscalls:sys_enter_futex",
                                       "syscalls:sys_exit_futex",
                                       "block:block_rq_issue"]), "", []))
    lines = []
    ns = 10**9
    for event, payload, frames in blocks:
        ns += rng.choice([0, 1000, 500_000, 2_000_000])
        tid = rng.randint(1, 3)
        lines.append(f"t{tid} {tid}/{tid} [000] {ns // 10**9}.{ns % 10**9:09d}: "
                     f"{event}: {payload}")
        lines.extend(frames)
        lines.append("")
    return lines


def _fresh_copy(ev):
    """`ev` with an args dict and a stack tuple of its own."""
    return TraceEvent(ev.comm, ev.pid, ev.tid, ev.cpu, ev.ts, ev.event,
                      dict(ev.args), ev.period, tuple([*ev.stack]))


def _walk_outcome(events, config, ordered=False):
    walk, by_tid = walk_intervals(events, config, ordered)
    caches = (walk._switches, walk._wakeups, walk._locked, walk.summary._signatures)
    assert max(map(len, caches)) <= sched_analysis._CACHED_OBJECTS
    return by_tid, walk.summary, walk.anomalies, walk.comms()


def test_walk_caches_change_no_answer(monkeypatch):
    """Events that share their args dicts and stacks, as one parse's do,
    walk to what events with a fresh dict and tuple each walk to, with the
    caches cleared at every entry and at their default bound.  The fresh
    copies are made as the walk reads them and dropped after, so their
    ids are reused.  Two walks with different lock symbols read one
    parse's stacks."""
    default_bound = sched_analysis._CACHED_OBJECTS
    for seed in range(3):
        errors = []
        shared = list(perf_events(_trace_sharing_payloads_and_stacks(seed), errors))
        assert not errors
        assert len({id(ev.args) for ev in shared}) < len(shared) / 4
        ordered = canonical_sort(shared)
        outcomes = {}
        for lock_symbols in (DEFAULT_LOCK_SYMBOLS, frozenset({"main"})):
            config = AnalysisConfig(lock_symbols=lock_symbols)
            runs = []
            for bound in (1, default_bound):
                monkeypatch.setattr(sched_analysis, "_CACHED_OBJECTS", bound)
                runs.append(_walk_outcome(shared, config))
                runs.append(_walk_outcome((_fresh_copy(ev) for ev in ordered),
                                          config, ordered=True))
            assert all(run == runs[0] for run in runs[1:])
            assert runs[0][2] > 0  # anomalies
            outcomes[lock_symbols] = runs[0]
        # the lock symbols change the answer, so each walk read its own
        assert outcomes[DEFAULT_LOCK_SYMBOLS][1] != outcomes[frozenset({"main"})][1]


# --- classify_wait rule table ---


def test_classify_pending_futex_is_lock():
    assert classify_wait("S", (), "futex", False, False) is WaitReason.LOCK


def test_classify_d_state_is_block_io():
    assert classify_wait("D", (), None, False, False) is WaitReason.BLOCK_IO


def test_classify_no_context_is_unknown():
    assert classify_wait(None, (), None, False, False) is WaitReason.UNKNOWN


def test_classify_rule_order():
    # lock wins over D-state; block wins over network; network over timer
    stack = (Frame(symbol="pthread_mutex_lock"),)
    assert classify_wait("D", stack, None, True, True) is WaitReason.LOCK
    assert classify_wait("D", (), "recvmsg", False, True) is WaitReason.BLOCK_IO
    assert classify_wait("S", (), "recvmsg", False, False) is WaitReason.NETWORK
    assert classify_wait("S", (), "nanosleep", False, False) is WaitReason.TIMER
    assert classify_wait("S", (), "epoll_wait", False, False) is WaitReason.NETWORK


def test_classify_custom_lock_symbols():
    stack = (Frame(symbol="my_spin_lock"),)
    assert classify_wait("S", stack, None, False, False) is WaitReason.UNKNOWN
    assert classify_wait("S", stack, None, False, False,
                         frozenset({"my_spin_lock"})) is WaitReason.LOCK


# --- WaitSummary ---


def make_wait(tid, start_ns, end_ns, reason=WaitReason.LOCK, stack=()):
    """A Sleeping interval with the given wait reason, as a walk's sink
    gets it."""
    return tid, start_ns, end_ns, ThreadState.SLEEPING, stack, reason, False


def summarize(waits):
    summary = WaitSummary()
    for wait in waits:
        summary.add(*wait)
    return summary


def test_summary_empty():
    s = WaitSummary()
    assert s.by_tid_reason == {} and s.histogram == {}


def test_summary_totals_add():
    waits = [make_wait(5, 0, 1_000_000), make_wait(5, 10_000_000, 13_000_000)]
    s = summarize(waits)
    assert s.by_tid_reason[(5, WaitReason.LOCK)] == 4_000_000
    assert s.by_tid_reason[(5, WaitReason.LOCK)] / 10**9 == 0.004


def test_summary_log2_buckets():
    # oracle: floor(log2(d_us)); 3us -> k=1 in [2,4), 5us -> k=2 in [4,8)
    waits = [make_wait(1, 0, 3_000), make_wait(1, 10_000, 15_000)]
    s = summarize(waits)
    assert s.histogram == {1: 1, 2: 1}


def test_summary_log2_bucket_boundaries():
    import math
    rng = random.Random(3)
    for _ in range(500):
        ns = rng.randint(1, 10**10)
        (bucket,) = summarize([make_wait(1, 0, ns)]).histogram
        assert bucket == math.floor(math.log2(ns / 1000))
