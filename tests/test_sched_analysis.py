import random

from latprof.sched_analysis import (
    AnalysisConfig,
    ThreadState,
    attribute_offcpu,
    build_timelines,
    canonical_sort,
    classify_wait,
    summarize_waits,
)
from latprof.trace_model import (
    Frame,
    TraceEvent,
    WaitKind,
    WaitReason,
    parse_ns,
)


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


def states(timeline):
    return [(iv.start, iv.end, iv.state) for iv in timeline.intervals]


def test_sleep_wake_run_cycle():
    # hand state-machine trace from the switch/wakeup pairing rules
    events = [
        switch(1.0, 7, "S", 0),
        wakeup(3.0, 7),
        switch(3.5, 0, "R", 7),
    ]
    tls = build_timelines(events)
    t = tls.by_tid[7]
    assert states(t) == [
        (1_000_000_000, 3_000_000_000, ThreadState.SLEEPING),
        (3_000_000_000, 3_500_000_000, ThreadState.RUNNABLE),
        (3_500_000_000, 3_500_000_000, ThreadState.RUNNING),
    ]
    assert t.intervals[-1].truncated


def test_unknown_only_timeline():
    events = [
        TraceEvent("app", 5, 5, 0, parse_ns("1.0"), "cpu-clock"),
        TraceEvent("app", 5, 5, 0, parse_ns("2.0"), "cpu-clock"),
    ]
    tls = build_timelines(events)
    t = tls.by_tid[5]
    assert states(t) == [(1_000_000_000, 2_000_000_000, ThreadState.UNKNOWN)]


def test_preemption_runnable_interval():
    events = [
        switch(1.0, 0, "R", 9),
        switch(2.0, 9, "R", 0),
        switch(2.25, 0, "R", 9),
    ]
    t = build_timelines(events).by_tid[9]
    assert (2_000_000_000, 2_250_000_000, ThreadState.RUNNABLE) in states(t)


def test_wakeup_of_running_thread_is_anomaly():
    events = [
        switch(1.0, 0, "R", 3),
        wakeup(2.0, 3),  # contradictory: already running
        switch(3.0, 3, "S", 0),
    ]
    tls = build_timelines(events)
    assert tls.anomalies == 1
    assert (1_000_000_000, 3_000_000_000, ThreadState.RUNNING) in states(tls.by_tid[3])


def test_first_sighting_opens_unknown_from_origin():
    events = [
        switch(1.0, 4, "S", 0),   # origin; tid 4 sighted immediately
        switch(5.0, 8, "S", 0),   # tid 8 first sighted mid-trace
    ]
    tls = build_timelines(events)
    assert states(tls.by_tid[8])[0] == (1_000_000_000, 5_000_000_000, ThreadState.UNKNOWN)


def test_idle_tid_zero_not_tracked():
    tls = build_timelines([switch(1.0, 6, "S", 0), wakeup(2.0, 6)])
    assert 0 not in tls.by_tid


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
        tls = build_timelines(events)
        window = tls.end - tls.origin
        for tid, timeline in tls.by_tid.items():
            assert timeline.total_ns() == window
            # intervals abut and are sorted
            for a, b in zip(timeline.intervals, timeline.intervals[1:]):
                assert a.end == b.start


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
        tls = build_timelines(events)
        waits = attribute_offcpu(tls)
        expected = sum(
            iv.end - iv.start
            for tl in tls.by_tid.values()
            for iv in tl.intervals
            if iv.state in (ThreadState.SLEEPING, ThreadState.RUNNABLE)
        )
        n_expected = sum(
            1
            for tl in tls.by_tid.values()
            for iv in tl.intervals
            if iv.state in (ThreadState.SLEEPING, ThreadState.RUNNABLE)
        )
        assert len(waits) == n_expected
        assert summarize_waits(waits).total_ns() == expected


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
    reference = summarize_waits(attribute_offcpu(build_timelines(base)))
    assert {reason for _, reason in reference.by_tid_reason} == {
        WaitReason.NETWORK, WaitReason.TIMER, WaitReason.BLOCK_IO,
        WaitReason.SCHEDULER_DELAY}
    rng = random.Random(41)
    for _ in range(20):
        shuffled = base[:]
        rng.shuffle(shuffled)
        summary = summarize_waits(attribute_offcpu(build_timelines(shuffled)))
        assert summary.by_tid_reason == reference.by_tid_reason
        assert summary.histogram == reference.histogram


def test_attribute_lock_stack():
    lock_stack = (Frame(symbol="futex_wait", dso="[kernel]"),
                  Frame(symbol="main", dso="app"))
    events = [switch(1.0, 2, "S", 0, stack=lock_stack), wakeup(2.0, 2)]
    waits = attribute_offcpu(build_timelines(events))
    blocked = [w for w in waits if w.kind is WaitKind.BLOCKED]
    assert blocked[0].reason is WaitReason.LOCK
    assert blocked[0].stack == lock_stack


def test_attribute_runnable_is_scheduler_delay():
    events = [switch(1.0, 2, "R", 0), switch(2.0, 0, "R", 2)]
    waits = attribute_offcpu(build_timelines(events))
    runnable = [w for w in waits if w.kind is WaitKind.RUNNABLE]
    assert runnable and all(w.reason is WaitReason.SCHEDULER_DELAY for w in runnable)


def test_attribute_block_event_within_window():
    block_ev = TraceEvent("app", 2, 2, 0, parse_ns("0.9995"),
                          "block:block_rq_issue")
    events = [block_ev, switch(1.0, 2, "D", 0), wakeup(2.0, 2)]
    waits = attribute_offcpu(build_timelines(events))
    blocked = [w for w in waits if w.kind is WaitKind.BLOCKED and w.tid == 2]
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
    waits = [w for w in attribute_offcpu(build_timelines(events))
             if w.kind is WaitKind.BLOCKED]
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
            tls = build_timelines(events, AnalysisConfig(lookback_ns=lookback_ns))
            for w in attribute_offcpu(tls):
                if w.kind is not WaitKind.BLOCKED:
                    continue
                assert w.reason is _reference_reason(ordered, w.tid, w.start,
                                                     lookback_ns)
                checked += 1
    assert checked > 1000


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


# --- summarize_waits ---


def make_wait(tid, start_ns, end_ns, reason=WaitReason.LOCK,
              kind=WaitKind.BLOCKED, stack=()):
    return_reason = WaitReason.SCHEDULER_DELAY if kind is WaitKind.RUNNABLE else reason
    from latprof.trace_model import WaitInterval
    return WaitInterval(tid, start_ns, end_ns, kind,
                        return_reason, stack)


def test_summary_empty():
    s = summarize_waits([])
    assert s.by_tid_reason == {} and s.histogram == {}


def test_summary_totals_add():
    waits = [make_wait(5, 0, 1_000_000), make_wait(5, 10_000_000, 13_000_000)]
    s = summarize_waits(waits)
    assert s.by_tid_reason[(5, WaitReason.LOCK)] == 4_000_000
    assert s.by_tid_reason[(5, WaitReason.LOCK)] / 10**9 == 0.004


def test_summary_log2_buckets():
    # oracle: floor(log2(d_us)); 3us -> k=1 in [2,4), 5us -> k=2 in [4,8)
    waits = [make_wait(1, 0, 3_000), make_wait(1, 10_000, 15_000)]
    s = summarize_waits(waits)
    assert s.histogram == {1: 1, 2: 1}


def test_summary_log2_bucket_boundaries():
    import math
    rng = random.Random(3)
    for _ in range(500):
        ns = rng.randint(1, 10**10)
        (bucket,) = summarize_waits([make_wait(1, 0, ns)]).histogram
        assert bucket == math.floor(math.log2(ns / 1000))
