import dataclasses
import hashlib
import itertools
import random
import sys

import pytest

from latprof import simgen
from latprof.export import PerfScriptWriter
from latprof.graph_core import detect_cycles
from latprof.lock_analysis import (
    LockAcquisition,
    build_lock_order_graph,
    write_acquisitions_csv,
)
from latprof.simgen import (
    ConfigError,
    Discrepancy,
    GroundTruth,
    SimConfig,
    SplitMix64,
    _Simulator,
    lock_acquisitions,
    mutex_lock_id,
    replay_check,
    seconds_to_ns,
    simulate_events,
    slots_lock_id,
)

from folds import written
from simruns import whole_run

SEC = 10**9
MS = 10**6


def small_cfg(**kw):
    base = dict(producers=1, consumers=1, capacity=1, items_per_producer=2,
                produce_ns=1 * SEC, consume_ns=3 * SEC, critical_ns=SEC // 10,
                seed=0, jitter=0.0)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(consumers=0).validate()
    with pytest.raises(ConfigError):
        small_cfg(produce_ns=0).validate()
    with pytest.raises(ConfigError):
        small_cfg(jitter=1.5).validate()
    with pytest.raises(ConfigError):
        small_cfg(queues=3).validate()  # more queues than threads per side
    small_cfg().validate()


def test_seconds_to_ns_exact():
    assert seconds_to_ns("0.001") == 1_000_000
    assert seconds_to_ns(2) == 2 * SEC
    with pytest.raises(ConfigError):
        seconds_to_ns("0.0000000001")  # below ns resolution


def test_splitmix64_reference_stream():
    # reference values for seed 0 (first outputs of splitmix64)
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert all(-1.0 <= SplitMix64(7).uniform_pm1() <= 1.0 for _ in range(100))


def test_golden_hand_traced_run():
    # hand event-trace enumeration, done before implementation:
    # P computes [0,1]; C computes [0,3].
    # t=1:   P takes empty and mutex, crit [1,1.1], signals -> buffer full
    # t=2.1: P (second item) blocks on empty, holding nothing
    # t=3:   C takes full and mutex, crit [3,3.1], SIGNAL(empty) at 3.1
    #        wakes P: P blocked on empty exactly once, for 1.0 s
    # P finishes its second item at 3.2; C consumes it [6.1,6.2]; done 6.2
    events, truth, rows = whole_run(small_cfg())
    assert truth.blocked == {(1, "empty_q0"): [1 * SEC, 1]}
    assert truth.completion_ns == 6_200_000_000
    assert truth.deadlocked is False
    assert truth.produced == truth.consumed == 2
    assert truth.max_occupancy == {0: 1}
    assert truth.pending == []

    # events: 2 initial switch-ins, P's block switch-out, wakeup + switch-in
    kinds = [(ev.event_name, ev.ts) for ev in events]
    assert kinds == [
        ("sched_switch", 0),
        ("sched_switch", 0),
        ("sched_switch", 2_100_000_000),
        ("sched_wakeup", 3_100_000_000),
        ("sched_switch", 3_100_000_000),
    ]
    out = events[2]
    assert out.args["prev_state"] == "S"
    assert [f.symbol for f in out.stack] == [
        "sem_wait", "wait_empty_q0", "producer_loop", "main"]
    assert all(f.dso == "simgen" for f in out.stack)

    # 8 acquisitions: 2 per iteration per thread (slot pool + mutex)
    acquisitions = lock_acquisitions(rows)
    assert len(acquisitions) == 8
    slots, mutex = slots_lock_id(0), mutex_lock_id(0)
    p_iter2 = [a for a in acquisitions
               if a.tid == 1 and a.lock_id == slots and a.request_ts == 2_100_000_000]
    assert len(p_iter2) == 1 and p_iter2[0].grant_ts == 3_100_000_000


def test_blocked_initial_consumer_never_blocks_producer_on_empty():
    # capacity >= total items: empty never exhausts
    _, truth, _ = whole_run(small_cfg(capacity=5, items_per_producer=2))
    assert all(sem != "empty_q0" for (_, sem) in truth.blocked)


def test_determinism_bit_identical():
    cfg = small_cfg(producers=2, consumers=2, capacity=2, items_per_producer=5,
                    jitter=0.2, seed=1234)
    assert whole_run(cfg) == whole_run(cfg)


def test_conservation_and_mutual_exclusion_random():
    rng = random.Random(61)
    for _ in range(30):
        cfg = SimConfig(
            producers=rng.randint(1, 3), consumers=rng.randint(1, 3),
            capacity=rng.randint(1, 4), items_per_producer=rng.randint(1, 10),
            produce_ns=rng.randint(1, 50) * MS, consume_ns=rng.randint(1, 50) * MS,
            critical_ns=rng.randint(1, 5) * MS,
            seed=rng.getrandbits(64), jitter=rng.choice([0.0, 0.2]),
        )
        _, truth, rows = whole_run(cfg)
        assert truth.deadlocked is False
        assert truth.produced == truth.consumed == \
            cfg.producers * cfg.items_per_producer
        # each critical section runs inside one hold of its queue's mutex,
        # from grant to release, and those holds never overlap
        holds = [(grant, release) for grant, _, _, lock, _, release in rows
                 if lock == mutex_lock_id(0)]
        assert len(holds) == truth.produced + truth.consumed
        for (_, e1), (s2, _) in zip(holds, holds[1:]):
            assert e1 <= s2
        assert 0 <= truth.max_occupancy[0] <= cfg.capacity


def test_replay_check_clean_on_simulated_trace():
    truth = GroundTruth()
    report = replay_check(simulate_events(
        small_cfg(producers=2, consumers=2, capacity=2, items_per_producer=8,
                  jitter=0.2, seed=99), truth), truth)
    assert report.clean, report.discrepancies
    assert report.anomalies == 0


def test_replay_check_flags_truncation():
    events, truth, _ = whole_run(small_cfg(producers=2, consumers=2, capacity=1,
                                           items_per_producer=10, seed=3))
    cut = events[: max(1, len(events) * 9 // 10)]
    report = replay_check(cut, truth)
    assert report.discrepancies, "dropping events must surface discrepancies"
    assert all(d.kind == "truncation" for d in report.discrepancies)


def test_replay_check_empty():
    report = replay_check([], GroundTruth())
    assert report.clean and report.checked == 0


def test_queue_round_robin_assignment():
    _, truth, _ = whole_run(small_cfg(producers=2, consumers=2, queues=2,
                                      capacity=1, items_per_producer=3))
    assert truth.produced == 6
    assert set(truth.max_occupancy) == {0, 1}


def test_default_order_never_deadlocks_100_seeds():
    for seed in range(100):
        _, truth, _ = whole_run(small_cfg(producers=2, consumers=2, capacity=1,
                                          items_per_producer=3, produce_ns=1 * MS,
                                          consume_ns=MS // 10, critical_ns=MS // 10,
                                          jitter=0.2, seed=seed))
        assert truth.deadlocked is False
        assert truth.completion_ns is not None


def test_inverted_order_deadlocks_and_shows_cycle():
    deadlocked = []
    cycles_found = []
    for seed in range(100):
        _, truth, rows = whole_run(small_cfg(producers=2, consumers=2, capacity=1,
                                             items_per_producer=20, produce_ns=1 * MS,
                                             consume_ns=MS // 10, critical_ns=MS // 10,
                                             jitter=0.2, seed=seed,
                                             inverted_wait_order=True))
        if truth.deadlocked:
            deadlocked.append(seed)
            if detect_cycles(build_lock_order_graph(lock_acquisitions(rows))):
                cycles_found.append(seed)
    assert deadlocked, "no seed deadlocked"
    assert cycles_found, "no deadlocked stream produced a lock-order cycle"


def test_inverted_order_acquisitions_cross_nest():
    # any inverted run with completed producer and consumer iterations has
    # both mutex->slots and slots->mutex edges; ample capacity keeps the
    # empty semaphore from ever exhausting, so this run completes
    _, truth, rows = whole_run(small_cfg(producers=1, consumers=1, capacity=8,
                                         items_per_producer=4, inverted_wait_order=True))
    assert truth.deadlocked is False
    graph = build_lock_order_graph(lock_acquisitions(rows))
    slots, mutex = slots_lock_id(0), mutex_lock_id(0)
    assert mutex in graph.neighbors(slots)
    assert slots in graph.neighbors(mutex)
    assert detect_cycles(graph) == [[slots, mutex]]


def test_default_order_graph_is_acyclic():
    _, _, rows = whole_run(small_cfg(producers=2, consumers=2, capacity=2,
                                     items_per_producer=5))
    assert detect_cycles(build_lock_order_graph(lock_acquisitions(rows))) == []


# sha256 of (perf-script text, truth JSON, acquisitions CSV), recorded
# before the simulator shared its wait stacks and kept acquisitions as rows
GOLDEN_RUNS = {
    "jittered-multi-queue": (
        dict(producers=3, consumers=3, queues=2, capacity=2, items_per_producer=25,
             produce_ns=2 * MS, consume_ns=3 * MS, critical_ns=MS // 2,
             seed=11, jitter=0.3),
        ("61f0d57760503d09de8fd915ee1538bdcc512a583b7870131701e3a1af2f62bc",
         "a52673b0e0822bcf8a7a23f8b55907ffd2143de9fee25f6e699a2de5f8ac18aa",
         "403c92ef3824a307da87fc4b6e219e44944e74028263b6805ce654476e1663c3")),
    "hand-traced": (
        {},
        ("713b300234ef600222ec11c8718a5f5f23250ce6438284977494e504b743df1b",
         "133c991d851c73e434c24887e1b8b29ec4e2e1cf160c443db99a7da4a0e48910",
         "b8c57dc2561b9ca12f732e0f279cdb5ea5abdec135ce0066a54427623c9db369")),
    # wedges with locks still held, so their acquisitions close at the stop time
    "inverted-deadlock": (
        dict(producers=2, consumers=2, capacity=1, items_per_producer=20,
             produce_ns=MS, consume_ns=MS // 10, critical_ns=MS // 10,
             jitter=0.2, seed=0, inverted_wait_order=True),
        ("4251577c146a9242fd8f315b177fa0dc6499ecad7350a50a790da113e7bfae60",
         "110212456e9fdd8b5b9e01d632ed9067383d57fb2aaca5af32462f9055723948",
         "b3147d047f270118db2c1ce85573319244d2e4cb932cebb995bba6e370a5a6e2")),
}


def _digests(events, truth, rows):
    texts = (written(PerfScriptWriter, events), truth.to_json(),
             write_acquisitions_csv(lock_acquisitions(rows)))
    return tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_outputs(name):
    overrides, digests = GOLDEN_RUNS[name]
    run = whole_run(small_cfg(**overrides))
    assert _digests(*run) == digests
    _, truth, rows = run
    if name == "inverted-deadlock":
        assert truth.deadlocked
        # producer 2 holds the mutex and consumer 3 a full slot at the stop
        stop = max(release for *_, release in rows)
        wedged = {(tid, lock) for _, tid, _, lock, _, release in rows if release == stop}
        assert wedged == {(2, mutex_lock_id(0)), (3, slots_lock_id(0))}


def test_switch_outs_share_one_stack_per_semaphore_and_role():
    by_site = {}
    for ev in simulate_events(small_cfg(**GOLDEN_RUNS["jittered-multi-queue"][0]),
                              GroundTruth()):
        if ev.stack:
            site = (ev.stack[1].symbol, ev.stack[2].symbol)
            assert by_site.setdefault(site, ev.stack) is ev.stack
    assert len(by_site) > 2


def test_check_builds_no_lock_acquisitions(monkeypatch):
    built = []
    real = LockAcquisition.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(LockAcquisition, "__post_init__", counting)
    overrides, digests = GOLDEN_RUNS["inverted-deadlock"]
    truth = GroundTruth()
    replay_check(simulate_events(small_cfg(**overrides), truth), truth)
    assert built == []
    events, truth, rows = whole_run(small_cfg(**overrides))
    assert built == []  # keeping the rows builds none either
    assert _digests(events, truth, rows) == digests
    assert len(built) == len(rows)


@pytest.mark.parametrize("request_ns, grant_ns, release_ns",
                         [(5, 3, 6), (3, 6, 5), (-1, 0, 0)])
def test_out_of_order_acquisition_row_raises(request_ns, grant_ns, release_ns):
    sim = _Simulator(small_cfg())
    with pytest.raises(AssertionError):
        sim._record_acquisition(1, mutex_lock_id(0), request_ns, grant_ns, 1, release_ns)


# `latprof simulate --producers 2 --consumers 2 --capacity 1 --items 10`,
# which retracts 9 switch-outs
RETRACTING = dict(producers=2, consumers=2, capacity=1, items_per_producer=10,
                  produce_ns=MS, consume_ns=MS, critical_ns=MS // 10)


@pytest.mark.parametrize("block_events", [1, simgen._BLOCK_EVENTS])
@pytest.mark.parametrize("name", ["retracting"] + sorted(GOLDEN_RUNS))
def test_streamed_run_equals_the_list(monkeypatch, name, block_events):
    # a run passed on in blocks of `block_events` equals the same run held
    # whole, in one block, until it ends
    cfg = small_cfg(**(RETRACTING if name == "retracting" else GOLDEN_RUNS[name][0]))
    monkeypatch.setattr(simgen, "_BLOCK_EVENTS", sys.maxsize)
    held = whole_run(cfg)
    monkeypatch.setattr(simgen, "_BLOCK_EVENTS", block_events)
    streamed = whole_run(cfg)
    assert streamed == held
    events, truth, _ = streamed
    assert truth.last_event_ns == events[-1].ts


def test_occupancy_out_of_range_raises():
    sim = _Simulator(small_cfg())
    sim._add_occupancy_delta(5, 0, 1)
    sim._add_occupancy_delta(5, 0, 1)  # a second item in a buffer of one slot
    sim._apply_occupancy_deltas(4)  # not due yet
    with pytest.raises(AssertionError, match=r"occupancy 2 out of \[0, 1\]"):
        sim._apply_occupancy_deltas(5)


def test_config_is_checked_before_the_first_event():
    with pytest.raises(ConfigError):
        simulate_events(small_cfg(consumers=0), GroundTruth())


def raised_by_one_ns(truth, key):
    """A copy of `truth` whose ledger entry `key` is 1 ns longer."""
    ns, count = truth.blocked[key]
    return dataclasses.replace(truth, blocked={**truth.blocked, key: [ns + 1, count]})


def test_replay_check_flags_a_wrong_ledger_entry_as_mismatch():
    # a deadlocked run has no completion instant, and tid 3's full_q0
    # blocks all completed, so only the analyzer can be at fault for them
    events, truth, _ = whole_run(small_cfg(**GOLDEN_RUNS["inverted-deadlock"][0]))
    key = (3, "full_q0")
    ns, count = truth.blocked[key]
    before = replay_check(events, truth)
    after = replay_check(events, raised_by_one_ns(truth, key))
    wrong = Discrepancy(kind="mismatch", tid=3, sem="full_q0", truth_ns=ns + 1,
                        measured_ns=ns, truth_count=count, measured_count=count)
    assert after.discrepancies == sorted(before.discrepancies + [wrong],
                                         key=lambda d: (d.tid, d.sem))
    assert (after.checked, after.anomalies) == (before.checked, before.anomalies)


def test_replay_check_on_a_completed_run_flags_one_wrong_entry():
    # The trace is whole: it ends at the run's last event (the final compute
    # ends later, at `completion_ns`, with no event), so nothing marks the
    # wrong entry and it reads as a mismatch.
    events, truth, _ = whole_run(small_cfg(producers=2, consumers=2, capacity=2,
                                           items_per_producer=8, jitter=0.2, seed=99))
    key = min(truth.blocked)
    ns, count = truth.blocked[key]
    report = replay_check(events, raised_by_one_ns(truth, key))
    assert report.discrepancies == [Discrepancy(
        kind="mismatch", tid=key[0], sem=key[1], truth_ns=ns + 1, measured_ns=ns,
        truth_count=count, measured_count=count)]


def _reverse_equal_timestamp_groups(events):
    return [ev for _, group in itertools.groupby(events, key=lambda ev: ev.ts)
            for ev in reversed(list(group))]


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_replay_check_ignores_order_within_a_timestamp(name):
    events, truth, _ = whole_run(small_cfg(**GOLDEN_RUNS[name][0]))
    reversed_groups = _reverse_equal_timestamp_groups(events)
    assert reversed_groups != events  # the trace has equal-timestamp groups
    assert replay_check(reversed_groups, truth) == replay_check(events, truth)


def test_replay_check_kinds_on_a_cut_deadlocked_run():
    # A deadlocked run has no completion instant.  Cut in half, its trace
    # ends before the run's last event, so every entry it gets wrong reads
    # "truncation": tid 3's full_q0 wait, cut off asleep, and tid 2's
    # mutex_q0 blocks, which all fall after the cut.
    events, truth, _ = whole_run(small_cfg(**GOLDEN_RUNS["inverted-deadlock"][0]))
    report = replay_check(events[: len(events) // 2], truth)
    assert [(d.kind, d.tid, d.sem) for d in report.discrepancies] == [
        ("truncation", 2, "mutex_q0"), ("truncation", 3, "full_q0"),
        ("truncation", 4, "full_q0")]
