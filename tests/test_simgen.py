import hashlib
import random

import pytest

from latprof.export import render_perf_script
from latprof.lock_analysis import (
    LockAcquisition,
    build_lock_order_graph,
    detect_deadlock_risk,
    write_acquisitions_csv,
)
from latprof.simgen import (
    ConfigError,
    GroundTruth,
    SimConfig,
    SplitMix64,
    _Simulator,
    mutex_lock_id,
    replay_check,
    seconds_to_ns,
    simulate,
    slots_lock_id,
)

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
    res = simulate(small_cfg())
    assert res.truth.blocked == {(1, "empty_q0"): [1 * SEC, 1]}
    assert res.truth.completion_ns == 6_200_000_000
    assert res.truth.deadlocked is False
    assert res.truth.produced == res.truth.consumed == 2
    assert res.truth.max_occupancy == {0: 1}
    assert res.truth.pending == []

    # events: 2 initial switch-ins, P's block switch-out, wakeup + switch-in
    kinds = [(ev.event_name, ev.ts) for ev in res.events]
    assert kinds == [
        ("sched_switch", 0),
        ("sched_switch", 0),
        ("sched_switch", 2_100_000_000),
        ("sched_wakeup", 3_100_000_000),
        ("sched_switch", 3_100_000_000),
    ]
    out = res.events[2]
    assert out.args["prev_state"] == "S"
    assert [f.symbol for f in out.stack] == [
        "sem_wait", "wait_empty_q0", "producer_loop", "main"]
    assert all(f.dso == "simgen" for f in out.stack)

    # 8 acquisitions: 2 per iteration per thread (slot pool + mutex)
    assert len(res.acquisitions) == 8
    slots, mutex = slots_lock_id(0), mutex_lock_id(0)
    p_iter2 = [a for a in res.acquisitions
               if a.tid == 1 and a.lock_id == slots and a.request_ts == 2_100_000_000]
    assert len(p_iter2) == 1 and p_iter2[0].grant_ts == 3_100_000_000


def test_blocked_initial_consumer_never_blocks_producer_on_empty():
    # capacity >= total items: empty never exhausts
    res = simulate(small_cfg(capacity=5, items_per_producer=2))
    assert all(sem != "empty_q0" for (_, sem) in res.truth.blocked)


def test_determinism_bit_identical():
    cfg = small_cfg(producers=2, consumers=2, capacity=2, items_per_producer=5,
                    jitter=0.2, seed=1234)
    a = simulate(cfg)
    b = simulate(cfg)
    assert a.events == b.events
    assert a.truth == b.truth
    assert a.acquisitions == b.acquisitions


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
        res = simulate(cfg)
        assert res.truth.deadlocked is False
        assert res.truth.produced == res.truth.consumed == \
            cfg.producers * cfg.items_per_producer
        for q, intervals in res.crit_intervals.items():
            ordered = sorted(intervals)
            for (s1, e1, _), (s2, e2, _) in zip(ordered, ordered[1:]):
                assert e1 <= s2  # critical sections never overlap
            assert 0 <= res.truth.max_occupancy[q] <= cfg.capacity


def test_replay_check_clean_on_simulated_trace():
    res = simulate(small_cfg(producers=2, consumers=2, capacity=2,
                             items_per_producer=8, jitter=0.2, seed=99))
    report = replay_check(res.events, res.truth)
    assert report.clean, report.discrepancies
    assert report.anomalies == 0


def test_replay_check_flags_truncation():
    res = simulate(small_cfg(producers=2, consumers=2, capacity=1,
                             items_per_producer=10, seed=3))
    cut = res.events[: max(1, len(res.events) * 9 // 10)]
    report = replay_check(cut, res.truth)
    assert report.discrepancies, "dropping events must surface discrepancies"
    assert all(d.kind == "truncation" for d in report.discrepancies)


def test_replay_check_empty():
    report = replay_check([], GroundTruth())
    assert report.clean and report.checked == 0


def test_queue_round_robin_assignment():
    res = simulate(small_cfg(producers=2, consumers=2, queues=2, capacity=1,
                             items_per_producer=3))
    assert res.truth.produced == 6
    assert set(res.truth.max_occupancy) == {0, 1}


def test_default_order_never_deadlocks_100_seeds():
    for seed in range(100):
        res = simulate(small_cfg(producers=2, consumers=2, capacity=1,
                                 items_per_producer=3, produce_ns=1 * MS,
                                 consume_ns=MS // 10, critical_ns=MS // 10,
                                 jitter=0.2, seed=seed))
        assert res.truth.deadlocked is False
        assert res.truth.completion_ns is not None


def test_inverted_order_deadlocks_and_shows_cycle():
    deadlocked = []
    cycles_found = []
    for seed in range(100):
        res = simulate(small_cfg(producers=2, consumers=2, capacity=1,
                                 items_per_producer=20, produce_ns=1 * MS,
                                 consume_ns=MS // 10, critical_ns=MS // 10,
                                 jitter=0.2, seed=seed,
                                 inverted_wait_order=True))
        if res.truth.deadlocked:
            deadlocked.append(seed)
            graph = build_lock_order_graph(res.acquisitions)
            if detect_deadlock_risk(graph):
                cycles_found.append(seed)
    assert deadlocked, "no seed deadlocked"
    assert cycles_found, "no deadlocked stream produced a lock-order cycle"


def test_inverted_order_acquisitions_cross_nest():
    # any inverted run with completed producer and consumer iterations has
    # both mutex->slots and slots->mutex edges; ample capacity keeps the
    # empty semaphore from ever exhausting, so this run completes
    res = simulate(small_cfg(producers=1, consumers=1, capacity=8,
                             items_per_producer=4, inverted_wait_order=True))
    assert res.truth.deadlocked is False
    graph = build_lock_order_graph(res.acquisitions)
    slots, mutex = slots_lock_id(0), mutex_lock_id(0)
    assert (mutex, slots) in graph.edges
    assert (slots, mutex) in graph.edges
    assert detect_deadlock_risk(graph) == [[slots, mutex]]


def test_default_order_graph_is_acyclic():
    res = simulate(small_cfg(producers=2, consumers=2, capacity=2,
                             items_per_producer=5))
    graph = build_lock_order_graph(res.acquisitions)
    assert detect_deadlock_risk(graph) == []


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


def _digests(res):
    texts = (render_perf_script(res.events), res.truth.to_json(),
             write_acquisitions_csv(res.acquisitions))
    return tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_outputs(name):
    overrides, digests = GOLDEN_RUNS[name]
    res = simulate(small_cfg(**overrides))
    assert _digests(res) == digests
    if name == "inverted-deadlock":
        assert res.truth.deadlocked
        # producer 2 holds the mutex and consumer 3 a full slot at the stop
        stop = max(a.release_ts for a in res.acquisitions)
        wedged = {(a.tid, a.lock_id) for a in res.acquisitions if a.release_ts == stop}
        assert wedged == {(2, mutex_lock_id(0)), (3, slots_lock_id(0))}


def test_switch_outs_share_one_stack_per_semaphore_and_role():
    res = simulate(small_cfg(**GOLDEN_RUNS["jittered-multi-queue"][0]))
    by_site = {}
    for ev in res.events:
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
    res = simulate(small_cfg(**overrides))
    replay_check(res.events, res.truth)
    assert built == []
    assert _digests(res) == digests
    assert len(built) == len(res.acquisitions) == len(res.acquisition_rows)
    assert res.acquisitions is res.acquisitions


@pytest.mark.parametrize("request_ns, grant_ns, release_ns",
                         [(5, 3, 6), (3, 6, 5), (-1, 0, 0)])
def test_out_of_order_acquisition_row_raises(request_ns, grant_ns, release_ns):
    sim = _Simulator(small_cfg())
    with pytest.raises(AssertionError):
        sim._record_acquisition(1, mutex_lock_id(0), request_ns, grant_ns, 1, release_ns)
