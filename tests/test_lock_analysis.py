import itertools
import random
from fractions import Fraction

import pytest

from latprof.graph_core import detect_cycles
from latprof.lock_analysis import (
    LockAcquisition,
    build_lock_order_graph,
    contention_stats,
    read_acquisitions_csv,
    write_acquisitions_csv,
)
from latprof.parsers import MalformedRow, MutexStats
from latprof.trace_model import parse_ns


def acq(tid, lock, request, grant, release):
    return LockAcquisition(tid, lock,
                           parse_ns(str(request)),
                           parse_ns(str(grant)),
                           parse_ns(str(release)))


def test_acquisition_time_ordering_enforced():
    with pytest.raises(ValueError):
        acq(1, 0, 2.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        acq(1, 0, 1.0, 3.0, 2.0)


def test_acquisition_rejects_negative_time():
    with pytest.raises(ValueError, match="timestamp must be non-negative, got -1"):
        LockAcquisition(1, 0, -1, 0, 1)
    with pytest.raises(ValueError, match="request <= grant <= release"):
        LockAcquisition(1, 0, 0, -1, 1)
    LockAcquisition(1, 0, 0, 0, 0)


def test_changed_counts_owner_changes():
    # grants by tids [1, 1, 2, 2]: one adjacent owner change
    acqs = [
        acq(1, 7, 1.0, 1.0, 1.1),
        acq(1, 7, 2.0, 2.0, 2.1),
        acq(2, 7, 3.0, 3.0, 3.1),
        acq(2, 7, 4.0, 4.0, 4.1),
    ]
    (row,) = contention_stats(acqs)
    assert row.locked == 4
    assert row.changed == 1
    assert row.contended == 0


def test_uncontended_single_acquisition():
    (row,) = contention_stats([acq(1, 3, 1.0, 1.0, 2.0)])
    assert (row.contended, row.total_ms, row.avg_ms, row.max_ms) == (0, 0, 0, 0)


def test_wait_arithmetic():
    # waits of 2 ms and 4 ms: total 6, avg 3, max 4
    acqs = [
        acq(1, 5, 1.000, 1.002, 1.1),
        acq(2, 5, 2.000, 2.004, 2.1),
    ]
    (row,) = contention_stats(acqs)
    assert row.total_ms == 6
    assert row.avg_ms == 3
    assert row.max_ms == 4
    assert row.contended == 2
    assert row.changed == 1


def test_stats_identity_avg_total_locked():
    rng = random.Random(19)
    for _ in range(50):
        acqs = []
        t = 0
        for _ in range(rng.randint(1, 30)):
            t += rng.randint(1, 10**7)
            wait = rng.randint(0, 10**6)
            acqs.append(LockAcquisition(rng.randint(1, 4), rng.randint(0, 2),
                                        t, t + wait,
                                        t + wait + 100))
        for row in contention_stats(acqs):
            assert row.avg_ms == row.total_ms / row.locked
            assert row.contended <= row.locked
            assert row.changed <= max(row.locked - 1, 0)


def test_stats_match_per_grant_fraction_sums():
    rng = random.Random(23)
    for _ in range(50):
        acqs = []
        for _ in range(rng.randint(1, 40)):
            request = rng.randint(0, 10**9)
            grant = request + rng.choice([0, rng.randint(1, 10**3), rng.randint(1, 10**8)])
            acqs.append(LockAcquisition(rng.randint(1, 3), rng.randint(0, 2),
                                        request, grant,
                                        grant + rng.randint(0, 10**6)))
        for row in contention_stats(acqs):
            grants = [a for a in acqs if a.lock_id == row.mutex_id]
            waits = [Fraction(a.grant_ts - a.request_ts, 10**6) for a in grants]
            total = sum(waits, Fraction(0))
            assert row.locked == len(grants)
            assert row.contended == sum(1 for a in grants if a.grant_ts > a.request_ts)
            assert (row.total_ms, row.avg_ms, row.max_ms) == (
                total, total / len(grants), max(waits))
            assert all(isinstance(v, Fraction)
                       for v in (row.total_ms, row.avg_ms, row.max_ms))


def test_stats_roundtrip_from_synthetic_row():
    # acquisitions constructed to match a target row reproduce it exactly
    target = MutexStats(0, locked=8, changed=4, contended=4,
                        total_ms=Fraction(18), avg_ms=Fraction("2.25"),
                        max_ms=Fraction("6.5"), flags="")
    waits_ms = [Fraction("6.5"), Fraction("6.5"), Fraction(4), Fraction(1),
                Fraction(0), Fraction(0), Fraction(0), Fraction(0)]
    assert sum(waits_ms) == target.total_ms
    assert max(waits_ms) == target.max_ms
    assert sum(1 for w in waits_ms if w > 0) == target.contended
    tids = [1, 2, 1, 2, 1, 1, 1, 1]  # adjacent owner changes: 4
    acqs = []
    t_ns = 0
    for tid, wait in zip(tids, waits_ms):
        t_ns += 10**9
        wait_ns = int(wait * 10**6)
        acqs.append(LockAcquisition(tid, 0, t_ns,
                                    t_ns + wait_ns,
                                    t_ns + wait_ns + 1000))
    (row,) = contention_stats(acqs)
    assert (row.locked, row.changed, row.contended) == (8, 4, 4)
    assert (row.total_ms, row.avg_ms, row.max_ms) == (
        target.total_ms, target.avg_ms, target.max_ms)


def test_single_thread_never_changes():
    rng = random.Random(31)
    for _ in range(30):
        acqs = []
        t = 0
        for _ in range(rng.randint(1, 20)):
            t += rng.randint(1, 10**6)
            acqs.append(LockAcquisition(1, rng.randint(0, 3), t,
                                        t, t + 10))
        for row in contention_stats(acqs):
            assert row.changed == 0


# --- lock-order graph ---


def test_nested_acquisition_edge():
    acqs = [
        acq(1, 10, 1.0, 1.0, 3.0),  # holds A
        acq(1, 11, 2.0, 2.0, 2.5),  # grabs B while holding A
    ]
    g = build_lock_order_graph(acqs)
    assert g.directed
    assert g.nodes == [10, 11]
    assert g.edges() == [(10, 11, 1)]


def test_disjoint_acquisitions_no_edges():
    acqs = [acq(1, 10, 1.0, 1.0, 1.5), acq(1, 11, 2.0, 2.0, 2.5)]
    assert build_lock_order_graph(acqs).edges() == []


def test_cross_order_produces_both_edges():
    acqs = [
        acq(1, 10, 1.0, 1.0, 3.0),
        acq(1, 11, 2.0, 2.0, 2.5),
        acq(2, 11, 4.0, 4.0, 6.0),
        acq(2, 10, 5.0, 5.0, 5.5),
    ]
    g = build_lock_order_graph(acqs)
    assert g.edges() == [(10, 11, 1), (11, 10, 1)]


def test_reentrant_acquisition_makes_no_self_edge():
    acqs = [
        acq(1, 10, 1.0, 1.0, 5.0),
        acq(1, 10, 2.0, 2.0, 3.0),
    ]
    g = build_lock_order_graph(acqs)
    assert g.nodes == [10]
    assert g.edges() == []


def test_equal_grant_times_keep_program_order():
    acqs = [
        acq(1, 10, 1.0, 1.0, 2.0),
        acq(1, 11, 1.0, 1.0, 2.0),  # same instant, later in program order
    ]
    g = build_lock_order_graph(acqs)
    assert g.edges() == [(10, 11, 1)]


def test_edge_weight_counts_grants():
    # two grants of 11 under 10 (one per thread) weigh the edge 2
    acqs = [
        acq(1, 10, 1.0, 1.0, 3.0),
        acq(1, 11, 2.0, 2.0, 2.5),
        acq(2, 10, 4.0, 4.0, 6.0),
        acq(2, 11, 5.0, 5.0, 5.5),
    ]
    assert build_lock_order_graph(acqs).edges() == [(10, 11, 2)]


def test_deadlock_risk_two_cycle():
    acqs = [
        acq(1, 1, 1.0, 1.0, 3.0),
        acq(1, 2, 2.0, 2.0, 2.5),
        acq(2, 2, 4.0, 4.0, 6.0),
        acq(2, 1, 5.0, 5.0, 5.5),
    ]
    cycles = detect_cycles(build_lock_order_graph(acqs))
    assert cycles == [[1, 2]]


def test_deadlock_risk_dag_is_empty():
    acqs = [
        acq(1, 1, 1.0, 1.0, 3.0),
        acq(1, 2, 2.0, 2.0, 2.5),
        acq(2, 2, 4.0, 4.0, 6.0),
        acq(2, 3, 5.0, 5.0, 5.5),
    ]
    assert detect_cycles(build_lock_order_graph(acqs)) == []


def test_deadlock_risk_matches_brute_force_on_random_digraphs():
    # ≥200 random digraphs with ≤8 nodes, edge probability 0.3
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randint(2, 8)
        graph_edges = [(u, v) for u, v in itertools.permutations(range(n), 2)
                       if rng.random() < 0.3]
        # one synthetic nested acquisition per edge, each by its own thread
        acqs = []
        t = 0
        for tid, (u, v) in enumerate(graph_edges, 1):
            t += 10
            acqs.append(LockAcquisition(tid, u, t, t,
                                        t + 5))
            acqs.append(LockAcquisition(tid, v, t + 1, t + 1,
                                        t + 2))
        log = build_lock_order_graph(acqs)
        assert {(u, v) for u, v, _ in log.edges()} == set(graph_edges)
        cycles = detect_cycles(log, max_len=8)
        # brute force: check every rotationally-canonical node tuple
        nodes = log.nodes
        expected = []
        adjacency = {u: {v for (a, v) in graph_edges if a == u} for u in nodes}
        for size in range(2, min(8, len(nodes)) + 1):
            for subset in itertools.combinations(nodes, size):
                first = subset[0]
                for rest in itertools.permutations(subset[1:]):
                    cyc = (first,) + rest
                    if all(cyc[(i + 1) % size] in adjacency.get(cyc[i], ())
                           for i in range(size)):
                        expected.append(list(cyc))
        expected.sort(key=lambda c: (len(c), c))
        assert cycles == expected


# --- CSV interchange ---


def test_acquisitions_csv_roundtrip():
    acqs = [acq(1, 10, 1.0, 1.25, 3.0), acq(2, 11, 2.0, 2.0, 2.5)]
    text = write_acquisitions_csv(acqs)
    assert text.splitlines()[0] == "tid,lock_id,request_ts,grant_ts,release_ts"
    assert read_acquisitions_csv(text) == acqs


def test_acquisitions_csv_bad_header():
    with pytest.raises(MalformedRow):
        read_acquisitions_csv("a,b,c\n1,2,3\n")


def test_acquisitions_csv_bad_row():
    text = "tid,lock_id,request_ts,grant_ts,release_ts\n1,2,xyz,1.0,2.0\n"
    with pytest.raises(MalformedRow):
        read_acquisitions_csv(text)


def test_acquisitions_csv_errors_name_the_row_start_line():
    header = "tid,lock_id,request_ts,grant_ts,release_ts\n"
    # a quoted field spans lines 2-3, so the next row starts on line 4
    text = header + '"1\n",1,1.0,1.0,3.0\n1,2,2.0,1.0,2.5\n'
    with pytest.raises(MalformedRow) as exc:
        read_acquisitions_csv(text)
    assert exc.value.lineno == 4
    # a bad row that spans lines 3-4 is reported at line 3
    text = header + "\n" + '1,2,"xyz\n",1.0,2.0\n'
    with pytest.raises(MalformedRow) as exc:
        read_acquisitions_csv(text)
    assert exc.value.lineno == 3
    # a field the csv module refuses is a malformed row, not a traceback
    with pytest.raises(MalformedRow) as exc:
        read_acquisitions_csv(header + "\n1,1," + "9" * 200_000 + ",1,1\n")
    assert exc.value.lineno == 3
    # a header after blank lines is checked where it stands
    with pytest.raises(MalformedRow) as exc:
        read_acquisitions_csv("\n\na,b,c\n")
    assert exc.value.lineno == 3
