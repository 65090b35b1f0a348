"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from latprof.cli import main
from latprof.export import BulkWriter, CsvWriter, EventCounts
from latprof.graph_core import (
    CycleError,
    Disconnected,
    Graph,
    Unreachable,
    critical_path,
    detect_cycles,
    minimum_spanning_tree,
    shortest_path,
    topo_sort,
)
from latprof.lock_analysis import build_lock_order_graph
from latprof.parsers import (
    parse_gprof_flat,
    parse_mutrace,
    parse_oprofile_flat,
)
from latprof.profile_agg import FlatProfile, build_call_graph
from latprof.sched_analysis import ThreadState
from latprof.simgen import (
    GroundTruth,
    SimConfig,
    lock_acquisitions,
    replay_check,
    simulate_events,
)
from latprof.trace_model import Frame, TraceEvent, format_ns, parse_ns

import listings
from export_reference import parse_bulk_ndjson, parse_csv
from simruns import whole_run
from folds import fed, written
from intervals import walk_intervals

MS = 10**6


def _verdict(number, label):
    def report(ok):
        print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {label}")

    return report


# -- criterion 1: published-listing goldens, exact text-to-number equality


def test_criterion_1_listing_goldens():
    verdict = _verdict(1, "published-listing goldens parse exactly")
    try:
        (mutrace_row,) = parse_mutrace(listings.MUTRACE)
        assert (mutrace_row.locked, mutrace_row.changed, mutrace_row.contended) == (8, 4, 4)
        assert mutrace_row.total_ms == Fraction("45381.448")
        assert mutrace_row.avg_ms == Fraction("5672.681")
        assert mutrace_row.max_ms == Fraction("6303.132")
        assert mutrace_row.avg_ms == mutrace_row.total_ms / mutrace_row.locked

        gprof_rows = parse_gprof_flat(listings.GPROF_FLAT)
        assert len(gprof_rows) == 6
        first = gprof_rows[0]
        assert (first.percent_time, first.cumulative_s, first.self_s, first.name) == (
            Fraction("41.64"), Fraction("0.12"), Fraction("0.12"), "main")
        assert first.calls is None
        third = gprof_rows[2]
        assert (third.percent_time, third.cumulative_s, third.self_s, third.calls,
                third.self_ms_per_call, third.total_ms_per_call, third.name) == (
            Fraction("26.02"), Fraction("0.29"), Fraction("0.08"), 1,
            Fraction("75.47"), Fraction("166.02"), "bar()")

        xen_rows = parse_oprofile_flat(listings.XENOPROF)
        assert [(r.symbol, r.percent, r.image) for r in xen_rows] == [
            ("e1000_intr", Fraction("13.32"), "e1000"),
            ("tcp_v4_rcv", Fraction("8.23"), "vmlinux"),
            ("main", Fraction("5.47"), "rcv22"),
        ]
    except BaseException:
        verdict(False)
        raise
    verdict(True)


# -- criterion 2: oracle equivalence over random simulator configs


def test_criterion_2_oracle_equivalence():
    verdict = _verdict(2, "analyzer matches simulator ground truth to the ns "
                          "on 100 random configs")
    try:
        started = time.monotonic()
        rng = random.Random(20250808)
        for draw in range(100):
            cfg = SimConfig(
                producers=rng.randint(1, 4),
                consumers=rng.randint(1, 4),
                capacity=rng.randint(1, 8),
                items_per_producer=rng.randint(1, 50),
                produce_ns=rng.randint(1, 20) * MS,
                consume_ns=rng.randint(1, 20) * MS,
                critical_ns=rng.randint(1, 3) * MS,
                seed=rng.getrandbits(64),
                jitter=rng.choice([0.0, 0.2]),
            )
            # the `simulate --check` path: the run streams into the replay
            truth = GroundTruth()
            report = replay_check(simulate_events(cfg, truth), truth)
            assert not truth.deadlocked
            assert report.clean, (cfg, report.discrepancies)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"
    except BaseException:
        verdict(False)
        raise
    verdict(True)


# -- criterion 3: conservation suites, 1000 randomized sets each


def _random_sched_events(rng):
    events = []
    t = 0
    for _ in range(rng.randint(1, 30)):
        t += rng.randint(0, 10**6)
        tid = rng.randint(1, 4)
        roll = rng.random()
        if roll < 0.4:
            events.append(TraceEvent(
                "app", tid, tid, rng.randint(0, 2), t,
                "sched:sched_switch",
                args={"prev_pid": str(tid),
                      "prev_state": rng.choice(["S", "D", "R", "R+", "Wz"]),
                      "next_pid": str(rng.randint(0, 4))}))
        elif roll < 0.7:
            events.append(TraceEvent(
                "app", tid, tid, 0, t, "sched:sched_wakeup",
                args={"pid": str(rng.randint(1, 4))}))
        else:
            events.append(TraceEvent("app", tid, tid, 0, t, "cpu-clock"))
    return events


def _random_samples(rng):
    events = []
    for _ in range(rng.randint(1, 30)):
        depth = rng.randint(0, 5)
        stack = tuple(
            Frame(symbol=rng.choice("fghij"), dso=rng.choice(["d1", "d2", None]))
            for _ in range(depth)
        )
        events.append(TraceEvent(
            rng.choice("abc"), rng.randint(1, 5), rng.randint(1, 5), 0,
            rng.randrange(0, 50 * 10**9), "cpu-clock",
            period=rng.randint(1, 9), stack=stack))
    return events


def test_criterion_3_conservation_suites():
    verdict = _verdict(3, "timeline/percent/histogram/pie/call-graph "
                          "conservation on 1000 random sets each")
    try:
        rng = random.Random(303)
        for _ in range(1000):  # timeline conservation
            events = _random_sched_events(rng)
            walk, by_tid = walk_intervals(events)
            window = walk.end - walk.origin
            for intervals in by_tid.values():
                assert sum(iv.end - iv.start for iv in intervals) == window
            offcpu_ns = sum(
                iv.end - iv.start
                for intervals in by_tid.values() for iv in intervals
                if iv.state in (ThreadState.SLEEPING, ThreadState.RUNNABLE))
            assert walk.summary.total_ns() == offcpu_ns

        for _ in range(1000):  # percent normalization, 100 +- 0.01
            events = _random_samples(rng)
            rows = fed(FlatProfile(), events).rows()
            assert abs(sum(float(r.percent) for r in rows) - 100.0) < 0.01
            assert sum(r.percent for r in rows) == 100  # exact in rationals

        for _ in range(1000):  # histogram count conservation
            events = _random_samples(rng)
            events.sort(key=lambda e: e.ts)  # the first event added is the origin
            counts = fed(EventCounts(rng.choice([1, 2, Fraction(1, 2)])), events)
            assert counts.histogram().total() == len(events)

        for _ in range(1000):  # pie normalization within 1e-9
            events = _random_samples(rng)
            pie = fed(EventCounts(), events).pie()
            assert abs(sum(float(f) for f in pie.values()) - 1.0) <= 1e-9
            assert sum(pie.values()) == 1

        for _ in range(1000):  # call-graph exclusive-sum conservation
            events = _random_samples(rng)
            graph = build_call_graph(events)
            assert sum(graph.exclusive.values()) == graph.total_weight
            for node in graph.nodes:
                assert graph.exclusive.get(node, 0) <= graph.inclusive[node]
    except BaseException:
        verdict(False)
        raise
    verdict(True)


# -- criterion 4: graph algorithms vs exhaustive enumeration


def _brute_paths(g, source):
    out = []

    def walk(path, weight):
        out.append((tuple(path), weight))
        for nxt, w in g.neighbors(path[-1]).items():
            if nxt not in path:
                walk(path + [nxt], weight + w)

    walk([source], Fraction(0))
    return out


def _brute_cycles(g, max_len):
    nodes = g.nodes
    found = []
    for size in range(1, min(max_len, len(nodes)) + 1):
        for subset in itertools.combinations(nodes, size):
            first = subset[0]
            for rest in itertools.permutations(subset[1:]):
                cyc = (first,) + rest
                if all(cyc[(i + 1) % size] in g.neighbors(cyc[i]) for i in range(size)):
                    found.append(list(cyc))
    found.sort(key=lambda c: (len(c), c))
    return found


def _spans(nodes, chosen):
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in chosen:
        parent[find(u)] = find(v)
    return len({find(n) for n in nodes}) == 1


def _brute_mst(g):
    nodes = g.nodes
    if len(nodes) <= 1:
        return Fraction(0)
    best = None
    for subset in itertools.combinations(g.edges(), len(nodes) - 1):
        if _spans(nodes, [(u, v) for u, v, _ in subset]):
            total = sum(w for _, _, w in subset)
            best = total if best is None or total < best else best
    return best


def _random_graph(rng, directed):
    n = rng.randint(2, 7)
    g = Graph(directed=directed)
    names = [chr(ord("a") + i) for i in range(n)]
    for name in names:
        g.add_node(name)
    for u in names:
        for v in names:
            if u != v and rng.random() < 0.3:
                g.add_edge(u, v, Fraction(rng.randint(0, 9)))
    return g


def test_criterion_4_graph_brute_force_equivalence():
    verdict = _verdict(4, "graph algorithms match exhaustive enumeration on "
                          "200+ random graphs each")
    try:
        started = time.monotonic()
        rng = random.Random(404)

        for _ in range(200):  # shortest_path
            g = _random_graph(rng, directed=rng.random() < 0.5)
            source, target = rng.choice(g.nodes), rng.choice(g.nodes)
            candidates = [(w, p) for p, w in _brute_paths(g, source)
                          if p[-1] == target]
            if not candidates:
                with pytest.raises(Unreachable):
                    shortest_path(g, source, target)
            else:
                path, dist = shortest_path(g, source, target)
                assert (dist, tuple(path)) == min(candidates)

        count = 0
        while count < 200:  # critical_path on DAGs
            g = _random_graph(rng, directed=True)
            try:
                topo_sort(g)
            except CycleError:
                continue
            source = rng.choice(g.nodes)
            paths = _brute_paths(g, source)
            best_w = max(w for _, w in paths)
            best_p = min(p for p, w in paths if w == best_w)
            assert critical_path(g, source) == (list(best_p), best_w)
            count += 1

        count = 0
        while count < 200:  # minimum_spanning_tree
            g = _random_graph(rng, directed=False)
            expected = _brute_mst(g)
            try:
                _, total = minimum_spanning_tree(g)
            except Disconnected:
                assert expected is None
                continue
            assert total == expected
            count += 1

        for _ in range(200):  # detect_cycles
            g = _random_graph(rng, directed=True)
            assert detect_cycles(g, max_len=8) == _brute_cycles(g, 8)

        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"graph suite took {elapsed:.1f}s"
    except BaseException:
        verdict(False)
        raise
    verdict(True)


# -- criterion 5: deadlock demonstration


def test_criterion_5_deadlock_demonstration():
    verdict = _verdict(5, "inverted wait order deadlocks with a lock-order "
                          "cycle; default order completes on all 100 seeds")
    try:
        base = dict(producers=2, consumers=2, capacity=1, items_per_producer=20,
                    produce_ns=1 * MS, consume_ns=MS // 10, critical_ns=MS // 10,
                    jitter=0.2)
        deadlocked_with_cycle = 0
        deadlocked = 0
        for seed in range(100):
            _, truth, rows = whole_run(SimConfig(seed=seed, inverted_wait_order=True,
                                                 **base))
            if truth.deadlocked:
                deadlocked += 1
                if detect_cycles(build_lock_order_graph(lock_acquisitions(rows))):
                    deadlocked_with_cycle += 1
        assert deadlocked >= 1, "no inverted-order seed reached deadlock"
        assert deadlocked_with_cycle >= 1, \
            "no deadlocked acquisition stream produced a lock-order cycle"

        for seed in range(100):
            _, truth, rows = whole_run(SimConfig(seed=seed, inverted_wait_order=False,
                                                 **base))
            assert not truth.deadlocked
            assert truth.completion_ns is not None
            assert detect_cycles(build_lock_order_graph(lock_acquisitions(rows))) == []
    except BaseException:
        verdict(False)
        raise
    verdict(True)


# -- criterion 6: format round-trips and byte-identical reruns


def test_criterion_6_format_roundtrips(tmp_path, capsys):
    verdict = _verdict(6, "bulk and CSV round-trips; byte-identical reruns")
    try:
        stack = (Frame(symbol="deflate", dso="libz.so"),)
        events = [
            TraceEvent("gzip", 10, 10, 0, parse_ns("100.000000001"),
                       "cpu-clock", stack=stack),
            TraceEvent("scp", 20, 21, 3, parse_ns("100.123456789"),
                       "sched:sched_switch", args={"prev_pid": "21"}),
            TraceEvent("a,b", 30, 30, 1, parse_ns("101.5"), "cpu-clock"),
        ]

        # in time order: the first event is the origin
        docs = parse_bulk_ndjson(written(BulkWriter, events))
        origin = min(ev.ts for ev in events)
        for ev, doc in zip(events, docs):
            leaf = ev.leaf()
            assert doc == {
                "timestamp_rel": format_ns(ev.ts - origin)[:-6],
                "comm": ev.comm, "pid": ev.pid, "tid": ev.tid, "cpu": ev.cpu,
                "event": ev.event,
                "dso": (leaf.dso or "") if leaf else "",
                "symbol": (leaf.symbol or "") if leaf else "",
                "ts_ns": ev.ts - origin,
            }

        records = parse_csv(written(CsvWriter, events))
        for ev, rec in zip(events, records):
            assert rec.timestamp_rel == format_ns(ev.ts - origin)[:-6]
            assert (rec.comm, rec.pid, rec.tid, rec.cpu, rec.event) == (
                ev.comm, ev.pid, ev.tid, ev.cpu, ev.event)

        trace = tmp_path / "trace.txt"
        trace.write_text(
            "gzip 1/1 [000] 1.000000: cpu-clock: \n"
            "\t400000 deflate (libz.so)\n\n"
            "gzip 1/1 [000] 2.500000: cpu-clock: \n"
        )
        outputs = []
        for argv in (["export", "--input", str(trace), "--format", "bulk"],
                     ["export", "--input", str(trace), "--format", "csv"],
                     ["report", "--input", str(trace)]):
            assert main(list(argv)) == 0
            first = capsys.readouterr().out
            assert main(list(argv)) == 0
            second = capsys.readouterr().out
            assert first == second
            outputs.append(first)
        assert all(outputs)
    except BaseException:
        verdict(False)
        raise
    verdict(True)
