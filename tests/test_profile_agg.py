import random
from fractions import Fraction

import pytest

from latprof.profile_agg import (
    NoSamples,
    build_call_graph,
    build_dynamic_call_tree,
    flat_profile,
    merge_flat_profiles,
    top_n,
)
from latprof.trace_model import Frame, TraceEvent


def sample(comm, dso, symbol, tid=1, ts=0, period=1, stack_syms=None):
    if stack_syms is None:
        stack = (Frame(symbol=symbol, dso=dso),)
    else:
        stack = tuple(Frame(symbol=s, dso=dso) for s in stack_syms)
    return TraceEvent(comm, tid, tid, 0, ts, "cpu-clock",
                      period=period, stack=stack)


FOUR_SAMPLES = [
    sample("gzip", "libz.so", "deflate"),
    sample("gzip", "libz.so", "deflate"),
    sample("gzip", "libc.so", "memcpy"),
    sample("scp", "libcrypto.so", "aes"),
]


def test_flat_profile_by_comm():
    # count/total by hand: gzip 3/4, scp 1/4
    rows = flat_profile(FOUR_SAMPLES, group_by=("comm",))
    assert [(r.comm, r.percent) for r in rows] == [
        ("gzip", Fraction(75)), ("scp", Fraction(25))]


def test_flat_profile_single_event():
    (row,) = flat_profile([sample("a", "b", "c")])
    assert row.percent == 100
    assert row.samples == 1


def test_flat_profile_by_comm_dso():
    rows = flat_profile(FOUR_SAMPLES, group_by=("comm", "dso"))
    assert [(r.comm, r.dso, r.percent) for r in rows] == [
        ("gzip", "libz.so", Fraction(50)),
        ("gzip", "libc.so", Fraction(25)),
        ("scp", "libcrypto.so", Fraction(25)),
    ]


def test_flat_profile_ignores_non_samples():
    events = FOUR_SAMPLES + [
        TraceEvent("gzip", 1, 1, 0, 0, "sched:sched_switch")]
    assert sum(r.samples for r in flat_profile(events)) == 4


def test_flat_profile_no_samples():
    with pytest.raises(NoSamples):
        flat_profile([TraceEvent("x", 1, 1, 0, 0, "sched:sched_switch")])


def test_flat_profile_period_weighting():
    events = [sample("a", "d", "s1", period=3), sample("a", "d", "s2", period=1)]
    rows = flat_profile(events, group_by=("symbol",))
    assert [(r.symbol, r.weight, r.percent) for r in rows] == [
        ("s1", 3, Fraction(75)), ("s2", 1, Fraction(25))]


def test_flat_profile_unknown_symbol_bucket():
    ev = TraceEvent("a", 1, 1, 0, 0, "cpu-clock",
                    stack=(Frame(address=0x123, dso="libx.so"),))
    (row,) = flat_profile([ev], group_by=("dso", "symbol"))
    assert row.symbol == "[unknown]"
    assert row.dso == "libx.so"


def test_percent_normalization_randomized():
    rng = random.Random(5)
    for _ in range(300):
        events = [
            sample(rng.choice("abc"), rng.choice(["d1", "d2"]), rng.choice("xyz"),
                   period=rng.randint(1, 9))
            for _ in range(rng.randint(1, 40))
        ]
        for grouping in (("comm",), ("comm", "dso"), ("comm", "dso", "symbol")):
            rows = flat_profile(events, group_by=grouping)
            assert sum(r.percent for r in rows) == 100


def test_merge_matches_combined():
    rng = random.Random(9)
    a = [sample(rng.choice("ab"), "d", rng.choice("xy")) for _ in range(20)]
    b = [sample(rng.choice("ab"), "d", rng.choice("xy")) for _ in range(30)]
    merged = merge_flat_profiles(flat_profile(a), flat_profile(b))
    combined = flat_profile(a + b)
    assert [(r.key, r.weight, r.percent) for r in merged] == \
        [(r.key, r.weight, r.percent) for r in combined]


def test_top_n():
    rows = flat_profile(FOUR_SAMPLES, group_by=("comm",))
    assert top_n(rows, 0) == []
    assert top_n(rows, 99) == rows
    assert [r.comm for r in top_n(rows, 1)] == ["gzip"]


def test_top_n_published_listing_order():
    # the published percent column (19 rows, summing to 100.00) recast as
    # period weights out of 10000; top three must print 29.88/17.53/10.09
    weights = [2988, 1753, 1009, 760, 586, 550, 467, 431, 305, 226,
               166, 166, 154, 107, 99, 91, 83, 55, 4]
    assert sum(weights) == 10000
    events = [sample("app", "dso", f"sym{i:02d}", period=w)
              for i, w in enumerate(weights)]
    rows = flat_profile(events, group_by=("symbol",))
    top = top_n(rows, 3)
    assert [f"{float(r.percent):.2f}" for r in top] == ["29.88", "17.53", "10.09"]
    assert sum(r.percent for r in rows) == 100


# --- call graph ---


def test_call_graph_single_stack():
    # leaf-first [c, b, a]: root-first a->b->c
    ev = sample("p", "d", None, stack_syms=["c", "b", "a"])
    g = build_call_graph([ev])
    assert g.edges == {("a", "b"): 1, ("b", "c"): 1}
    assert g.exclusive["c"] == 1 and g.exclusive["a"] == 0 and g.exclusive["b"] == 0
    assert g.inclusive == {"a": 1, "b": 1, "c": 1}
    assert g.total_weight == 1


def test_call_graph_recursion_dedup():
    ev = sample("p", "d", None, stack_syms=["f", "f", "main"])
    g = build_call_graph([ev])
    assert g.inclusive["f"] == 1  # not 2
    assert g.edges[("f", "f")] == 1
    assert g.edges[("main", "f")] == 1
    assert g.exclusive["f"] == 1


def test_call_graph_empty():
    g = build_call_graph([TraceEvent("x", 1, 1, 0, 0, "cpu-clock")])
    assert g.edges == {} and g.total_weight == 0


def test_call_graph_exclusive_conservation_randomized():
    rng = random.Random(13)
    for _ in range(200):
        events = []
        for _ in range(rng.randint(1, 30)):
            depth = rng.randint(1, 6)
            syms = [rng.choice("fghij") for _ in range(depth)]
            events.append(sample("p", "d", None, period=rng.randint(1, 5),
                                 stack_syms=syms))
        g = build_call_graph(events)
        assert sum(g.exclusive.values()) == g.total_weight
        for node in g.nodes:
            assert g.exclusive.get(node, 0) <= g.inclusive[node]


# --- dynamic call tree ---


def test_dynamic_call_tree_insertion():
    paths = [["main", "foo"], ["main", "bar"], ["main", "foo"]]
    events = [sample("p", "d", None, stack_syms=list(reversed(p))) for p in paths]
    tree = build_dynamic_call_tree(events, 1)
    assert tree.root.weight == 3
    (main,) = tree.root.children
    assert main.symbol == "main" and main.weight == 3
    assert [(c.symbol, c.weight) for c in main.children] == [("foo", 2), ("bar", 1)]


def test_dynamic_call_tree_single_sample():
    tree = build_dynamic_call_tree(
        [sample("p", "d", None, stack_syms=["leaf", "mid", "root"])], 1)
    node = tree.root
    for sym in ["root", "mid", "leaf"]:
        (node,) = node.children
        assert node.symbol == sym and node.weight == 1


def test_dynamic_call_tree_filters_by_tid():
    events = [
        sample("p", "d", None, tid=1, stack_syms=["a"]),
        sample("p", "d", None, tid=2, stack_syms=["b"]),
    ]
    tree = build_dynamic_call_tree(events, 2)
    assert tree.root.weight == 1
    assert tree.root.children[0].symbol == "b"


def test_dynamic_call_tree_unknown_tid():
    with pytest.raises(NoSamples):
        build_dynamic_call_tree([sample("p", "d", None, tid=1, stack_syms=["a"])], 42)
