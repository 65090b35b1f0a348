import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from latprof.profile_agg import FlatProfile, build_call_graph
from latprof.trace_model import Frame, TraceEvent

from folds import fed


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
    rows = fed(FlatProfile(("comm",)), FOUR_SAMPLES).rows()
    assert [(r.comm, r.percent) for r in rows] == [
        ("gzip", Fraction(75)), ("scp", Fraction(25))]


def test_flat_profile_single_event():
    (row,) = fed(FlatProfile(), [sample("a", "b", "c")]).rows()
    assert row.percent == 100
    assert row.samples == 1


def test_flat_profile_by_comm_dso():
    rows = fed(FlatProfile(("comm", "dso")), FOUR_SAMPLES).rows()
    assert [(r.comm, r.dso, r.percent) for r in rows] == [
        ("gzip", "libz.so", Fraction(50)),
        ("gzip", "libc.so", Fraction(25)),
        ("scp", "libcrypto.so", Fraction(25)),
    ]


def test_flat_profile_ignores_non_samples():
    events = FOUR_SAMPLES + [
        TraceEvent("gzip", 1, 1, 0, 0, "sched:sched_switch")]
    assert sum(r.samples for r in fed(FlatProfile(), events).rows()) == 4


def test_flat_profile_no_samples():
    events = [TraceEvent("x", 1, 1, 0, 0, "sched:sched_switch")]
    assert fed(FlatProfile(), events).rows() == []


def test_flat_profile_zero_total_weight_gives_no_rows():
    # no percent of a zero total
    events = [sample("a", "d", "s1", period=0), sample("b", "d", "s2", period=0)]
    assert fed(FlatProfile(), events).rows() == []


def test_flat_profile_period_weighting():
    events = [sample("a", "d", "s1", period=3), sample("a", "d", "s2", period=1)]
    rows = fed(FlatProfile(("symbol",)), events).rows()
    assert [(r.symbol, r.weight, r.percent) for r in rows] == [
        ("s1", 3, Fraction(75)), ("s2", 1, Fraction(25))]


def test_flat_profile_unknown_symbol_bucket():
    ev = TraceEvent("a", 1, 1, 0, 0, "cpu-clock",
                    stack=(Frame(address=0x123, dso="libx.so"),))
    (row,) = fed(FlatProfile(("dso", "symbol")), [ev]).rows()
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
            rows = fed(FlatProfile(grouping), events).rows()
            assert sum(r.percent for r in rows) == 100


@given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("xy"),
                          st.integers(1, 5)), min_size=1, max_size=40))
def test_flat_profile_rows_in_percent_order_ties_by_key(samples):
    events = [sample(comm, "d.so", symbol, period=period)
              for comm, symbol, period in samples]
    rows = fed(FlatProfile(), events).rows()
    assert rows == sorted(rows, key=lambda r: (-r.percent, r.key))


def test_top_n_published_listing_order():
    # the published percent column (19 rows, summing to 100.00) recast as
    # period weights out of 10000; top three must print 29.88/17.53/10.09
    weights = [2988, 1753, 1009, 760, 586, 550, 467, 431, 305, 226,
               166, 166, 154, 107, 99, 91, 83, 55, 4]
    assert sum(weights) == 10000
    events = [sample("app", "dso", f"sym{i:02d}", period=w)
              for i, w in enumerate(weights)]
    rows = fed(FlatProfile(("symbol",)), events).rows()
    top = rows[:3]
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
