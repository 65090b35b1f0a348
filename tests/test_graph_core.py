import itertools
import random
from fractions import Fraction

import pytest

from latprof.graph_core import (
    CycleError,
    Disconnected,
    Graph,
    GraphError,
    NegativeWeight,
    Unreachable,
    critical_path,
    detect_cycles,
    minimum_spanning_tree,
    shortest_path,
    topo_sort,
)


# --- independent brute-force oracles ---


def all_simple_paths(g, source):
    """Every simple path starting at source, by exhaustive DFS."""
    out = []

    def walk(path, weight):
        out.append((tuple(path), weight))
        for nxt, w in g.neighbors(path[-1]).items():
            if nxt not in path:
                walk(path + [nxt], weight + w)

    if g.has_node(source):
        walk([source], Fraction(0))
    return out


def brute_shortest(g, source, target):
    best = None
    for path, w in all_simple_paths(g, source):
        if path[-1] == target:
            cand = (w, path)
            if best is None or cand < best:
                best = cand
    return best


def brute_critical(g, source):
    best_w = max(w for _, w in all_simple_paths(g, source))
    best_p = min(p for p, w in all_simple_paths(g, source) if w == best_w)
    return list(best_p), best_w


def brute_cycles(g, max_len):
    """All elementary cycles by checking every rotationally-canonical tuple."""
    nodes = g.nodes
    found = []
    for size in range(1, min(max_len, len(nodes)) + 1):
        for subset in itertools.combinations(nodes, size):
            first = subset[0]  # canonical rotation: smallest node leads
            for rest in itertools.permutations(subset[1:]):
                cyc = (first,) + rest
                if all(cyc[(i + 1) % size] in g.neighbors(cyc[i]) for i in range(size)):
                    found.append(list(cyc))
    found.sort(key=lambda c: (len(c), c))
    return found


def spans(nodes, edge_subset):
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edge_subset:
        parent[find(u)] = find(v)
    return len({find(n) for n in nodes}) == 1


def brute_mst_weight(g):
    nodes = g.nodes
    if len(nodes) <= 1:
        return Fraction(0)
    edges = g.edges()
    best = None
    for subset in itertools.combinations(edges, len(nodes) - 1):
        if spans(nodes, [(u, v) for u, v, _ in subset]):
            total = sum(w for _, _, w in subset)
            if best is None or total < best:
                best = total
    return best


def random_graph(rng, directed=True, max_nodes=7, p=0.3, max_w=9):
    n = rng.randint(2, max_nodes)
    names = [chr(ord("a") + i) for i in range(n)]
    g = Graph(directed=directed)
    for name in names:
        g.add_node(name)
    for u in names:
        for v in names:
            if u != v and rng.random() < p:
                g.add_edge(u, v, Fraction(rng.randint(0, max_w)))
    return g


# --- topo_sort ---


def test_topo_sort_simple():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("a", "c")
    g.add_edge("b", "c")
    assert topo_sort(g) == ["a", "b", "c"]


def test_topo_sort_empty():
    assert topo_sort(Graph()) == []


def test_topo_sort_cycle_error():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    with pytest.raises(CycleError) as exc:
        topo_sort(g)
    assert exc.value.cycle == ["a", "b"]


def test_topo_sort_validity_random():
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        g = random_graph(rng)
        try:
            order = topo_sort(g)
        except CycleError as exc:
            c = exc.cycle
            assert all(c[(i + 1) % len(c)] in g.neighbors(c[i]) for i in range(len(c)))
            continue
        pos = {n: i for i, n in enumerate(order)}
        assert all(pos[u] < pos[v] for u, v, _ in g.edges())
        checked += 1


# --- critical_path ---


def test_critical_path_example():
    g = Graph()
    g.add_edge("a", "b", 3)
    g.add_edge("b", "c", 4)
    g.add_edge("a", "c", 5)
    assert critical_path(g, "a") == (["a", "b", "c"], 7)


def test_critical_path_isolated_source():
    g = Graph()
    g.add_node("solo")
    assert critical_path(g, "solo") == (["solo"], 0)


def test_critical_path_diamond():
    g = Graph()
    g.add_edge("a", "b", 1)
    g.add_edge("a", "c", 1)
    g.add_edge("b", "d", 1)
    g.add_edge("c", "d", 2)
    assert critical_path(g, "a") == (["a", "c", "d"], 3)


def test_critical_path_rejects_cycles():
    g = Graph()
    g.add_edge("a", "b", 1)
    g.add_edge("b", "a", 1)
    with pytest.raises(CycleError):
        critical_path(g, "a")


def test_critical_path_matches_brute_force():
    rng = random.Random(23)
    checked = 0
    while checked < 200:
        g = random_graph(rng)
        try:
            topo_sort(g)
        except CycleError:
            continue
        source = g.nodes[0]
        path, weight = critical_path(g, source)
        expected_path, expected_weight = brute_critical(g, source)
        assert (path, weight) == (expected_path, expected_weight)
        checked += 1


# --- shortest_path ---


def test_shortest_path_example():
    g = Graph()
    g.add_edge("a", "b", 1)
    g.add_edge("b", "c", 1)
    g.add_edge("a", "c", 3)
    assert shortest_path(g, "a", "c") == (["a", "b", "c"], 2)


def test_shortest_path_source_is_target():
    g = Graph()
    g.add_node("a")
    assert shortest_path(g, "a", "a") == (["a"], 0)


def test_shortest_path_unreachable():
    g = Graph()
    g.add_node("a")
    g.add_node("b")
    with pytest.raises(Unreachable):
        shortest_path(g, "a", "b")


def test_negative_weight_rejected_at_construction():
    g = Graph()
    with pytest.raises(NegativeWeight):
        g.add_edge("a", "b", -1)


def test_shortest_path_matches_brute_force():
    rng = random.Random(37)
    for _ in range(200):
        g = random_graph(rng, directed=rng.random() < 0.5)
        names = g.nodes
        source, target = rng.choice(names), rng.choice(names)
        expected = brute_shortest(g, source, target)
        if expected is None:
            with pytest.raises(Unreachable):
                shortest_path(g, source, target)
        else:
            path, dist = shortest_path(g, source, target)
            assert dist == expected[0]
            assert tuple(path) == expected[1]


# --- minimum_spanning_tree ---


def test_mst_triangle():
    g = Graph(directed=False)
    g.add_edge("a", "b", 1)
    g.add_edge("b", "c", 2)
    g.add_edge("a", "c", 3)
    edges, total = minimum_spanning_tree(g)
    assert total == 3
    assert edges == {("a", "b"), ("b", "c")}


def test_mst_single_node():
    g = Graph(directed=False)
    g.add_node("x")
    assert minimum_spanning_tree(g) == (set(), 0)


def test_mst_path_graph_keeps_all_edges():
    g = Graph(directed=False)
    g.add_edge("a", "b", 5)
    g.add_edge("b", "c", 7)
    edges, total = minimum_spanning_tree(g)
    assert edges == {("a", "b"), ("b", "c")}
    assert total == 12


def test_mst_disconnected():
    g = Graph(directed=False)
    g.add_edge("a", "b", 1)
    g.add_node("z")
    with pytest.raises(Disconnected):
        minimum_spanning_tree(g)


def test_mst_rejects_directed():
    with pytest.raises(GraphError):
        minimum_spanning_tree(Graph(directed=True))


def test_mst_matches_brute_force():
    rng = random.Random(53)
    checked = 0
    while checked < 200:
        g = random_graph(rng, directed=False, max_nodes=6, p=0.5)
        try:
            _, total = minimum_spanning_tree(g)
        except Disconnected:
            assert brute_mst_weight(g) is None
            continue
        assert total == brute_mst_weight(g)
        checked += 1


# --- detect_cycles ---


def test_cycles_two_cycle():
    g = Graph()
    g.add_edge("A", "B")
    g.add_edge("B", "A")
    assert detect_cycles(g) == [["A", "B"]]


def test_cycles_dag_empty():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("a", "c")
    assert detect_cycles(g) == []


def test_cycles_triangle_with_chord():
    g = Graph()
    g.add_edge("A", "B")
    g.add_edge("B", "C")
    g.add_edge("C", "A")
    g.add_edge("A", "C")
    # the chord A->C together with triangle edge C->A forms the 2-cycle
    # [A, C]; brute-force enumeration confirms both cycles
    assert detect_cycles(g) == brute_cycles(g, 8) == [["A", "C"], ["A", "B", "C"]]


def test_cycles_k3_both_directions():
    g = Graph()
    for u, v in itertools.permutations("abc", 2):
        g.add_edge(u, v)
    cycles = detect_cycles(g)
    assert [c for c in cycles if len(c) == 2] == [["a", "b"], ["a", "c"], ["b", "c"]]
    assert [c for c in cycles if len(c) == 3] == [["a", "b", "c"], ["a", "c", "b"]]
    assert len(cycles) == 5


def test_cycles_respect_length_bound():
    g = Graph()
    ring = ["a", "b", "c", "d", "e"]
    for i, u in enumerate(ring):
        g.add_edge(u, ring[(i + 1) % len(ring)])
    assert detect_cycles(g, max_len=4) == []
    assert detect_cycles(g, max_len=5) == [ring]


def test_cycles_max_len_validation():
    with pytest.raises(ValueError):
        detect_cycles(Graph(), max_len=1)


def test_cycles_match_brute_force():
    rng = random.Random(71)
    for _ in range(200):
        g = random_graph(rng, max_nodes=6, p=0.35)
        assert detect_cycles(g, max_len=8) == brute_cycles(g, 8)


# --- edge-list parsing ---


def test_parse_edge_list():
    text = """
    # call graph fragment
    a b 3
    b c 4.5
    a c    # defaults to weight 1
    lonely
    """
    g = Graph.parse_edge_list(text)
    assert g.nodes == ["a", "b", "c", "lonely"]
    assert g.weight("b", "c") == Fraction("4.5")
    assert g.weight("a", "c") == 1


def test_parse_edge_list_undirected():
    g = Graph.parse_edge_list("x y 2\n", directed=False)
    assert g.weight("y", "x") == 2
    assert g.edges() == [("x", "y", 2)]
    # the same edge re-added in reverse is listed once, with its new weight
    g = Graph.parse_edge_list("x y 2\ny x 5\n", directed=False)
    assert g.edges() == [("x", "y", 5)]
    assert g.weight("x", "y") == g.weight("y", "x") == 5


def test_parse_edge_list_errors():
    with pytest.raises(GraphError):
        Graph.parse_edge_list("a b c d\n")
    with pytest.raises(GraphError):
        Graph.parse_edge_list("a b xyz\n")
