"""Generic directed/undirected weighted graph algorithms.

Node ids are opaque text tokens and weights exact rationals, so the same
machinery serves symbol call graphs, dependency graphs ingested from edge
lists, and lock-order graphs without numeric drift.  Every algorithm breaks
ties deterministically (lexicographically smallest node id / node sequence)
so golden outputs are stable.
"""

from __future__ import annotations

import heapq
from fractions import Fraction


class GraphError(ValueError):
    """A graph input or query the algorithms cannot answer."""


class CycleError(GraphError):
    """Raised where a DAG was required; carries one witness cycle."""

    def __init__(self, cycle):
        super().__init__(f"graph contains a cycle: {' -> '.join(map(str, cycle))}")
        self.cycle = list(cycle)


class Unreachable(GraphError):
    pass


class Disconnected(GraphError):
    pass


class NegativeWeight(GraphError):
    pass


class Graph:
    """A weighted graph; at most one edge per node pair.

    Node ids are opaque orderable tokens (text from edge lists, integers
    for lock ids).  Undirected graphs store each edge under both
    endpoints and list it once, under its sorted endpoint pair.  Negative
    weights are rejected at construction time.
    """

    def __init__(self, directed: bool = True):
        self.directed = directed
        self._adj: dict = {}  # node -> {neighbor: weight}

    def add_node(self, node: str) -> None:
        self._adj.setdefault(node, {})

    def add_edge(self, u: str, v: str, weight=1) -> None:
        w = Fraction(weight)
        if w < 0:
            raise NegativeWeight(f"edge {u}->{v} has negative weight {w}")
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = w
        if not self.directed:
            self._adj[v][u] = w

    @property
    def nodes(self):
        return sorted(self._adj)

    def edges(self):
        """Edges as (u, v, weight), canonical order."""
        adj = self._adj
        return [(u, v, w) for u in sorted(adj) for v, w in sorted(adj[u].items())
                if self.directed or u <= v]

    def neighbors(self, node: str) -> dict:
        return self._adj.get(node, {})

    def has_node(self, node: str) -> bool:
        return node in self._adj

    def weight(self, u: str, v: str) -> Fraction:
        return self._adj[u][v]

    @classmethod
    def parse_edge_list(cls, text: str, directed: bool = True) -> "Graph":
        """Build from ``src dst weight`` lines; ``#`` starts a comment.

        The weight token is optional and defaults to 1.  A lone node id on a
        line adds an isolated node.
        """
        g = cls(directed=directed)
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) == 1:
                g.add_node(tokens[0])
            elif len(tokens) in (2, 3):
                try:
                    w = Fraction(tokens[2]) if len(tokens) == 3 else Fraction(1)
                except ValueError as exc:
                    raise GraphError(f"line {lineno}: bad weight {tokens[2]!r}") from exc
                g.add_edge(tokens[0], tokens[1], w)
            else:
                raise GraphError(f"line {lineno}: expected 'src dst [weight]': {line!r}")
        return g


def _require_directed(g: Graph, op: str) -> None:
    if not g.directed:
        raise GraphError(f"{op} requires a directed graph")


def _find_witness_cycle(g: Graph, candidates) -> list:
    """One cycle in the subgraph induced by `candidates`, via DFS coloring."""
    candidates = set(candidates)
    color = {}

    def restricted(node):
        return iter(sorted(n for n in g.neighbors(node) if n in candidates))

    for root in sorted(candidates):
        if root in color:
            continue
        color[root] = "gray"
        path = [root]
        stack = [restricted(root)]
        while stack:
            for nxt in stack[-1]:
                if color.get(nxt) == "gray":
                    cycle = path[path.index(nxt):]
                    smallest = cycle.index(min(cycle))
                    return cycle[smallest:] + cycle[:smallest]
                if nxt not in color:
                    color[nxt] = "gray"
                    path.append(nxt)
                    stack.append(restricted(nxt))
                    break
            else:
                color[path.pop()] = "black"
                stack.pop()
    raise AssertionError("no cycle among candidate nodes")


def topo_sort(g: Graph) -> list:
    """Kahn's algorithm; equal-rank nodes emerge in id order."""
    _require_directed(g, "topo_sort")
    indegree = {n: 0 for n in g.nodes}
    for _, v, _ in g.edges():
        indegree[v] += 1
    ready = [n for n, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for nxt in sorted(g.neighbors(node)):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) < len(indegree):
        remaining = [n for n, d in indegree.items() if d > 0]
        raise CycleError(_find_witness_cycle(g, remaining))
    return order


def critical_path(g: Graph, source: str):
    """Maximum-total-weight path from `source` in a DAG.

    Returns (path, total weight); among equal-weight maxima the
    lexicographically smallest node sequence wins.
    """
    _require_directed(g, "critical_path")
    order = topo_sort(g)  # raises CycleError on cyclic input
    if not g.has_node(source):
        raise Unreachable(f"source {source!r} not in graph")
    best = {source: (Fraction(0), (source,))}
    for node in order:
        if node not in best:
            continue
        w, path = best[node]
        for nxt, edge_w in sorted(g.neighbors(node).items()):
            cand = (w + edge_w, path + (nxt,))
            cur = best.get(nxt)
            if cur is None or cand[0] > cur[0] or (cand[0] == cur[0] and cand[1] < cur[1]):
                best[nxt] = cand
    best_weight = max(w for w, _ in best.values())
    path = min(p for w, p in best.values() if w == best_weight)
    return list(path), best_weight


def shortest_path(g: Graph, source: str, target: str):
    """Dijkstra; returns (path, distance); ties resolve to the smallest path."""
    if not (g.has_node(source) and g.has_node(target)):
        raise Unreachable(f"{source!r} or {target!r} not in graph")
    heap = [(Fraction(0), (source,))]
    settled = set()
    while heap:
        dist, path = heapq.heappop(heap)
        node = path[-1]
        if node == target:
            return list(path), dist
        if node in settled:
            continue
        settled.add(node)
        for nxt, w in g.neighbors(node).items():
            if nxt not in settled:
                heapq.heappush(heap, (dist + w, path + (nxt,)))
    raise Unreachable(f"no path from {source!r} to {target!r}")


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def minimum_spanning_tree(g: Graph):
    """Kruskal; returns (set of (u, v) edges, total weight)."""
    if g.directed:
        raise GraphError("minimum_spanning_tree requires an undirected graph")
    nodes = g.nodes
    if len(nodes) <= 1:
        return set(), Fraction(0)
    uf = _UnionFind(nodes)
    chosen = set()
    total = Fraction(0)
    for u, v, w in sorted(g.edges(), key=lambda e: (e[2], e[0], e[1])):
        if uf.union(u, v):
            chosen.add((u, v))
            total += w
    if len(chosen) != len(nodes) - 1:
        raise Disconnected("graph is not connected")
    return chosen, total


def detect_cycles(g: Graph, max_len: int = 8) -> list:
    """All elementary cycles of length <= max_len, once each.

    Each cycle is reported in canonical rotation (smallest id first); the
    list is sorted by (length, node sequence).  Self-loops count as
    length-1 cycles.
    """
    _require_directed(g, "detect_cycles")
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    cycles = []
    nodes = g.nodes
    for start in nodes:
        if start in g.neighbors(start):
            cycles.append([start])
        # DFS through nodes strictly greater than start, so every cycle is
        # found exactly once, rooted at its smallest node.
        stack = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for nxt in sorted(g.neighbors(node), reverse=True):
                if nxt == start and len(path) >= 2:
                    cycles.append(path[:])
                elif nxt > start and nxt not in path and len(path) < max_len:
                    stack.append((nxt, path + [nxt]))
    cycles.sort(key=lambda c: (len(c), c))
    return cycles
