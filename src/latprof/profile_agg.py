"""Aggregate sample events into flat profiles, call graphs, and call trees.

Stacks are leaf-first in memory (perf script print order); tree builders
reverse to root-first themselves.  Aggregation is period-weighted when
samples carry a period, count-weighted otherwise, and percents are exact
rationals of the weight totals so they always sum to 100.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

UNKNOWN = "[unknown]"


class NoSamples(Exception):
    pass


@dataclass(frozen=True)
class FlatProfileRow:
    """One aggregated profile row; key components not grouped on are None."""

    comm: str | None
    dso: str | None
    symbol: str | None
    samples: int
    weight: int
    percent: Fraction

    @property
    def key(self):
        return tuple(part for part in (self.comm, self.dso, self.symbol) if part is not None)


def _leaf_parts(event):
    leaf = event.leaf()
    dso = leaf.dso if leaf is not None and leaf.dso else UNKNOWN
    symbol = leaf.symbol if leaf is not None and leaf.symbol else UNKNOWN
    return dso, symbol


def flat_profile(events, group_by=("comm", "dso", "symbol")):
    """Aggregate cpu-clock sample events into percent-of-total rows.

    `group_by` selects any subset of (comm, dso, symbol); the leaf frame
    supplies dso and symbol.  Rows come back sorted by percent descending,
    ties by key ascending.  Raises NoSamples when there are no samples.
    """
    group_by = set(group_by)
    counts = {}
    weights = {}
    for ev in events:
        if ev.event_class != "cpu-clock":
            continue
        dso, symbol = _leaf_parts(ev)
        key = (
            ev.comm if "comm" in group_by else None,
            dso if "dso" in group_by else None,
            symbol if "symbol" in group_by else None,
        )
        counts[key] = counts.get(key, 0) + 1
        weights[key] = weights.get(key, 0) + ev.period
    if not counts:
        raise NoSamples("no cpu-clock sample events")
    total = sum(weights.values())
    rows = [
        FlatProfileRow(
            comm=key[0], dso=key[1], symbol=key[2],
            samples=counts[key], weight=weights[key],
            percent=Fraction(100 * weights[key], total),
        )
        for key in counts
    ]
    rows.sort(key=lambda r: (-r.percent, r.key))
    return rows


def merge_flat_profiles(*profiles):
    """Associative merge: weights add per key, percents are recomputed."""
    counts = {}
    weights = {}
    for rows in profiles:
        for r in rows:
            key = (r.comm, r.dso, r.symbol)
            counts[key] = counts.get(key, 0) + r.samples
            weights[key] = weights.get(key, 0) + r.weight
    if not counts:
        raise NoSamples("nothing to merge")
    total = sum(weights.values())
    rows = [
        FlatProfileRow(comm=c, dso=d, symbol=s,
                       samples=counts[(c, d, s)], weight=weights[(c, d, s)],
                       percent=Fraction(100 * weights[(c, d, s)], total))
        for (c, d, s) in counts
    ]
    rows.sort(key=lambda r: (-r.percent, r.key))
    return rows


def top_n(rows, n: int):
    """First n rows of an already-sorted profile."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return list(rows[:n])


@dataclass
class CallGraph:
    """Weighted caller->callee edges with inclusive/exclusive node weights."""

    edges: dict = field(default_factory=dict)  # (caller, callee) -> weight
    inclusive: dict = field(default_factory=dict)
    exclusive: dict = field(default_factory=dict)
    total_weight: int = 0

    @property
    def nodes(self):
        return sorted(set(self.inclusive))


def build_call_graph(events) -> CallGraph:
    """Fold stacks into a call graph.

    Per sample: each adjacent (parent, child) frame pair adds the period to
    that edge, the leaf adds it to its exclusive weight, and every symbol on
    the stack adds it to its inclusive weight at most once (recursive frames
    deduplicated per sample).  Events without stacks contribute nothing.
    """
    g = CallGraph()
    for ev in events:
        if not ev.stack:
            continue
        period = ev.period
        symbols = [f.symbol if f.symbol else UNKNOWN for f in ev.stack]
        root_first = list(reversed(symbols))
        for parent, child in zip(root_first, root_first[1:]):
            g.edges[(parent, child)] = g.edges.get((parent, child), 0) + period
        for sym in set(root_first):
            g.inclusive[sym] = g.inclusive.get(sym, 0) + period
        leaf = symbols[0]
        g.exclusive[leaf] = g.exclusive.get(leaf, 0) + period
        for sym in root_first:
            g.exclusive.setdefault(sym, 0)
        g.total_weight += period
    return g


@dataclass
class CallTreeNode:
    symbol: str
    dso: str | None
    weight: int = 0
    children: list = field(default_factory=list)  # ordered by first appearance

    def child(self, symbol, dso):
        for node in self.children:
            if node.symbol == symbol and node.dso == dso:
                return node
        node = CallTreeNode(symbol=symbol, dso=dso)
        self.children.append(node)
        return node


@dataclass
class DynamicCallTree:
    """Rooted per-thread tree of observed stack prefixes.

    `root` is a synthetic container whose weight equals the total samples
    for the tid; its children are the observed outermost frames.
    """

    tid: int
    root: CallTreeNode = field(default_factory=lambda: CallTreeNode("(root)", None))


def build_dynamic_call_tree(events, tid: int) -> DynamicCallTree:
    """Insert each of the tid's sampled stacks root-first, adding weights."""
    tree = DynamicCallTree(tid=tid)
    for ev in events:
        if ev.tid != tid or not ev.stack:
            continue
        tree.root.weight += ev.period
        node = tree.root
        for frame in reversed(ev.stack):
            sym = frame.display_symbol() if frame.symbol else UNKNOWN
            node = node.child(sym, frame.dso)
            node.weight += ev.period
    if tree.root.weight == 0:
        raise NoSamples(f"no stack samples for tid {tid}")
    return tree
