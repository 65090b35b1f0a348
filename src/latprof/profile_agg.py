"""Aggregate sample events into flat profiles and call graphs.

Stacks are leaf-first in memory (perf script print order); the call graph
reverses them to root-first itself.  Aggregation is period-weighted when
samples carry a period, count-weighted otherwise, and percents are exact
rationals of the weight totals so they always sum to 100.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

UNKNOWN = "[unknown]"


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
    ties by key ascending; no samples give no rows.
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
