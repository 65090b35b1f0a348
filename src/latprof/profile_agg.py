"""Aggregate sample events into flat profiles and call graphs.

`FlatProfile` is a fold, given one event at a time as the CLI streams
them; `build_call_graph` reads a list of events.  Stacks are leaf-first
in memory (perf script print order); the call graph reverses them to
root-first itself.  Aggregation is period-weighted when samples carry a
period, count-weighted otherwise, and percents are exact rationals of
the weight totals so they always sum to 100.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .trace_model import STACK_LEAF, STACK_NONE

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


class FlatProfile:
    """A flat profile folded one event at a time: `add` each event (only
    cpu-clock samples count), then `rows()`.

    `group_by` selects any subset of (comm, dso, symbol); the leaf frame
    supplies dso and symbol.
    """

    def __init__(self, group_by=("comm", "dso", "symbol")):
        group_by = set(group_by)
        self._comm = "comm" in group_by
        self._dso = "dso" in group_by
        self._symbol = "symbol" in group_by
        self._tally = {}  # key -> [samples, weight]

    @staticmethod
    def stack_depth(event_class, event_name) -> int:
        """What `add` reads of an event's stack: the leaf of a cpu-clock
        sample's, nothing of others'."""
        return STACK_LEAF if event_class == "cpu-clock" else STACK_NONE

    def add(self, ev) -> None:
        if ev.event_class != "cpu-clock":
            return
        dso, symbol = _leaf_parts(ev)
        key = (
            ev.comm if self._comm else None,
            dso if self._dso else None,
            symbol if self._symbol else None,
        )
        cur = self._tally.get(key)
        if cur is None:
            cur = self._tally[key] = [0, 0]
        cur[0] += 1
        cur[1] += ev.period

    def rows(self) -> list:
        """Percent-of-total rows sorted by percent descending, ties by key
        ascending; no samples, or samples of total period 0, give no rows."""
        total = sum(weight for _, weight in self._tally.values())
        if not total:  # no percent of a zero total
            return []
        rows = [
            FlatProfileRow(
                comm=key[0], dso=key[1], symbol=key[2],
                samples=samples, weight=weight,
                percent=Fraction(100 * weight, total),
            )
            for key, (samples, weight) in self._tally.items()
        ]
        # every percent is 100 * weight / total with one total: weight
        # order is percent order, and ints compare faster than Fractions
        rows.sort(key=lambda r: (-r.weight, r.key))
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
