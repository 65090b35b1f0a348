"""Every interval of a scheduler walk, kept per tid, for tests that look at
the intervals themselves and not only at the wait summary."""

from collections import namedtuple

from latprof.sched_analysis import SchedWalk, canonical_sort

# one interval as a SchedWalk passes it to its sink, less the tid
Interval = namedtuple("Interval", "start end state stack reason truncated")


def walk_intervals(events, config=None, ordered=False):
    """Walk `events` in canonical order and return the finished walk and
    {tid: [Interval]}, each tid's intervals in time order.  Every interval
    also reaches `walk.summary`, as with the walk's default sink.  With
    `ordered`, `events` is an iterable already in canonical order, read one
    event at a time and not held."""
    by_tid = {}

    def collect(tid, start, end, state, stack, reason, truncated):
        by_tid.setdefault(tid, []).append(
            Interval(start, end, state, stack, reason, truncated))
        walk.summary.add(tid, start, end, state, stack, reason, truncated)

    walk = SchedWalk(config, collect)
    for ev in events if ordered else canonical_sort(events):
        walk.add(ev)
    walk.finish()
    return walk, by_tid
