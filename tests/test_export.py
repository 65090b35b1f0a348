import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latprof import export
from latprof.export import (
    BadIndexName,
    BulkWriter,
    CsvWriter,
    EventCounts,
    PerfNdjsonWriter,
    PerfScriptWriter,
    render_lock_table,
    render_text_report,
    to_records_ndjson,
    to_report_json,
)
from latprof.parsers import (
    GprofRow,
    ImageProfileRow,
    MutexStats,
    SyscallRecord,
    parse_perf_script,
)
from latprof.profile_agg import FlatProfile
from latprof.sched_analysis import ThreadState, WaitSummary
from latprof.trace_model import (
    Frame,
    TraceEvent,
    WaitReason,
    format_ns,
    parse_ns,
)

import export_reference
from export_reference import EventRecord, parse_bulk_ndjson, parse_csv
from folds import fed, written


def ev(comm="gzip", tid=1, cpu=0, ts="10.000000000", event="cpu-clock",
       args=None, period=1, stack=()):
    return TraceEvent(comm, tid, tid, cpu, parse_ns(ts), event,
                      args=args or {}, period=period, stack=tuple(stack))


# --- CSV ---


def test_csv_empty_is_header_only():
    assert written(CsvWriter, []) == "timestamp,comm,pid,tid,cpu,event,dso,symbol\n"


def test_csv_origin_event_is_zero():
    text = written(CsvWriter, [ev(ts="100.5")])
    assert text.splitlines()[1].startswith("0.000,gzip,1,1,0,cpu-clock")


def test_csv_quotes_comma_fields():
    text = written(CsvWriter, [ev(comm="a,b")])
    assert '"a,b"' in text


def test_csv_timestamp_truncates():
    events = [ev(ts="1.000000000"), ev(ts="1.0019999")]
    lines = written(CsvWriter, events).splitlines()
    assert lines[1].split(",")[0] == "0.000"
    assert lines[2].split(",")[0] == "0.001"  # truncation, not rounding


def test_csv_roundtrip_at_ms_precision():
    stack = (Frame(symbol="deflate", dso="libz.so"),)
    events = [ev(ts="5.1234567", stack=stack), ev(comm="scp", ts="6.5")]
    records = parse_csv(written(CsvWriter, events))
    assert records[0] == EventRecord("0.000", "gzip", 1, 1, 0, "cpu-clock",
                                     "libz.so", "deflate")
    assert records[1].timestamp_rel == "1.376"  # 6.5 - 5.1234567 truncated
    assert records[1].comm == "scp"


def test_csv_row_count():
    events = [ev(ts=f"{i}.0") for i in range(1, 8)]
    assert len(written(CsvWriter, events).splitlines()) == len(events) + 1


# --- bulk NDJSON ---


def test_bulk_empty():
    assert written(BulkWriter, []) == ""


def test_bulk_line_arity_and_trailing_newline():
    text = written(BulkWriter, [ev()])
    assert text.endswith("\n")
    assert len(text.splitlines()) == 2


def test_bulk_action_lines_carry_index():
    text = written(BulkWriter, [ev(), ev(ts="11.0")], "mytrace")
    lines = text.splitlines()
    for i in range(0, len(lines), 2):
        assert json.loads(lines[i]) == {"index": {"_index": "mytrace"}}


def test_bulk_bad_index_name():
    with pytest.raises(BadIndexName):
        written(BulkWriter, [ev()], "Bad Name!")


def test_bulk_roundtrip_preserves_all_fields():
    stack = (Frame(symbol="memcpy", dso="libc.so"),)
    events = [
        ev(ts="1.000000001", stack=stack),
        ev(comm="scp", tid=9, cpu=3, ts="1.500000002",
           event="sched:sched_switch", args={"prev_pid": "9"}),
    ]
    docs = parse_bulk_ndjson(written(BulkWriter, events))
    assert docs[0] == {
        "timestamp_rel": "0.000", "comm": "gzip", "pid": 1, "tid": 1, "cpu": 0,
        "event": "cpu-clock", "dso": "libc.so", "symbol": "memcpy", "ts_ns": 0,
    }
    assert docs[1]["ts_ns"] == 500_000_001  # full precision survives
    assert docs[1]["event"] == "sched:sched_switch"


# --- writers against their frozen per-event reference ---

# quotes, commas, line breaks, backslashes, NUL, non-ASCII, astral and lone
# surrogate characters: everything CSV quoting and JSON escaping act on
_TEXT = st.text(
    alphabet=st.sampled_from('ab :,;"\'\n\r\t\\\x00\x7fé€\u2028😀\ud800'), max_size=6)
_OPTIONAL_INT = st.none() | st.integers(0, 2**64)
_FRAME = st.builds(
    lambda address, symbol, offset, dso: Frame(
        0 if address is None and symbol is None else address, symbol, offset, dso),
    _OPTIONAL_INT, st.none() | _TEXT, _OPTIONAL_INT, st.none() | _TEXT)
_ARGS = st.dictionaries(_TEXT, _TEXT, max_size=3) | _TEXT.map(lambda raw: {"raw": raw})
# equal, sub-millisecond, second-boundary and very large timestamps, in any order
_NS = st.sampled_from([0, 1, 999_999, 1_000_000, 10**9 - 1, 10**9, 7 * 10**9 + 5]) \
    | st.integers(0, 2**80)
_ID = st.sampled_from([0, 1]) | st.integers(0, 2**31)
_EVENT = st.builds(
    lambda comm, pid, tid, cpu, ns, event, args, period, stack: TraceEvent(
        comm, pid, tid, cpu, ns, event, args=args, period=period,
        stack=tuple(stack)),
    _TEXT, _ID, _ID, _ID, _NS,
    _TEXT | st.sampled_from(["cpu-clock", "sched:sched_switch"]), _ARGS,
    st.integers(1, 2**40), st.lists(_FRAME, max_size=3))


@settings(max_examples=200, deadline=None)
@given(st.lists(_EVENT, max_size=8), st.from_regex(r"[a-z0-9_-]+", fullmatch=True))
def test_event_writers_match_reference(events, index_name):
    # the field-formatting writers give the bytes of the per-event
    # EventRecord/dict/json.dumps writers they replaced (empty input
    # included); each row depends only on its event and the earliest
    # timestamp, so events sorted by time check every row of any order
    events.sort(key=lambda e: e.ts)  # the first event added is the origin
    assert written(CsvWriter, events) == export_reference.to_csv(events)
    assert written(BulkWriter, events, index_name) == \
        export_reference.to_bulk_ndjson(events, index_name)
    assert written(PerfNdjsonWriter, events) == export_reference.perf_ndjson(events)


def test_event_writers_pass_rows_on_in_blocks(monkeypatch):
    # a block of two rows: seven events take four blocks (plus the CSV
    # header), and the text is the same as the reference's
    monkeypatch.setattr(export, "_BLOCK_ROWS", 2)
    stack = (Frame(symbol="memcpy", dso="libc.so"),)
    events = [ev(comm=f"c{i}", ts=f"{10 + i}.{i:09d}", stack=stack[:i % 2],
                 args={"k": str(i)}) for i in range(7)]
    for make, reference in (
            (CsvWriter, export_reference.to_csv),
            (BulkWriter, export_reference.to_bulk_ndjson),
            (PerfNdjsonWriter, export_reference.perf_ndjson)):
        blocks = []
        fed(make(blocks.append), events).flush()  # the origin is the first event
        assert len(blocks) == 4, make
        assert "".join(blocks) == reference(events), make


def test_pie_of_zero_total_weight_is_empty():
    # samples of period 0 only: no fraction of a zero total
    assert fed(EventCounts(), [ev(period=0), ev(comm="scp", period=0)]).pie() == {}


_FRACTION = st.fractions(min_value=0, max_value=10**6, max_denominator=10**6)
_PERCENT = st.fractions(min_value=0, max_value=100, max_denominator=10**4)


def _mutex_stats(mutex_id, locked, changed, contended, total_ms, extra_ms, flags):
    # keep the row's own invariants: counts within locked, avg = total/locked,
    # max >= avg
    avg_ms = total_ms / locked
    return MutexStats(mutex_id, locked, min(changed, locked), min(contended, locked),
                      total_ms, avg_ms, avg_ms + extra_ms, flags)


_RECORDS = {
    "gprof": st.builds(GprofRow, _PERCENT, _FRACTION, _FRACTION,
                       st.none() | st.integers(0, 10**9), st.none() | _FRACTION,
                       st.none() | _FRACTION, _TEXT),
    "oprofile": st.builds(ImageProfileRow, _TEXT, _PERCENT, _TEXT),
    "mutrace": st.builds(_mutex_stats, st.integers(0, 99), st.integers(1, 99),
                         st.integers(0, 99), st.integers(0, 99), _FRACTION, _FRACTION,
                         _TEXT),
    "strace": st.builds(SyscallRecord, _FRACTION, _TEXT, _TEXT, _TEXT,
                        st.none() | _FRACTION),
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_RECORDS)).flatmap(
    lambda fmt: st.tuples(st.just(fmt), st.lists(_RECORDS[fmt], max_size=4))))
def test_record_ndjson_matches_reference(fmt_records):
    fmt, records = fmt_records
    assert to_records_ndjson(records) == \
        export_reference.record_ndjson(fmt, records)


# --- histogram ---


def test_histogram_binning():
    events = [ev(ts="100.1"), ev(ts="100.4"), ev(ts="101.2")]
    view = fed(EventCounts(1), events).histogram()
    assert [(float(start), counts) for start, counts in view.bins] == [
        (0.0, {"gzip": 2}), (1.0, {"gzip": 1})]


def test_histogram_empty():
    assert fed(EventCounts(1), []).histogram().bins == []


def test_histogram_two_comms_one_bin():
    events = [ev(comm="a", ts="1.0"), ev(comm="b", ts="1.5")]
    ((_, counts),) = fed(EventCounts(2), events).histogram().bins
    assert counts == {"a": 1, "b": 1}


def test_histogram_count_conservation_randomized():
    rng = random.Random(77)
    for _ in range(200):
        events = [ev(comm=rng.choice("abc"), ts=f"{rng.uniform(0, 50):.6f}")
                  for _ in range(rng.randint(1, 60))]
        width = rng.choice([1, 2, Fraction(1, 2)])
        events.sort(key=lambda e: e.ts)  # the first event added is the origin
        assert fed(EventCounts(width), events).histogram().total() == len(events)


def test_histogram_rejects_bad_width():
    with pytest.raises(ValueError):
        EventCounts(0)


# --- pie ---


def test_pie_fractions():
    events = [ev(comm="gzip") for _ in range(3)] + [ev(comm="scp")]
    pie = fed(EventCounts(), events).pie()
    assert pie == {"gzip": Fraction(3, 4), "scp": Fraction(1, 4)}


def test_pie_single_key():
    assert fed(EventCounts(), [ev()]).pie() == {"gzip": 1}


def test_pie_normalization_randomized():
    rng = random.Random(83)
    for _ in range(200):
        events = [ev(comm=rng.choice("abcd"), period=rng.randint(1, 7))
                  for _ in range(rng.randint(1, 50))]
        assert sum(fed(EventCounts(), events).pie().values()) == 1


def test_pie_empty_input():
    assert fed(EventCounts(), []).pie() == {}


# --- text report ---


def test_report_empty_sections():
    text = render_text_report(None, None)
    assert text.count("(no data)") == 3
    assert "Flat profile" in text and "Lock contention" in text


def test_report_profile_ordering():
    weights = [2988, 1753, 1009, 760, 586, 550, 467, 431, 305, 226,
               166, 166, 154, 107, 99, 91, 83, 55, 4]
    events = [ev(comm="app", stack=(Frame(symbol=f"s{i:02d}", dso="d"),), period=w)
              for i, w in enumerate(weights)]
    text = render_text_report(fed(FlatProfile(), events).rows(), None, top_n=3)
    data_lines = [l for l in text.splitlines()
                  if l.strip() and l.split()[0].replace(".", "").isdigit()]
    assert [l.split()[0] for l in data_lines[:3]] == ["29.88", "17.53", "10.09"]


def test_report_mutrace_columns():
    from latprof.parsers import parse_mutrace
    import listings
    rows = parse_mutrace(listings.MUTRACE)
    text = "\n".join(render_lock_table(rows))
    assert "Locked  Changed    Cont." in text
    assert "45381.448" in text and "5672.681" in text and "M-.?-." in text


def test_report_wait_section():
    summary = WaitSummary()
    summary.add(5, 0, 4_000_000, ThreadState.SLEEPING, (), WaitReason.LOCK)
    text = render_text_report(None, summary)
    assert "Lock" in text
    assert "0.004000" in text


# --- combined JSON report ---


def test_report_json_bundles_views():
    events = [ev(), ev(comm="scp", ts="11.0")]
    doc = json.loads(to_report_json(
        profile=fed(FlatProfile(("comm",)), events).rows(),
        wait_summary=WaitSummary(),
        histogram=fed(EventCounts(1), events).histogram(),
        pie=fed(EventCounts(), events).pie(),
    ))
    assert set(doc) == {"profile", "wait_totals", "wait_stacks",
                        "wait_histogram_log2_us", "events_per_bin",
                        "utilization"}
    assert doc["profile"][0]["percent"] == 50.0


# --- perf script renderer round-trip ---


def test_render_parse_identity_no_stacks():
    events = [
        ev(ts="12345.678901234", event="sched:sched_switch",
           args={"prev_comm": "gzip", "prev_pid": "1", "prev_state": "S",
                 "next_comm": "swapper", "next_pid": "0"}),
        ev(comm="scp", tid=33, cpu=2, ts="12346.000000001", period=250,
           event="cpu-clock"),
        ev(ts="12347.5", event="syscalls:sys_enter_read", args={"raw": "fd: 3"}),
    ]
    res = parse_perf_script(written(PerfScriptWriter, events))
    assert res.errors == []
    for original, parsed in zip(events, res.events):
        assert (original.comm, original.pid, original.tid, original.cpu,
                original.ts, original.event, original.args, original.period) == \
            (parsed.comm, parsed.pid, parsed.tid, parsed.cpu,
             parsed.ts, parsed.event, parsed.args, parsed.period)


def test_render_parse_identity_with_stacks():
    stack = (
        Frame(address=0x400000, symbol="sem_wait", dso="simgen"),
        Frame(address=0x400040, symbol="main", dso="simgen"),
    )
    events = [ev(event="sched:sched_switch",
                 args={"prev_pid": "1", "prev_state": "S", "next_pid": "0"},
                 stack=stack)]
    res = parse_perf_script(written(PerfScriptWriter, events))
    assert res.errors == []
    assert res.events[0].stack == stack


def test_render_byte_determinism():
    events = [ev(ts="1.5"), ev(ts="2.5")]
    assert written(PerfScriptWriter, events) == written(PerfScriptWriter, events)


# visible characters: no whitespace (so no line break either), no control,
# format or surrogate code points
_VISIBLE = st.characters(blacklist_categories=("Z", "C"))
_WORD_CHARS = "abcxyzABCXYZ019_"
_PAYLOAD_KEY = st.builds(str.__add__, st.sampled_from("aZ_"), st.text(_WORD_CHARS, max_size=5))
_EVENT_PART = st.text(_WORD_CHARS + ".-", min_size=1, max_size=8)
_PAYLOAD_VALUE = st.text(_VISIBLE, max_size=6)
_FRAME_TEXT = st.text(st.characters(blacklist_categories=("Z", "C"),
                                    blacklist_characters="+()"), min_size=1, max_size=8)


def _renderable_events():
    """Events the pinned perf-script grammar can carry, so that parsing the
    rendered text must give back every field:

    * comm is non-empty visible text (no whitespace);
    * the event name fits the grammar's ``name[:name]`` of ``[A-Za-z0-9_.-]``;
    * period >= 1;
    * key=value args have identifier keys, values of visible text, and are
      not the single key "raw" (which renders as a raw payload);
    * a raw payload is visible text and spaces, starts with ':' (so its first
      token is neither ``key=value`` nor ``==>``) and has no trailing space;
    * frames have an address, a symbol that is not "[unknown]" and a dso,
      both non-empty visible text without '+', '(' or ')'.

    Timestamps cover [0, 2**64), with the second and range boundaries.
    """
    args = st.dictionaries(_PAYLOAD_KEY, _PAYLOAD_VALUE, max_size=4).filter(
        lambda d: list(d) != ["raw"])
    raw = st.text(_VISIBLE | st.just(" "), max_size=8).map(
        lambda text: {"raw": (":" + text).rstrip()})
    frame = st.builds(
        Frame, address=st.integers(0, 2**64),
        symbol=_FRAME_TEXT.filter(lambda text: text != "[unknown]"),
        offset=st.none() | st.integers(0, 2**64), dso=_FRAME_TEXT)
    ns = st.sampled_from([0, 1, 10**9 - 1, 10**9, 2**64 - 1]) | st.integers(0, 2**64 - 1)
    ids = st.integers(0, 2**63)
    return st.builds(
        lambda comm, pid, tid, cpu, ts, event, args, period, stack: TraceEvent(
            comm, pid, tid, cpu, ts, event, args=args, period=period,
            stack=tuple(stack)),
        st.text(_VISIBLE, min_size=1, max_size=8), ids, ids, st.integers(0, 2**31), ns,
        _EVENT_PART | st.builds("{}:{}".format, _EVENT_PART, _EVENT_PART),
        args | raw, st.integers(1, 2**63), st.lists(frame, max_size=3))


@settings(max_examples=200, deadline=None)
@given(st.lists(_renderable_events(), max_size=6))
def test_render_parse_round_trip(events):
    res = parse_perf_script(written(PerfScriptWriter, events))
    assert res.errors == []
    assert res.events == events
    # the acquisitions CSV's timestamp text round-trips over the same range
    assert [parse_ns(format_ns(e.ts)) for e in events] == [e.ts for e in events]
