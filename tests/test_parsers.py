import io
import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latprof import cli, parsers
from latprof.parsers import (
    GprofRow,
    MalformedLine,
    MalformedRow,
    MissingHeader,
    MutexStats,
    parse_gprof_flat,
    parse_mutrace,
    parse_oprofile_flat,
    parse_perf_script,
    parse_strace,
    perf_events,
    sniff_format,
)
from latprof.trace_model import STACK_ALL, STACK_LEAF, STACK_NONE, parse_ns

import listings
import perf_script_reference


# --- perf script ---


def test_perf_script_switch_header():
    # hand application of the header grammar
    res = parse_perf_script(listings.PERF_SCRIPT_SWITCH)
    assert res.errors == []
    (ev,) = res.events
    assert ev.comm == "gzip"
    assert ev.pid == 1234 and ev.tid == 1234
    assert ev.cpu == 2
    assert ev.ts == parse_ns("12345.678901")
    assert ev.event_class == "sched"
    assert ev.event_name == "sched_switch"
    assert ev.args["prev_state"] == "S"
    assert ev.args["next_pid"] == "0"
    assert ev.args["prev_comm"] == "gzip"
    assert ev.stack == ()


def test_perf_script_empty_input():
    assert parse_perf_script("").events == []


def test_perf_script_stack_frame():
    # hand application of the frame grammar
    text = (
        "gzip  1234/1234 [002] 12345.678901: sched:sched_switch: prev_pid=1234\n"
        "            ffffffff8105e123 schedule+0x25 ([kernel.kallsyms])\n"
        "\n"
    )
    res = parse_perf_script(text)
    (ev,) = res.events
    (frame,) = ev.stack
    assert frame.address == 0xFFFFFFFF8105E123
    assert frame.symbol == "schedule"
    assert frame.offset == 0x25
    assert frame.dso == "[kernel.kallsyms]"


def test_perf_script_stack_is_leaf_first():
    text = (
        "app 7/7 [000] 10.000000: cpu-clock:\n"
        "            1000 leaf (app)\n"
        "            2000 middle (app)\n"
        "            3000 main (app)\n"
    )
    (ev,) = parse_perf_script(text).events
    assert [f.symbol for f in ev.stack] == ["leaf", "middle", "main"]


def test_perf_script_alternate_tid_form_and_period():
    text = "gzip 555 [001] 1.000001: 250000 cpu-clock: \n"
    (ev,) = parse_perf_script(text).events
    assert ev.pid == ev.tid == 555
    assert ev.period == 250000
    assert ev.event == "cpu-clock"


def test_perf_script_raw_payload():
    text = "app 7/7 [000] 10.000000: syscalls:sys_enter_read: fd: 0x03, count: 512\n"
    (ev,) = parse_perf_script(text).events
    assert ev.args == {"raw": "fd: 0x03, count: 512"}


def test_perf_script_lenient_collects_errors():
    text = (
        "not a header line at all\n"
        + listings.PERF_SCRIPT_SWITCH + "\n"
        "   this frame is garbage\n"
    )
    res = parse_perf_script(text)
    assert len(res.events) == 1
    assert len(res.errors) == 2
    assert res.errors[0].lineno == 1
    assert res.errors[1].lineno == 3


def test_perf_script_strict_raises():
    with pytest.raises(MalformedLine):
        parse_perf_script("comm with spaces 1/1 [0] 1.0: x:\n", strict=True)


def test_perf_script_lenient_never_raises_on_noise():
    noise = "\x00\x01 weird\n\t\t\n]][[\n  99zz\n"
    res = parse_perf_script(noise)
    assert res.events == []
    assert res.errors  # reported, not raised


def test_perf_script_interns_frames_and_stacks(monkeypatch):
    from latprof import parsers

    built = []
    real = parsers._frame_from_match

    def counting(m, names):
        built.append(m.group(0))
        return real(m, names)

    monkeypatch.setattr(parsers, "_frame_from_match", counting)
    block = "\t600000 futex_wait ([kernel.kallsyms])\n\t600040 main (app)\n"
    text = (
        "app 7/7 [000] 1.0: sched:sched_switch: prev_pid=7 prev_state=S\n" + block
        + "\napp 7/7 [000] 2.0: sched:sched_switch: prev_pid=7 prev_state=S\n" + block
        + "\napp 7/7 [000] 3.0: cpu-clock: \n\t600040 main (app)\n"
    )
    interns = parsers.PerfInterns()
    first, second, sample = perf_events(text.splitlines(), [], interns=interns)
    assert first.stack == second.stack and first.stack is second.stack
    assert sample.stack[0] is first.stack[1]
    assert first.args == second.args and first.args is second.args
    assert sorted(built) == sorted(set(block.splitlines()))
    # the stacks intern is keyed by the stacks themselves: no line text
    assert list(interns.stacks) == [first.stack, sample.stack]
    for key, stack in interns.stacks.items():
        assert key is stack
        assert not any(isinstance(item, str) for item in key)


def test_perf_script_shares_comm_and_event_names():
    text = (
        "app 7/7 [000] 1.0: sched:sched_switch: prev_pid=7 prev_state=S\n\n"
        "app 7/7 [001] 2.0: sched:sched_switch: prev_pid=7 prev_state=S\n\n"
        "app 8/8 [000] 3.0: cpu-clock: \n\n"
        "other 9/9 [000] 4.0: cpu-clock: \n"
    )
    first, second, third, fourth = parse_perf_script(text).events
    assert first.comm is second.comm is third.comm == "app"
    assert first.event is second.event == "sched:sched_switch"
    assert first.event_name is second.event_name == "sched_switch"
    assert first.event_class is second.event_class == "sched"
    assert third.event is fourth.event == "cpu-clock"
    assert fourth.comm == "other"


def _perf_script_outcome(parse, source, strict, depth=None):
    """Events and errors of a lenient parse, or the first error of a strict
    one; `parse` is `perf_events` (given `depth`) or a parser that returns
    a PerfParse."""
    errors = []
    try:
        if parse is perf_events:
            events = list(perf_events(source, errors, strict, depth=depth))
        else:
            res = parse(source, strict=strict)
            events, errors = res.events, res.errors
    except MalformedLine as err:
        return "raised", err.lineno, err.reason, err.line
    return ([(ev, list(ev.args.items())) for ev in events],
            [(err.lineno, err.reason, err.line) for err in errors])


# whitespace inside a line, and characters that str.splitlines() also breaks on
_PERF_WS = st.sampled_from([" ", "  ", "\t", " ", " ", "　"])
_PERF_ANY_WS = st.one_of(_PERF_WS, st.sampled_from(["\x0b", "\x1c", "\x85", " "]))
_PERF_KEYVAL = st.sampled_from(["==>", "a=b=c", "k=", "prev_pid=7", "next_pid=²",
                                "prev_state=S", "_x=0x1f", "comm=a:b"])
_PERF_TOKEN = st.one_of(
    _PERF_KEYVAL,
    st.sampled_from(["1k=v", "=v", "a", "==>x"]),
    st.text(alphabet="ab_1=>:", max_size=5),
)
_PERF_PAYLOAD = st.builds(
    lambda lead, tokens: lead + "".join(tok + sep for tok, sep in tokens),
    st.sampled_from(["", " ", " "]),
    st.one_of(st.lists(st.tuples(_PERF_KEYVAL, _PERF_WS), max_size=4),
              st.lists(st.tuples(_PERF_TOKEN, _PERF_ANY_WS), max_size=4)),
)


def _perf_header(comms, ids, cpus, stamps, events, ws):
    return st.builds(
        lambda comm, ids, cpu, ts, period, event, ws, payload:
            f"{comm}{ws}{ids}{ws}[{cpu}]{ws}{ts}:{ws}{period}{event}:{payload}",
        st.sampled_from(comms), st.sampled_from(ids), st.sampled_from(cpus),
        st.sampled_from(stamps), st.sampled_from(["", "250 ", "1"]),
        st.sampled_from(events), ws, _PERF_PAYLOAD,
    )


_PERF_EVENTS = ["cpu-clock", "sched:sched_switch", "sched:sched_wakeup", "probe:a:b",
                "syscalls:sys_enter_read"]
_GOOD_PERF_HEADER = _perf_header(
    ["app", "swapper/0", "a-b"], ["7/7", "7", "0/0", "12/34"], ["000", "3"],
    ["1.5", "12.0000000019", "0.000000001", "٣.5"], _PERF_EVENTS, _PERF_WS)
_PERF_HEADER = st.one_of(
    _GOOD_PERF_HEADER,
    _perf_header(["app", "x y"], ["7/7", "²/1", "7/x"], ["000", "", "x"],
                 ["1.5", "1.", "1.5x"], _PERF_EVENTS + ["bad event"], _PERF_ANY_WS),
)


def _perf_frame(addrs, syms, dsos):
    return st.builds(
        lambda lead, addr, sym, dso, tail: f"{lead}{addr} {sym} ({dso}){tail}",
        st.sampled_from(["\t", "    ", "  "]), st.sampled_from(addrs),
        st.sampled_from(syms), st.sampled_from(dsos), st.sampled_from(["", " ", " "]),
    )


_GOOD_PERF_FRAME = _perf_frame(["400000", "ffffffff8105e123", "400040"],
                               ["main", "deflate+0x10", "[unknown]", "", "a b", "f+0xzz"],
                               ["libc.so", "", "[kernel.kallsyms]"])
_PERF_FRAME = st.one_of(
    _GOOD_PERF_FRAME,
    _perf_frame(["400000", "zz", ""], ["main"], ["libc.so", "a)b"]),
)
# a sample block (header and frames), a well-formed one with a deep
# stack, or any single line
_PERF_LINES = st.one_of(
    st.builds(lambda header, frames: [header] + frames,
              _PERF_HEADER, st.lists(_PERF_FRAME, max_size=3)),
    st.builds(lambda header, frames: [header] + frames,
              _GOOD_PERF_HEADER, st.lists(_GOOD_PERF_FRAME, min_size=2, max_size=3)),
    st.one_of(
        _PERF_HEADER,
        _PERF_FRAME,
        st.sampled_from(["", " ", "\t", " ", "   "]),
        st.text(alphabet=" \tab1:/[].=> \x85", max_size=12),
    ).map(lambda line: [line]),
)


# `depth` arguments: none given, and each way of building part of a stack
_DEPTHS = {
    "default": None,
    "all": lambda event: STACK_ALL,
    "leaf": lambda event: STACK_LEAF,
    "switch": lambda event: STACK_ALL if event == "sched:sched_switch" else STACK_NONE,
    "none": lambda event: STACK_NONE,
}
_FRAMES_KEPT = {STACK_ALL: None, STACK_LEAF: 1, STACK_NONE: 0}


# five depths, so each, the default among them, gets about 150 examples
@settings(max_examples=750, deadline=None)
@given(st.lists(_PERF_LINES, max_size=6), st.booleans(), st.sampled_from(list(_DEPTHS)),
       st.booleans(), st.sampled_from([1, parsers._CHECKED_LINES]))
def test_perf_script_matches_reference_parser(groups, as_text, depth, repeat, checked):
    # the interning parser gives the events, error lines and reasons of the
    # line-at-a-time reference, in lenient mode and (first error) in strict
    # mode, each stack cut to the depth asked for; repeating the lines
    # repeats frame lines across blocks, and a bound of 1 forgets each line
    # checked but not built as soon as another is
    lines = [line for group in groups for line in group] * (2 if repeat else 1)
    source = "\n".join(lines) if as_text else lines
    depth = _DEPTHS[depth]
    if depth is None and as_text:
        parse, parsed = parse_perf_script, source
    else:
        parse, parsed = perf_events, source.splitlines() if as_text else source
    for strict in (False, True):
        want = _perf_script_outcome(perf_script_reference.parse_perf_script, source, strict)
        if depth is not None and want[0] != "raised":
            for ev, _ in want[0]:
                ev.stack = ev.stack[:_FRAMES_KEPT[depth(ev.event)]]
        with unittest.mock.patch.object(parsers, "_CHECKED_LINES", checked):
            assert _perf_script_outcome(parse, parsed, strict, depth) == want


# every character `\s` matches that a frame line might hold, a line break
# among them, and none
_FRAME_WS = st.sampled_from(
    [" ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u3000", "\n", ""])
_FRAME_WS_RUN = st.lists(_FRAME_WS, max_size=3).map("".join)
_FRAME_LIKE_LINE = st.builds(
    lambda lead, addr, gap, sym, off, before, open_, dso, close, tail:
        f"{lead}{addr}{gap}{sym}{off}{before}{open_}{dso}{close}{tail}",
    _FRAME_WS_RUN,
    st.text(alphabet="0123456789abcdefABCDEFxgG", max_size=6),
    _FRAME_WS_RUN,
    st.one_of(st.sampled_from(["", "main", "[unknown]", "f+0x", "a b", "a(b)", "a)b", "("]),
              st.text(alphabet="ab+0x() \t\n", max_size=6)),
    st.sampled_from(["", "+0x", "+0x1f", "+0xAB", "+0xzz", "+0x(", "+"]),
    _FRAME_WS_RUN,
    st.sampled_from(["(", "", ")"]),
    st.one_of(st.sampled_from(["", "libc.so", "[kernel.kallsyms]", "a(b", "a)b", "a b"]),
              st.text(alphabet="ab() \n", max_size=4)),
    st.sampled_from([")", "", "("]),
    _FRAME_WS_RUN,
)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_FRAME_LIKE_LINE, st.text(alphabet=" \t\n\x85\u3000()+0xaF1z", max_size=24)))
@example("\t400000\n\nmain (app)")  # a line break inside a run of spaces
@example("\t400000 main\n\n(app)")
@example("\t400000 ma\nin (app)")  # a line break inside the symbol
@example("\t400000 main (app)\n")  # a final line break
@example("\t400000 main (app)\nx")
@example("\t400000 (app)")  # one space before "(": no symbol, no gap
@example("\t400000  (app)")  # an empty symbol
@example("\t400000 main+0x (app)")
@example("\t400000 f(x) (a(b))")
def test_frame_check_accepts_exactly_the_frame_grammars_lines(line):
    assert (parsers._FRAME_CHECK_RE.fullmatch(line) is None) == \
        (parsers._FRAME_RE.match(line) is None)


def test_perf_script_one_shot_iterator_matches_reference_parser():
    # a streamed source is read once, so a header that fails when its block
    # ends, lines later, must still be reported with its own text and line
    def lines(ids, cpu):
        return ["ok 7/7 [000] 0.5: cpu-clock:", "",
                f"app {ids} [{cpu}] 1.0: cpu-clock:", "\t400000 main (app)", "",
                "ok 7/7 [000] 2.0: cpu-clock:"]

    for ids, cpu in (("8/8", "1" * 5000), ("1" * 5000, "000"), ("8/" + "1" * 5000, "000")):
        source = lines(ids, cpu)
        for strict in (False, True):
            assert _perf_script_outcome(perf_events, iter(source), strict) == \
                _perf_script_outcome(perf_script_reference.parse_perf_script,
                                     iter(source), strict)
    for ids in ("1" * 5000, "8/" + "1" * 5000):
        source = lines(ids, "000")
        errors = []
        events = list(perf_events(iter(source), errors))
        assert [ev.ts for ev in events] == [500_000_000, 2_000_000_000]
        (err,) = errors
        assert (err.lineno, err.line) == (3, source[2]) and "digits" in err.reason
        with pytest.raises(MalformedLine) as info:
            list(perf_events(iter(source), [], strict=True))
        assert (info.value.lineno, info.value.line) == (3, source[2])


# --- gprof ---


def test_gprof_published_listing():
    rows = parse_gprof_flat(listings.GPROF_FLAT)
    assert len(rows) == 6
    r0 = rows[0]
    assert (r0.percent_time, r0.cumulative_s, r0.self_s) == (
        Fraction("41.64"), Fraction("0.12"), Fraction("0.12"))
    assert r0.calls is None and r0.self_ms_per_call is None
    assert r0.name == "main"
    r2 = rows[2]
    assert (r2.percent_time, r2.cumulative_s, r2.self_s, r2.calls,
            r2.self_ms_per_call, r2.total_ms_per_call, r2.name) == (
        Fraction("26.02"), Fraction("0.29"), Fraction("0.08"), 1,
        Fraction("75.47"), Fraction("166.02"), "bar()")
    # names with spaces survive
    assert rows[3].name == "std::operator|(std::_Ios_Openmode, std::_Ios_Openmode)"


def test_gprof_calls_without_per_call_cells():
    # the 5-column form: a calls count, both per-call cells blank
    text = (
        " time   seconds   seconds    calls  ms/call  ms/call  name\n"
        " 60.00      0.03     0.03      120                    spin_wait\n"
        " 40.00      0.05     0.02        3                    operator new(unsigned long)\n"
        "\n"
        " 99.00      9.99     9.99                             after_the_table\n"
    )
    assert parse_gprof_flat(text) == [
        GprofRow(Fraction("60.00"), Fraction("0.03"), Fraction("0.03"), 120, None, None,
                 "spin_wait"),
        GprofRow(Fraction("40.00"), Fraction("0.05"), Fraction("0.02"), 3, None, None,
                 "operator new(unsigned long)"),
    ]


def test_gprof_header_only():
    text = " time   seconds   seconds    calls  ms/call  ms/call  name\n"
    assert parse_gprof_flat(text) == []


def test_gprof_missing_header():
    with pytest.raises(MissingHeader):
        parse_gprof_flat("41.64 0.12 0.12 main\n")


def test_gprof_malformed_row():
    text = (
        " time   seconds   seconds    calls  ms/call  ms/call  name\n"
        " 41.64      0.12\n"
    )
    with pytest.raises(MalformedRow):
        parse_gprof_flat(text)


# --- oprofile / xenoprof ---


def test_oprofile_published_listing():
    rows = parse_oprofile_flat(listings.XENOPROF)
    assert [(r.symbol, r.percent, r.image) for r in rows] == [
        ("e1000_intr", Fraction("13.32"), "e1000"),
        ("tcp_v4_rcv", Fraction("8.23"), "vmlinux"),
        ("main", Fraction("5.47"), "rcv22"),
    ]


def test_oprofile_single_row():
    (row,) = parse_oprofile_flat("foo 100.0 app\n")
    assert row.percent == 100


def test_oprofile_missing_image():
    with pytest.raises(MalformedRow):
        parse_oprofile_flat("bar 12.5\n")


def test_oprofile_percent_over_100():
    with pytest.raises(MalformedRow):
        parse_oprofile_flat("bar 112.5 app\n")


# --- mutrace ---


def test_mutrace_published_row():
    (row,) = parse_mutrace(listings.MUTRACE)
    assert (row.mutex_id, row.locked, row.changed, row.contended) == (0, 8, 4, 4)
    assert row.total_ms == Fraction("45381.448")
    assert row.avg_ms == Fraction("5672.681")
    assert row.max_ms == Fraction("6303.132")
    assert row.flags == "M-.?-."
    # exact division consistency on the published row
    assert row.total_ms / row.locked == row.avg_ms


def test_mutrace_header_only():
    assert parse_mutrace("Mutex #   Locked  Changed    Cont.\n") == []


def test_mutrace_bad_column_count():
    text = listings.MUTRACE + "       1        2        1\n"
    with pytest.raises(MalformedRow):
        parse_mutrace(text)


def test_mutrace_invariant_violations_rejected():
    with pytest.raises(ValueError):
        MutexStats(0, locked=2, changed=5, contended=0,
                   total_ms=Fraction(0), avg_ms=Fraction(0), max_ms=Fraction(0))
    with pytest.raises(ValueError):
        MutexStats(0, locked=2, changed=0, contended=5,
                   total_ms=Fraction(0), avg_ms=Fraction(0), max_ms=Fraction(0))
    with pytest.raises(ValueError):  # avg wildly inconsistent with total/locked
        MutexStats(0, locked=4, changed=0, contended=0,
                   total_ms=Fraction(100), avg_ms=Fraction(99), max_ms=Fraction(100))


def test_mutrace_parsed_rows_satisfy_consistency():
    rows = parse_mutrace(listings.MUTRACE)
    for r in rows:
        if r.locked > 0:
            assert r.contended <= r.locked
            assert abs(r.avg_ms - r.total_ms / r.locked) <= Fraction(5, 10000) * r.locked


# --- strace ---


def test_strace_basic_line():
    # hand application of the grammar
    (rec,) = parse_strace('0.000045 read(3, ""..., 512) = 512 <0.000011>\n')
    assert rec.rel_ts == Fraction("0.000045")
    assert rec.name == "read"
    assert rec.args == '3, ""..., 512'
    assert rec.retval == "512"
    assert rec.duration_s == Fraction("0.000011")


def test_strace_first_line_zero_rel():
    recs = parse_strace(
        '0.000000 execve("/bin/ls", ["ls"], 0x7ffc /* 20 vars */) = 0 <0.000200>\n'
        "0.000300 brk(NULL) = 0x55f0 <0.000004>\n"
    )
    assert recs[0].rel_ts == 0
    assert recs[0].name == "execve"


def test_strace_missing_duration():
    (rec,) = parse_strace("0.000100 close(3) = 0\n")
    assert rec.duration_s is None


def test_strace_unfinished_resumed_merge():
    text = (
        "0.000050 read(4, <unfinished ...>\n"
        "0.000010 --- SIGALRM {si_signo=SIGALRM} ---\n"
        '0.000900 <... read resumed> "xyz", 64) = 3 <0.001000>\n'
    )
    (rec,) = parse_strace(text)
    assert rec.name == "read"
    assert rec.rel_ts == Fraction("0.000050")
    assert rec.retval == "3"
    assert rec.duration_s == Fraction("0.001")
    assert "xyz" in rec.args and rec.args.startswith("4, ")


def test_strace_resumed_without_unfinished():
    text = (
        "0.000100 close(3) = 0 <0.000002>\n"
        '0.000900 <... read resumed> "xyz", 64) = 3 <0.001000>\n'
    )
    with pytest.raises(MalformedRow) as info:
        parse_strace(text)
    assert info.value.lineno == 2
    assert info.value.reason == "resumed read without unfinished"


def test_strace_exit_annotation_skipped():
    recs = parse_strace(
        "0.000100 close(3) = 0 <0.000002>\n"
        "0.000200 +++ exited with 0 +++\n"
    )
    assert len(recs) == 1


def test_strace_negative_retval_text():
    (rec,) = parse_strace(
        "0.001000 open(\"/nope\", O_RDONLY) = -1 ENOENT (No such file or directory) <0.000009>\n"
    )
    assert rec.retval == "-1 ENOENT (No such file or directory)"
    assert rec.duration_s == Fraction("0.000009")


def test_strace_malformed_row():
    with pytest.raises(MalformedRow):
        parse_strace("this is not a syscall\n")
    # numbers past the int-string digit limit name their line too
    for line in ("1" * 5000 + '.5 read(3, "x", 1) = 1 <0.000010>',
                 '0.5 read(3, "x", 1) = 1 <' + "1" * 5000 + ".5>"):
        with pytest.raises(MalformedRow) as err:
            parse_strace("0.000045 read(3) = 0 <0.000011>\n" + line + "\n")
        assert err.value.lineno == 2


# --- sniffing ---


def test_sniff_formats():
    assert sniff_format(listings.GPROF_FLAT.splitlines()) == "gprof"
    assert sniff_format(listings.MUTRACE.splitlines()) == "mutrace"
    assert sniff_format(listings.XENOPROF.splitlines()) == "oprofile"
    assert sniff_format(listings.PERF_SCRIPT_SWITCH.splitlines()) == "perf"
    assert sniff_format(["0.000045 read(3) = 0 <0.000011>"]) == "strace"
    assert sniff_format(["tid,lock_id,request_ts,grant_ts,release_ts"]) == "acquisitions"
    assert sniff_format([]) is None
    # only the first SNIFF_LINES lines count
    lines = [""] * parsers.SNIFF_LINES + listings.PERF_SCRIPT_SWITCH.splitlines()
    assert sniff_format(lines) is None
    assert sniff_format(lines[1:]) == "perf"


def test_sniff_reads_first_lines_as_it_reads_text():
    # an input file is sniffed from the first lines its reader yields: the
    # same format as sniffing the whole text's lines, and all lines given back
    for text in (listings.GPROF_FLAT, listings.MUTRACE, listings.XENOPROF,
                 listings.PERF_SCRIPT_SWITCH, "0.000045 read(3) = 0 <0.000011>\n",
                 "tid,lock_id,request_ts,grant_ts,release_ts\n",
                 "\n" * parsers.SNIFF_LINES + listings.PERF_SCRIPT_SWITCH, ""):
        expected = sniff_format(text.splitlines())
        stream = io.BytesIO(text.encode("utf-8"))
        if expected is None:
            with pytest.raises(parsers.ParseError, match="cannot detect"):
                cli._sniffed_lines("in", stream, None)
        else:
            fmt, lines = cli._sniffed_lines("in", stream, None)
            assert fmt == expected
            assert list(lines) == text.splitlines()


@pytest.mark.parametrize("ids", ["1" * 5000, "1/" + "1" * 5000, "1" * 5000 + "/1"],
                         ids=["pid", "tid", "pid-and-tid"])
def test_perf_script_pid_past_the_digit_limit_is_a_malformed_line(ids):
    text = f"app {ids} [000] 1.0: cpu-clock:\nok 7/7 [000] 2.0: cpu-clock:\n"
    res = parse_perf_script(text)
    assert [ev.tid for ev in res.events] == [7]
    (err,) = res.errors
    assert err.lineno == 1 and "digits" in err.reason
    with pytest.raises(MalformedLine) as info:
        parse_perf_script(text, strict=True)
    assert info.value.lineno == 1
