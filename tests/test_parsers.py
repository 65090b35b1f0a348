import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latprof import parsers
from latprof.parsers import (
    MalformedLine,
    MalformedRow,
    MissingHeader,
    MutexStats,
    parse_gprof_flat,
    parse_mutrace,
    parse_oprofile_flat,
    parse_perf_script,
    parse_strace,
    sniff_format,
)
from latprof.trace_model import parse_ns

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

    def counting(m):
        built.append(m.group(0))
        return real(m)

    monkeypatch.setattr(parsers, "_frame_from_match", counting)
    block = "\t600000 futex_wait ([kernel.kallsyms])\n\t600040 main (app)\n"
    text = (
        "app 7/7 [000] 1.0: sched:sched_switch: prev_pid=7 prev_state=S\n" + block
        + "\napp 7/7 [000] 2.0: sched:sched_switch: prev_pid=7 prev_state=S\n" + block
        + "\napp 7/7 [000] 3.0: cpu-clock: \n\t600040 main (app)\n"
    )
    first, second, sample = parse_perf_script(text).events
    assert first.stack == second.stack and first.stack is second.stack
    assert sample.stack[0] is first.stack[1]
    assert first.args == second.args and first.args is not second.args
    assert sorted(built) == sorted(set(block.splitlines()))


def _perf_script_outcome(parse, source, strict):
    """Events and errors of a lenient parse, or the first error of a strict one."""
    try:
        res = parse(source, strict=strict)
    except MalformedLine as err:
        return "raised", err.lineno, err.reason, err.line
    return ([(ev, list(ev.args.items())) for ev in res.events],
            [(err.lineno, err.reason, err.line) for err in res.errors])


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
_PERF_HEADER = st.one_of(
    _perf_header(["app", "swapper/0", "a-b"], ["7/7", "7", "0/0", "12/34"],
                 ["000", "3"], ["1.5", "12.0000000019", "0.000000001", "٣.5"],
                 _PERF_EVENTS, _PERF_WS),
    _perf_header(["app", "x y"], ["7/7", "²/1", "7/x"], ["000", "", "x"],
                 ["1.5", "1.", "1.5x"], _PERF_EVENTS + ["bad event"], _PERF_ANY_WS),
)


def _perf_frame(addrs, syms, dsos):
    return st.builds(
        lambda lead, addr, sym, dso, tail: f"{lead}{addr} {sym} ({dso}){tail}",
        st.sampled_from(["\t", "    ", "  "]), st.sampled_from(addrs),
        st.sampled_from(syms), st.sampled_from(dsos), st.sampled_from(["", " ", " "]),
    )


_PERF_FRAME = st.one_of(
    _perf_frame(["400000", "ffffffff8105e123", "400040"],
                ["main", "deflate+0x10", "[unknown]", "", "a b", "f+0xzz"],
                ["libc.so", "", "[kernel.kallsyms]"]),
    _perf_frame(["400000", "zz", ""], ["main"], ["libc.so", "a)b"]),
)
# a sample block (header and frames), or any single line
_PERF_LINES = st.one_of(
    st.builds(lambda header, frames: [header] + frames,
              _PERF_HEADER, st.lists(_PERF_FRAME, max_size=3)),
    st.one_of(
        _PERF_HEADER,
        _PERF_FRAME,
        st.sampled_from(["", " ", "\t", " ", "   "]),
        st.text(alphabet=" \tab1:/[].=> \x85", max_size=12),
    ).map(lambda line: [line]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_PERF_LINES, max_size=6), st.booleans())
def test_perf_script_matches_reference_parser(groups, as_text):
    # the interning parser gives the events, error lines and reasons of the
    # line-at-a-time reference, in lenient mode and (first error) in strict mode
    lines = [line for group in groups for line in group]
    source = "\n".join(lines) if as_text else [line + "\n" for line in lines]
    for strict in (False, True):
        assert _perf_script_outcome(parse_perf_script, source, strict) == \
            _perf_script_outcome(perf_script_reference.parse_perf_script, source, strict)


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
    assert rec.args_text == '3, ""..., 512'
    assert rec.retval == "512"
    assert rec.wall_duration_s == Fraction("0.000011")


def test_strace_first_line_zero_rel():
    recs = parse_strace(
        '0.000000 execve("/bin/ls", ["ls"], 0x7ffc /* 20 vars */) = 0 <0.000200>\n'
        "0.000300 brk(NULL) = 0x55f0 <0.000004>\n"
    )
    assert recs[0].rel_ts == 0
    assert recs[0].name == "execve"


def test_strace_missing_duration():
    (rec,) = parse_strace("0.000100 close(3) = 0\n")
    assert rec.wall_duration_s is None


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
    assert rec.wall_duration_s == Fraction("0.001")
    assert "xyz" in rec.args_text and rec.args_text.startswith("4, ")


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
    assert rec.wall_duration_s == Fraction("0.000009")


def test_strace_malformed_row():
    with pytest.raises(MalformedRow):
        parse_strace("this is not a syscall\n")


# --- sniffing ---


def test_sniff_formats():
    assert sniff_format(listings.GPROF_FLAT) == "gprof"
    assert sniff_format(listings.MUTRACE) == "mutrace"
    assert sniff_format(listings.XENOPROF) == "oprofile"
    assert sniff_format(listings.PERF_SCRIPT_SWITCH) == "perf"
    assert sniff_format("0.000045 read(3) = 0 <0.000011>\n") == "strace"
    assert sniff_format("tid,lock_id,request_ts,grant_ts,release_ts\n") == "acquisitions"
    assert sniff_format("") is None


_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85  "


@settings(max_examples=300)
@given(st.text(alphabet="ab " + _LINE_BREAKS, max_size=300), st.integers(0, 120))
def test_sniff_reads_the_same_first_lines_as_a_whole_split(text, prefix_chars):
    # a small prefix puts every kind of line break, and a cut "\r\n" pair,
    # at the prefix boundary
    with unittest.mock.patch.object(parsers, "_SNIFF_PREFIX_CHARS", prefix_chars):
        assert parsers._first_lines(text) == text.splitlines()[:50]


def test_sniff_first_lines_across_the_prefix_boundary():
    cut = parsers._SNIFF_PREFIX_CHARS
    for lines_before in (10, 49, 50, 60):
        for sep in ("\r\n", "\r", "\n", " "):
            head = sep.join([listings.PERF_SCRIPT_SWITCH] * lines_before) + sep
            for pad in range(-2, 3):
                # the break after the next line starts at cut - 1 + pad, so
                # a "\r\n" with pad 0 is split by the cut
                text = head + "y" * (cut - 1 + pad - len(head)) + sep + sep.join(["z"] * 60)
                assert parsers._first_lines(text) == text.splitlines()[:50]
                assert sniff_format(text) == "perf"


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
