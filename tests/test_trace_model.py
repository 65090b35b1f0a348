import random

import pytest

from latprof.export import CsvWriter
from latprof.trace_model import (
    Frame,
    TraceEvent,
    classify_event,
    format_ns,
    parse_ns,
)

from export_reference import parse_csv
from folds import written


def test_classify_event_prefixes():
    assert classify_event("sched:sched_switch") == "sched"
    assert classify_event("cpu-clock") == "cpu-clock"
    assert classify_event("block:block_rq_issue") == "block"
    assert classify_event("syscalls:sys_enter_read") == "syscalls"
    assert classify_event("net:net_dev_xmit") == "net"
    assert classify_event("sock:inet_sock_set_state") == "sock"
    assert classify_event("skb:kfree_skb") == "skb"
    assert classify_event("scsi:scsi_dispatch_cmd_start") == "scsi"
    assert classify_event("ext4:ext4_da_write_begin") == "ext4"


def test_classify_event_unrecognized_is_other():
    assert classify_event("cycles") == "other"
    assert classify_event("probe:tcp_sendmsg") == "other"
    assert classify_event("weird:thing") == "other"


def test_classify_event_pure():
    names = ["sched:x", "cpu-clock", "foo", "block:y"]
    assert [classify_event(n) for n in names] == [classify_event(n) for n in names]


def test_timestamp_parse_exact():
    assert parse_ns("12345.678901") == 12345_678_901_000
    assert parse_ns("0.000000001") == 1
    assert parse_ns("7") == 7_000_000_000
    # truncation beyond nanoseconds, not rounding
    assert parse_ns("0.0000000019") == 1


def test_timestamp_rejects_negative_and_garbage():
    with pytest.raises(ValueError):
        TraceEvent("x", 1, 1, 0, -1, "cpu-clock")
    with pytest.raises(ValueError):
        parse_ns("-1.0")
    with pytest.raises(ValueError):
        parse_ns("abc")


def test_timestamp_parse_rejects_non_ascii_digits():
    # str.isdigit accepts superscripts that int() does not
    for text in ("1.²", "².5", "²"):
        with pytest.raises(ValueError, match="bad timestamp"):
            parse_ns(text)


def test_timestamp_format_truncates_milliseconds():
    # the ss.SSS form export writes: truncated below a millisecond, not rounded
    stamps = [0, parse_ns("1.2349"), 999_999, parse_ns("12.300")]
    events = [TraceEvent("x", 1, 1, 0, ts, "cpu-clock") for ts in stamps]
    rows = parse_csv(written(CsvWriter, events))  # the first event is the origin
    assert [r.timestamp_rel for r in rows] == ["0.000", "1.234", "0.000", "12.300"]


def test_timestamp_roundtrip_full_precision():
    assert format_ns(0) == "0.000000000"
    assert format_ns(999_999) == "0.000999999"
    assert format_ns(12_300_000_000) == "12.300000000"
    rng = random.Random(7)
    for _ in range(2000):
        ns = rng.randrange(0, 10**6 * 10**9)
        assert parse_ns(format_ns(ns)) == ns


def test_frame_requires_symbol_or_address():
    Frame(address=0x1000)
    Frame(symbol="main")
    Frame(0, None, 0, "libc.so")
    for args, kwargs in (((), {}), ((), {"dso": "x"}), ((None, None, 0x10, "x"), {})):
        with pytest.raises(ValueError, match="frame needs a symbol or an address"):
            Frame(*args, **kwargs)


def test_frame_is_an_immutable_named_tuple():
    frame = Frame(address=0x400000, symbol="main", offset=0x10, dso="app")
    positional = Frame(0x400000, "main", 0x10, "app")
    assert frame == positional and hash(frame) == hash(positional)
    assert frame == (0x400000, "main", 0x10, "app")
    assert hash(frame) == hash((0x400000, "main", 0x10, "app"))
    assert frame != Frame(0x400000, "main", 0x11, "app")
    assert (frame.address, frame.symbol, frame.offset, frame.dso) == tuple(frame)
    assert Frame(symbol="main") == (None, "main", None, None)
    assert repr(frame) == "Frame(address=4194304, symbol='main', offset=16, dso='app')"
    for name in ("address", "symbol", "offset", "dso", "other"):
        with pytest.raises(AttributeError):
            setattr(frame, name, 1)
    assert frame == (0x400000, "main", 0x10, "app")


def test_frame_display_symbol():
    assert Frame(0x1F, "main").display_symbol() == "main"
    assert Frame(symbol="main", dso="app").display_symbol() == "main"
    assert Frame(address=0x1F, dso="app").display_symbol() == "0x1f"
    assert Frame(address=0).display_symbol() == "0x0"
    assert Frame(0x1F, "").display_symbol() == ""


def test_event_derives_class_and_name():
    ev = TraceEvent("gzip", 1, 1, 0, 0, "sched:sched_switch")
    assert ev.event_class == "sched"
    assert ev.event_name == "sched_switch"
    sample = TraceEvent("gzip", 1, 1, 0, 0, "cpu-clock")
    assert sample.event_class == "cpu-clock"
    assert sample.event_name == "cpu-clock"


def test_event_class_and_name_are_stored_not_compared():
    for event, cls, name in [("cpu-clock", "cpu-clock", "cpu-clock"),
                             ("sched:sched_switch", "sched", "sched_switch"),
                             ("syscalls:sys_enter:x", "syscalls", "sys_enter:x"),
                             ("probe:a:b", "other", "a:b")]:
        ev = TraceEvent("app", 1, 1, 0, 0, event)
        assert (ev.event_class, ev.event_name) == (cls, name)
        assert (ev.event_class, ev.event_name) == (
            classify_event(event), event.split(":", 1)[-1])
        assert "event_class" not in repr(ev)
        assert ev == TraceEvent("app", 1, 1, 0, 0, event)


def test_event_rejects_nonpositive_ids():
    with pytest.raises(ValueError):
        TraceEvent("x", -1, 1, 0, 0, "cpu-clock")
    with pytest.raises(ValueError):
        TraceEvent("x", 1, -1, 0, 0, "cpu-clock")


def test_event_rejects_negative_time():
    with pytest.raises(ValueError, match="timestamp must be non-negative, got -1"):
        TraceEvent("x", 1, 1, 0, -1, "cpu-clock")
    assert TraceEvent("x", 1, 1, 0, 0, "cpu-clock").ts == 0


def test_duration_exact_nanoseconds():
    assert parse_ns("1.000000000") - parse_ns("1.000000000") == 0
    assert parse_ns("2.0") - parse_ns("0.5") == 1_500_000_000
    # oracle: integer-nanosecond subtraction
    start = parse_ns("12345.678901")
    end = parse_ns("12345.678950")
    expected_ns = 12345_678_950_000 - 12345_678_901_000
    assert end - start == expected_ns == 49_000
