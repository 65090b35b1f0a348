import random
from fractions import Fraction

import pytest

from latprof.trace_model import (
    Frame,
    Timestamp,
    TraceEvent,
    WaitInterval,
    WaitKind,
    WaitReason,
    classify_event,
    duration,
    duration_ns,
)


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
    assert Timestamp.parse("12345.678901").ns == 12345_678_901_000
    assert Timestamp.parse("0.000000001").ns == 1
    assert Timestamp.parse("7").ns == 7_000_000_000
    # truncation beyond nanoseconds, not rounding
    assert Timestamp.parse("0.0000000019").ns == 1


def test_timestamp_rejects_negative_and_garbage():
    with pytest.raises(ValueError):
        Timestamp(-1)
    with pytest.raises(ValueError):
        Timestamp.parse("-1.0")
    with pytest.raises(ValueError):
        Timestamp.parse("abc")


def test_timestamp_parse_rejects_non_ascii_digits():
    # str.isdigit accepts superscripts that int() does not
    for text in ("1.²", "².5", "²"):
        with pytest.raises(ValueError, match="bad timestamp"):
            Timestamp.parse(text)


def test_timestamp_format_truncates_milliseconds():
    assert Timestamp.parse("1.2349").format_ms() == "1.234"
    assert Timestamp(999_999).format_ms() == "0.000"
    assert Timestamp.parse("12.300").format_ms() == "12.300"


def test_timestamp_roundtrip_full_precision():
    rng = random.Random(7)
    for _ in range(2000):
        ts = Timestamp(rng.randrange(0, 10**6 * 10**9))
        assert Timestamp.parse(ts.format()) == ts


def test_frame_requires_symbol_or_address():
    Frame(address=0x1000)
    Frame(symbol="main")
    with pytest.raises(ValueError):
        Frame(dso="libc.so")


def test_event_derives_class_and_name():
    ev = TraceEvent("gzip", 1, 1, 0, Timestamp(0), "sched:sched_switch")
    assert ev.event_class == "sched"
    assert ev.event_name == "sched_switch"
    sample = TraceEvent("gzip", 1, 1, 0, Timestamp(0), "cpu-clock")
    assert sample.event_class == "cpu-clock"
    assert sample.event_name == "cpu-clock"


def test_event_class_and_name_are_stored_not_compared():
    for event, cls, name in [("cpu-clock", "cpu-clock", "cpu-clock"),
                             ("sched:sched_switch", "sched", "sched_switch"),
                             ("syscalls:sys_enter:x", "syscalls", "sys_enter:x"),
                             ("probe:a:b", "other", "a:b")]:
        ev = TraceEvent("app", 1, 1, 0, Timestamp(0), event)
        assert (ev.event_class, ev.event_name) == (cls, name)
        assert (ev.event_class, ev.event_name) == (
            classify_event(event), event.split(":", 1)[-1])
        assert "event_class" not in repr(ev)
        assert ev == TraceEvent("app", 1, 1, 0, Timestamp(0), event)


def test_event_rejects_nonpositive_ids():
    with pytest.raises(ValueError):
        TraceEvent("x", -1, 1, 0, Timestamp(0), "cpu-clock")
    with pytest.raises(ValueError):
        TraceEvent("x", 1, -1, 0, Timestamp(0), "cpu-clock")


def test_duration_exact_nanoseconds():
    w = WaitInterval(1, Timestamp.parse("1.000000000"), Timestamp.parse("1.000000000"),
                     WaitKind.BLOCKED, WaitReason.UNKNOWN)
    assert duration(w) == 0
    w = WaitInterval(1, Timestamp.parse("0.5"), Timestamp.parse("2.0"),
                     WaitKind.BLOCKED, WaitReason.UNKNOWN)
    assert duration(w) == Fraction(3, 2)
    # oracle: integer-nanosecond subtraction
    start = Timestamp.parse("12345.678901")
    end = Timestamp.parse("12345.678950")
    expected_ns = 12345_678_950_000 - 12345_678_901_000
    w = WaitInterval(1, start, end, WaitKind.BLOCKED, WaitReason.UNKNOWN)
    assert duration_ns(w) == expected_ns == 49_000
    assert duration(w) == Fraction(49_000, 10**9) == Fraction("0.000049")


def test_wait_interval_invariants():
    with pytest.raises(ValueError):
        WaitInterval(1, Timestamp(5), Timestamp(4), WaitKind.BLOCKED, WaitReason.UNKNOWN)
    with pytest.raises(ValueError):
        WaitInterval(1, Timestamp(0), Timestamp(1), WaitKind.RUNNABLE, WaitReason.LOCK)
    WaitInterval(1, Timestamp(0), Timestamp(1), WaitKind.RUNNABLE, WaitReason.SCHEDULER_DELAY)
