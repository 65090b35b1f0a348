import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import unittest.mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latprof import cli, export, simgen
from latprof.cli import main
from latprof.export import PerfScriptWriter
from latprof.lock_analysis import write_acquisitions_csv
from latprof.parsers import ParseError
from latprof.simgen import GroundTruth, lock_acquisitions, simulate_events

import listings
from folds import written
from simruns import whole_run
from test_simgen import GOLDEN_RUNS, raised_by_one_ns, small_cfg

PERF_TRACE = (
    "gzip 100/100 [000] 10.000000: cpu-clock: \n"
    "\t400000 deflate+0x10 (libz.so)\n"
    "\t400040 main (gzip)\n"
    "\n"
    "gzip 100/100 [000] 10.500000: cpu-clock: \n"
    "\t400000 deflate+0x10 (libz.so)\n"
    "\t400040 main (gzip)\n"
    "\n"
    "scp 200/200 [001] 10.700000: cpu-clock: \n"
    "\t500000 aes (libcrypto.so)\n"
    "\n"
    "gzip 100/100 [000] 11.000000: sched:sched_switch: prev_comm=gzip "
    "prev_pid=100 prev_prio=120 prev_state=S ==> next_comm=swapper "
    "next_pid=0 next_prio=120\n"
    "\t600000 futex_wait ([kernel.kallsyms])\n"
    "\t600040 main (gzip)\n"
    "\n"
    "scp 200/200 [001] 11.500000: sched:sched_wakeup: comm=gzip pid=100 "
    "prio=120 target_cpu=000\n"
    "\n"
    "gzip 100/100 [000] 11.600000: sched:sched_switch: prev_comm=swapper "
    "prev_pid=0 prev_prio=120 prev_state=R ==> next_comm=gzip next_pid=100 "
    "next_prio=120\n"
)


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(PERF_TRACE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_importing_the_cli_loads_no_analysis_module():
    # each verb imports the analysis modules it uses, so a run loads only those
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, latprof.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('latprof.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.strip() == str(["latprof.cli", "latprof.export", "latprof.parsers",
                               "latprof.trace_model"])


def test_usage_error_exit_2(capsys):
    assert main([]) == 2
    assert main(["report", "--nope"]) == 2


def test_parse_ndjson(trace_file, capsys):
    code, out, _ = run(capsys, "parse", "--input", trace_file)
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 6
    assert docs[0]["comm"] == "gzip"
    assert docs[0]["stack"][0]["symbol"] == "deflate"
    assert docs[0]["ts_ns"] == 10_000_000_000


def test_parse_gprof_listing(tmp_path, capsys):
    path = tmp_path / "gprof.txt"
    path.write_text(listings.GPROF_FLAT)
    code, out, _ = run(capsys, "parse", "--input", str(path))
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0]["name"] == "main"
    assert rows[0]["percent_time"] == 41.64


def test_report_happy_path(trace_file, capsys):
    code, out, _ = run(capsys, "report", "--input", trace_file, "--top", "10")
    assert code == 0
    assert "Flat profile" in out
    assert "66.67" in out  # gzip/libz.so/deflate: 2 of 3 samples
    assert "Lock" in out  # sched events present: wait section filled


def test_report_no_sched_trace_still_exits_zero(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("gzip 100/100 [000] 10.000000: cpu-clock: \n")
    code, out, _ = run(capsys, "report", "--input", str(path))
    assert code == 0
    assert "(no data)" in out  # wait + lock sections empty


_NO_DATA_REPORT = """=== Flat profile ===
(no data)

=== Off-CPU wait time by reason ===
(no data)

=== Lock contention ===
(no data)
"""


def test_zero_period_samples_have_no_percentages(tmp_path, capsys):
    # every cpu-clock sample has period 0: there is no percent of a zero
    # total, so the flat profile and the utilization pie are empty
    path = tmp_path / "zero.txt"
    path.write_text("a 1/1 [0] 1.0: 0 cpu-clock:\n")
    assert run(capsys, "report", "--input", str(path)) == (0, _NO_DATA_REPORT, "")
    code, out, err = run(capsys, "export", "--format", "json", "--input", str(path))
    assert (code, err) == (0, "")
    assert out == json.dumps({
        "profile": [],
        "events_per_bin": {"bin_width_s": 1.0,
                           "bins": [{"start_s": 0.0, "counts": {"a": 1}}]},
        "utilization": [],
    }, indent=2) + "\n"


def test_streamed_output_reaches_a_text_only_stdout(tmp_path, capsys):
    # the spooled bytes are decoded for a stdout that has no byte buffer
    path = tmp_path / "trace.txt"
    path.write_text(PERF_TRACE.replace("scp", "sc\u00e9p"), encoding="utf-8")
    for verb in (["parse"], ["export", "--format", "csv"],
                 ["export", "--format", "bulk"]):
        argv = verb + ["--input", str(path)]
        code, want, _ = run(capsys, *argv)
        assert code == 0, verb
        assert "\u00e9" in want or "\\u00e9" in want, verb  # CSV raw, JSON escaped
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue() == want, verb


def test_every_verb_writes_utf8_whatever_the_stdout_encoding(tmp_path, capsys):
    # a comm, a mutrace flag and graph nodes outside ASCII, under an ASCII
    # stdout: every verb writes the bytes it writes under UTF-8
    trace = tmp_path / "trace.txt"
    trace.write_text(PERF_TRACE.replace("gzip", "café€"), encoding="utf-8")
    mutrace = tmp_path / "mutrace.txt"
    mutrace.write_text(listings.MUTRACE.replace("M-.?-.", "M€.?-."), encoding="utf-8")
    edges = tmp_path / "edges.txt"
    edges.write_text("café b 1\nb € 2\n", encoding="utf-8")
    argvs = [[*verb, "--input", str(trace)] for verb in (
        ["parse"], ["report"], ["offcpu"], ["export", "--format", "csv"],
        ["export", "--format", "bulk"], ["export", "--format", "json"])]
    argvs += [["locks", "--input", str(mutrace)],
              ["graph", "--shortest", "café", "€", "--input", str(edges)],
              ["simulate", "--items", "3"]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = "import sys; from latprof.cli import main; sys.exit(main(sys.argv[1:]))"
    non_ascii = []
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        non_ascii.append(not out.isascii())
        got = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                             env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="ascii"))
        assert (got.returncode, got.stdout, got.stderr) == (0, out.encode(), b""), argv
    # the JSON outputs escape what is not ASCII, and simulate names no such text
    assert non_ascii == [False, True, True, True, False, False, True, True, False]


def test_offcpu_no_sched_events(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("gzip 100/100 [000] 10.000000: cpu-clock: \n")
    code, out, _ = run(capsys, "offcpu", "--input", str(path))
    assert code == 0
    assert "(no data)" in out


def test_offcpu_reports_lock_wait(trace_file, capsys):
    code, out, _ = run(capsys, "offcpu", "--input", trace_file)
    assert code == 0
    assert "Lock" in out
    assert "futex_wait" in out
    assert "0.500000" in out  # 11.0 -> 11.5 blocked


def test_strict_mode_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("this is not perf output\nat all\n")
    code, _, err = run(capsys, "parse", "--input", str(path), "--format", "perf",
                       "--strict")
    assert code == 1
    assert "error" in err
    # lenient mode proceeds
    code, out, err = run(capsys, "parse", "--input", str(path), "--format", "perf")
    assert code == 0
    assert "malformed lines skipped" in err


def test_locks_mutrace_table(tmp_path, capsys):
    path = tmp_path / "mutrace.txt"
    path.write_text(listings.MUTRACE)
    code, out, _ = run(capsys, "locks", "--input", str(path))
    assert code == 0
    assert "45381.448" in out


def test_locks_acquisitions_with_cycle(tmp_path, capsys):
    path = tmp_path / "acq.csv"
    path.write_text(
        "tid,lock_id,request_ts,grant_ts,release_ts\n"
        "1,1,1.0,1.0,3.0\n"
        "1,2,2.0,2.0,2.5\n"
        "2,2,4.0,4.0,6.0\n"
        "2,1,5.0,5.0,5.5\n"
    )
    code, out, _ = run(capsys, "locks", "--input", str(path))
    assert code == 0
    assert "1 -> 2 -> 1" in out


def test_locks_acquisitions_error_names_physical_line(tmp_path, capsys):
    # blank lines count: the bad row is on line 5 of the file
    path = tmp_path / "acq.csv"
    path.write_text(
        "tid,lock_id,request_ts,grant_ts,release_ts\n"
        "\n"
        "\n"
        "1,1,1.0,1.0,3.0\n"
        "1,2,2.0,1.0,2.5\n"
    )
    code, _, err = run(capsys, "locks", "--input", str(path))
    assert code == 1
    assert "line 5: acquisition times must satisfy" in err


_CYCLIC_ACQUISITIONS = ["tid,lock_id,request_ts,grant_ts,release_ts",
                        "1,1,1.0,1.0,3.0", "1,2,2.0,2.0,2.5",
                        "2,2,4.0,4.0,6.0", "2,1,5.0,5.0,5.5"]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("verb, lines", [
    (["locks"], _CYCLIC_ACQUISITIONS),
    (["graph", "--cycles"], ["a b 1", "b c 2", "c a 3"]),
], ids=["locks", "graph"])
def test_file_and_stdin_read_the_same_for_every_line_break(
        tmp_path, capsys, monkeypatch, verb, lines, newline):
    data = (newline.join(lines) + newline).encode()
    path = tmp_path / "input"
    path.write_bytes(data)
    from_file = run(capsys, *verb, "--input", str(path))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    from_stdin = run(capsys, *verb)
    assert from_file == from_stdin
    assert from_file[0] == 0 and " -> " in from_file[1]


# each verb that reads input, with the options it needs to run
_READING_VERBS = {"offcpu": ["offcpu"], "locks": ["locks"],
                  "graph": ["graph", "--cycles"], "parse": ["parse"]}


def test_parse_strace_huge_timestamp_names_line(tmp_path, capsys):
    path = tmp_path / "strace.txt"
    path.write_text("1" * 5000 + '.5 read(3, "x", 1) = 1 <0.000010>\n')
    code, out, err = run(capsys, "parse", "--input", str(path), "--format", "strace")
    assert code == 1
    assert out == ""
    assert "line 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", _READING_VERBS)
def test_undecodable_input_names_file_and_line(tmp_path, capsys, verb):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"tid,lock_id,request_ts,grant_ts,release_ts\n"
                     b"1,1,1.0,1.0,3.0\n"
                     b"\xff1,2,2.0,2.0,2.5\n")  # the bad byte starts line 3
    code, out, err = run(capsys, *_READING_VERBS[verb], "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == (f"latprof: error: {path}: line 3: byte 0xff is not UTF-8"
                   " (invalid start byte)\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", _READING_VERBS)
def test_undecodable_stdin_names_line(capsys, monkeypatch, verb):
    data = (b"tid,lock_id,request_ts,grant_ts,release_ts\n"
            b"1,1,1.0,1.0,3.0\n"
            b"\xff1,2,2.0,2.0,2.5\n")  # the bad byte starts line 3
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, err = run(capsys, *_READING_VERBS[verb])
    assert code == 1
    assert out == ""
    assert err == ("latprof: error: <stdin>: line 3: byte 0xff is not UTF-8"
                   " (invalid start byte)\n")


def test_missing_second_input_fails_before_any_output(tmp_path, capsys):
    # every input is opened before the first is parsed
    malformed = tmp_path / "malformed.txt"
    malformed.write_text(PERF_TRACE + "\nnot a header\n")
    missing = tmp_path / "missing.txt"
    for verb in (["parse"], ["offcpu"], ["report"], ["export", "--format", "csv"],
                 ["locks"]):
        code, out, err = run(capsys, *verb, "--input", str(malformed),
                             "--input", str(missing))
        assert code == 1
        assert out == ""
        assert err == ("latprof: error: [Errno 2] No such file or directory:"
                       f" {str(missing)!r}\n")
    code, _, err = run(capsys, "offcpu", "--input", str(malformed))
    assert code == 0 and "1 malformed lines skipped" in err


# pieces next to which a block edge is worth putting: every line break
# str.splitlines knows, and multi-byte characters; then undecodable bytes
# (an invalid start byte, a lone continuation byte, truncated sequences)
_READER_TEXT = st.sampled_from(
    ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
     "\u2028", "\u2029", "a", "bc", "\u00e9", "\u20ac", "\U0001f600"]).map(str.encode)
_READER_BAD = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98"])


def _whole_text_outcome(data: bytes):
    """What decoding and splitting the whole text gives: its lines, or the
    error naming the line of the first bad byte."""
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        return (f"in: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8"
                f" ({exc.reason})")


def _block_reader_outcome(data: bytes, block_bytes: int):
    with unittest.mock.patch.object(cli, "_BLOCK_BYTES", block_bytes):
        try:
            return list(cli._read_lines("in", io.BytesIO(data)))
        except ParseError as err:
            return str(err)


@settings(max_examples=400, deadline=None)
@given(st.lists(_READER_TEXT, max_size=40),
       st.lists(st.tuples(st.integers(0, 40), _READER_BAD), max_size=2),
       st.integers(1, 64))
def test_block_reader_yields_the_whole_texts_lines(pieces, bad, block_bytes):
    for at, piece in bad:
        pieces.insert(at, piece)
    data = b"".join(pieces)
    assert _block_reader_outcome(data, block_bytes) == _whole_text_outcome(data)


def test_block_reader_edges():
    cases = [b"", b"\n", b"a", b"a\r\nb", b"a\r", b"\r\n\r\n", b"x\xe2\x82\xac\ny",
             b"a\nb\r\n" * 50 + b"c\xffd\n", b"\xe2\x80\xa8\n\xc2\x85",
             b"a b 1\x0cb c 2\n\xff\n", b"a\xc2\x85b\n\xff", b"a\xe2\x80\xa8b\n\xff"]
    for data in cases:
        for block_bytes in range(1, 9):
            assert _block_reader_outcome(data, block_bytes) == \
                _whole_text_outcome(data), (data, block_bytes)
    # the bad byte is on the third line str.splitlines counts
    assert _block_reader_outcome(b"a b 1\x0cb c 2\n\xff\n", 4) == \
        "in: line 3: byte 0xff is not UTF-8 (invalid start byte)"


# seeds in each grammar a reading verb accepts, and tokens worth splicing
# into them, for the fuzz test below
_FUZZ_SEEDS = [PERF_TRACE.encode(), "\n".join(_CYCLIC_ACQUISITIONS).encode(),
               listings.MUTRACE.encode(), b"a b 1\nb c 2\nc a 3\n"]
_FUZZ_TOKENS = st.sampled_from([b"\n", b"\r", b" ", b",", b":", b"/", b".", b"=",
                                b"#", b"-1", b"0", b"9" * 30, b"\xff", b"\xc3"])
_FUZZ_ARGV = [["parse"], ["report"], ["offcpu"], ["locks"], ["graph", "--cycles"],
              ["graph", "--undirected", "--mst"], ["export", "--format", "csv"],
              ["export", "--format", "bulk"], ["export", "--format", "json"]]


@st.composite
def _mutated_seed(draw):
    """A seed input with a few short runs of bytes replaced, cut or added,
    and perhaps truncated."""
    data = bytearray(draw(st.sampled_from(_FUZZ_SEEDS)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        data[at:at + draw(st.integers(0, 3))] = draw(
            st.one_of(st.binary(max_size=3), _FUZZ_TOKENS))
    if draw(st.booleans()):
        del data[draw(st.sampled_from(range(len(data) + 1))):]
    return bytes(data)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.binary(max_size=200), _mutated_seed()))
def test_every_reading_verb_maps_any_stdin_to_exit_0_or_1(data):
    for argv in _FUZZ_ARGV:
        with unittest.mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(data))), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1), (argv, data)


def test_graph_commands(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("a b 3\nb c 4\na c 5\n")
    code, out, _ = run(capsys, "graph", "--input", str(path),
                       "--critical-path", "a")
    assert code == 0
    assert "a -> b -> c" in out and "total weight: 7" in out

    code, out, _ = run(capsys, "graph", "--input", str(path), "--shortest", "a", "c")
    assert code == 0
    assert "distance: 5" in out

    path2 = tmp_path / "ring.txt"
    path2.write_text("a b\nb a\n")
    code, out, _ = run(capsys, "graph", "--input", str(path2), "--cycles")
    assert code == 0
    assert "a -> b -> a" in out

    path3 = tmp_path / "tri.txt"
    path3.write_text("a b 1\nb c 2\na c 3\n")
    code, out, _ = run(capsys, "graph", "--input", str(path3), "--undirected",
                       "--mst")
    assert code == 0
    assert "total weight: 3" in out


def test_graph_requires_mode(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("a b 1\n")
    code, _, err = run(capsys, "graph", "--input", str(path))
    assert code == 1


def test_graph_takes_one_input(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("a b 1\n")
    code, out, err = run(capsys, "graph", "--input", str(path), "--input",
                         str(path), "--mst")
    assert (code, out) == (2, "")
    assert "graph takes one --input" in err


def test_simulate_check_exit_zero(capsys):
    code, out, _ = run(capsys, "simulate", "--producers", "2", "--consumers", "2",
                       "--capacity", "4", "--items", "100", "--seed", "7",
                       "--check")
    assert code == 0
    assert "clean" in out


def test_simulate_writes_trace_and_truth(tmp_path, capsys):
    trace = tmp_path / "sim.txt"
    truth = tmp_path / "truth.json"
    acq = tmp_path / "acq.csv"
    code, _, _ = run(capsys, "simulate", "--producers", "1", "--consumers", "1",
                     "--capacity", "1", "--items", "2",
                     "--produce-time", "1", "--consume-time", "3",
                     "--critical-time", "0.1",
                     "--out", str(trace), "--truth", str(truth),
                     "--acquisitions", str(acq))
    assert code == 0
    doc = json.loads(truth.read_text())
    assert doc["completion_ns"] == 6_200_000_000
    assert doc["blocked"] == [
        {"tid": 1, "sem": "empty_q0", "blocked_ns": 1_000_000_000, "count": 1}]
    # the emitted trace parses back through the normal pipeline
    code, out, _ = run(capsys, "offcpu", "--input", str(trace))
    assert code == 0
    assert "Lock" in out
    # and the acquisitions CSV feeds the locks verb
    code, out, _ = run(capsys, "locks", "--input", str(acq))
    assert code == 0
    assert "(none detected)" in out


# stdout, stderr and exit code recorded before the oracle walked the trace
# once through a SchedWalk
DEADLOCK_CHECK_STDOUT = (
    "checked 6 (tid, semaphore) ledger entries\n"
    "truncation: tid 1 mutex_q0: truth 0 ns x0 vs measured 0 ns x1\n"
    "truncation: tid 2 empty_q0: truth 0 ns x0 vs measured 1000000 ns x1\n"
    "truncation: tid 3 mutex_q0: truth 0 ns x0 vs measured 1000000 ns x1\n"
    "truncation: tid 4 full_q0: truth 0 ns x0 vs measured 1100000 ns x1\n"
    "replay: 4 discrepancies\n"
)
DEADLOCK_STDERR = ("deadlock reached: tid 1 on mutex_q0, tid 2 on empty_q0, "
                   "tid 3 on mutex_q0, tid 4 on full_q0\n")


def test_simulate_check_deadlock_golden(capsys):
    result = run(capsys, "simulate", "--producers", "2", "--consumers", "2",
                 "--capacity", "1", "--items", "20", "--inverted-wait-order",
                 "--check")
    assert result == (1, DEADLOCK_CHECK_STDOUT, DEADLOCK_STDERR)


def test_simulate_check_prints_a_mismatch(capsys, monkeypatch):
    events, right, _ = whole_run(small_cfg(**GOLDEN_RUNS["inverted-deadlock"][0]))

    def wrong_run(cfg, truth, acquisition_rows=None):
        # like the simulator, fill the ledger in only as the events run out
        yield from events
        vars(truth).update(vars(raised_by_one_ns(right, (3, "full_q0"))))

    monkeypatch.setattr(simgen, "simulate_events", wrong_run)
    code, out, err = run(capsys, "simulate", "--check")
    assert code == 1
    assert out == (
        "checked 6 (tid, semaphore) ledger entries\n"
        "truncation: tid 1 mutex_q0: truth 49891 ns x1 vs measured 49891 ns x2\n"
        "truncation: tid 2 empty_q0: truth 0 ns x0 vs measured 1105951 ns x1\n"
        "mismatch: tid 3 full_q0: truth 7781295 ns x8 vs measured 7781294 ns x8\n"
        "truncation: tid 3 mutex_q0: truth 0 ns x0 vs measured 1105951 ns x1\n"
        "truncation: tid 4 full_q0: truth 6915143 ns x8 vs measured 8689906 ns x9\n"
        "replay: 5 discrepancies\n"
    )
    assert err == DEADLOCK_STDERR


# a run in which 9 switch-outs are retracted: each of those threads is
# granted its semaphore at the instant it blocked
RETRACTING_ARGV = ["simulate", "--producers", "2", "--consumers", "2", "--capacity", "1",
                   "--items", "10"]
# stdout sha256, recorded before the simulator streamed its events
RETRACTING_DIGESTS = {
    "trace": "e38f734ebd9029f5a41b281a2860beef9f8cb038f6e4d872660477d28511ad0d",
    "check": "13e0cb31e6fb3a97ca849fce2b9759f828384ca6d7eb7e13b802aead713e9160",
}


@pytest.mark.parametrize("block_events", [1, simgen._BLOCK_EVENTS])
def test_simulate_retracting_run_digests(capsys, monkeypatch, block_events):
    # with blocks of one event, each instant leaves the run as soon as the
    # clock moves past it, so a retraction must stay within its instant
    monkeypatch.setattr(simgen, "_BLOCK_EVENTS", block_events)
    switch_outs = []
    real = simgen._Simulator._emit_switch_out

    def counting(self, thread, now, sem_id):
        switch_outs.append(now)
        real(self, thread, now, sem_id)

    monkeypatch.setattr(simgen._Simulator, "_emit_switch_out", counting)
    code, out, err = run(capsys, *RETRACTING_ARGV)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == RETRACTING_DIGESTS["trace"]
    assert len(switch_outs) - out.count("prev_state=S") == 9
    code, out, err = run(capsys, *RETRACTING_ARGV, "--check")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == RETRACTING_DIGESTS["check"]


def test_a_failed_simulate_run_writes_nothing(tmp_path, capsys, monkeypatch):
    # rows reach the spool in blocks of two and events leave the run one
    # instant at a time, so part of the trace is written when the run fails
    monkeypatch.setattr(export, "_BLOCK_ROWS", 2)
    monkeypatch.setattr(simgen, "_BLOCK_EVENTS", 1)
    wakeups = []
    real = simgen._Simulator._emit_wakeup

    def failing(self, waker, woken, now):
        wakeups.append(now)
        if len(wakeups) == 20:
            raise ValueError("injected fault")
        real(self, waker, woken, now)

    monkeypatch.setattr(simgen._Simulator, "_emit_wakeup", failing)
    spooled = []
    real_write = cli._Spool.write

    def write(self, text):
        spooled.append(text)
        real_write(self, text)

    monkeypatch.setattr(cli._Spool, "write", write)
    out = tmp_path / "sim.txt"
    side = ["--truth", str(tmp_path / "truth.json"),
            "--acquisitions", str(tmp_path / "acq.csv")]
    for extra in ([], ["--out", str(out)], ["--check"]):
        wakeups.clear()
        spooled.clear()
        code, stdout, err = run(capsys, "simulate", "--producers", "2", "--consumers", "3",
                                "--capacity", "1", "--items", "20", "--seed", "5",
                                "--jitter", "0.3", *side, *extra)
        assert (code, stdout, err) == (1, "", "latprof: error: injected fault\n"), extra
        assert list(tmp_path.iterdir()) == [], extra
        if "--check" not in extra:
            assert spooled, "no rows were written before the fault"

    # an unwritable --out or side file fails the run before either side
    # file takes its place
    missing = str(tmp_path / "missing" / "x")
    for extra in (["--out", missing], ["--acquisitions", missing],
                  ["--truth", missing]):
        code, stdout, err = run(capsys, "simulate", "--producers", "1", "--consumers",
                                "1", "--items", "2", *side, *extra)
        assert (code, stdout) == (1, ""), extra
        assert err == f"latprof: error: [Errno 2] No such file or directory: '{missing}'\n"
        assert list(tmp_path.iterdir()) == [], extra


def test_simulate_side_files_go_where_their_paths_lead(tmp_path, capsys):
    # a link still names the file it led to, which now holds the ledger; a
    # new file gets the mode `open` gives; a directory fails the run
    target, link = tmp_path / "ledger.json", tmp_path / "truth.json"
    target.write_text("old\n")
    link.symlink_to(target)
    acq, plain = tmp_path / "acq.csv", tmp_path / "plain"
    plain.open("w").close()
    argv = ["simulate", "--producers", "1", "--consumers", "1", "--items", "2"]
    code, _, _ = run(capsys, *argv, "--truth", str(link), "--acquisitions", str(acq))
    assert code == 0
    assert link.is_symlink() and target.read_text().startswith("{")
    assert acq.stat().st_mode == plain.stat().st_mode
    code, stdout, err = run(capsys, *argv, "--truth", str(tmp_path))
    assert (code, stdout) == (1, "")
    assert err == f"latprof: error: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "acq.csv", "ledger.json", "plain", "truth.json"]


def test_simulate_invalid_config(capsys):
    code, _, err = run(capsys, "simulate", "--consumers", "0")
    assert code == 1
    assert "error" in err


def test_export_csv(trace_file, capsys):
    code, out, _ = run(capsys, "export", "--input", trace_file, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "timestamp,comm,pid,tid,cpu,event,dso,symbol"
    assert len(lines) == 7


def test_export_bulk(trace_file, capsys):
    code, out, _ = run(capsys, "export", "--input", trace_file, "--format", "bulk",
                       "--index", "mytrace")
    assert code == 0
    assert len(out.splitlines()) == 12
    assert '"_index":"mytrace"' in out


def test_export_json_report(trace_file, capsys):
    code, out, _ = run(capsys, "export", "--input", trace_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert "profile" in doc and "utilization" in doc and "events_per_bin" in doc


def test_byte_identical_reruns(trace_file, capsys):
    argv = ["export", "--input", trace_file, "--format", "bulk"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    argv = ["offcpu", "--input", trace_file]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_stdin_input(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(PERF_TRACE.encode())))
    code, out, _ = run(capsys, "export", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 7


IDLE_WAKE_TRACE = (
    "app 100/100 [000] 1.000000: sched:sched_switch: prev_comm=app "
    "prev_pid=100 prev_prio=120 prev_state=S ==> next_comm=swapper/0 "
    "next_pid=0 next_prio=120\n"
    "\t600000 futex_wait ([kernel.kallsyms])\n"
    "\t600040 main (app)\n"
    "\n"
    "swapper 0/0 [001] 1.500000: sched:sched_wakeup: comm=app pid=100 "
    "prio=120 target_cpu=000\n"
    "\n"
    "swapper 0/0 [000] 1.600000: sched:sched_switch: prev_comm=swapper/0 "
    "prev_pid=0 prev_prio=120 prev_state=R ==> next_comm=app next_pid=100 "
    "next_prio=120\n"
    "\n"
    "app 100/100 [000] 2.000000: cpu-clock: \n"
    "\t400040 main (app)\n"
)

IDLE_WAKE_OFFCPU = (
    "=== Off-CPU wait time by (tid, reason) ===\n"
    "     tid  reason                 seconds  comm\n"
    "     100  Lock                  0.500000  app\n"
    "     100  SchedulerDelay        0.100000  app\n"
    "\n"
    "=== Top wait stacks ===\n"
    "      0.500000s       1x  futex_wait;main\n"
    "\n"
    "=== Wait duration histogram (log2 buckets, us) ===\n"
    "[   65536.000,   131072.000)  1\n"
    "[  262144.000,   524288.000)  1\n"
)


def test_offcpu_idle_task_wakeup_golden(tmp_path, capsys):
    # the idle task's wakeup and switch-in end the wait; tid 0 stays untracked
    path = tmp_path / "idle.txt"
    path.write_text(IDLE_WAKE_TRACE)
    code, out, err = run(capsys, "offcpu", "--input", str(path))
    assert (code, out, err) == (0, IDLE_WAKE_OFFCPU, "")


WAKING_TRACE = (
    "app 100/100 [000] 1.000000: sched:sched_switch: prev_comm=app prev_pid=100 "
    "prev_prio=120 prev_state=S ==> next_comm=swapper/0 next_pid=0 next_prio=120\n"
    "\n"
    "waker 7/7 [001] 1.500000: sched:sched_waking: comm=app pid=100 prio=120 "
    "target_cpu=000\n"
    "\n"
    "waker 7/7 [001] 1.500010: sched:sched_wakeup: comm=app pid=100 prio=120 "
    "target_cpu=000\n"
    "\n"
    "swapper 0/0 [000] 1.600000: sched:sched_switch: prev_comm=swapper/0 "
    "prev_pid=0 prev_prio=120 prev_state=R ==> next_comm=app next_pid=100 "
    "next_prio=120\n"
)


def test_waking_then_wakeup_is_one_wake(tmp_path, capsys):
    # kernels emit sched_waking and then sched_wakeup for one wake: the
    # second finds the thread runnable, which is not a contradiction
    outputs = []
    for text in (WAKING_TRACE, WAKING_TRACE.replace("sched:sched_wakeup", "cpu-clock")):
        path = tmp_path / "trace.txt"
        path.write_text(text)
        outputs.append(run(capsys, "offcpu", "--input", str(path)))
    assert outputs[0] == outputs[1]
    code, out, err = outputs[0]
    assert (code, err) == (0, "")
    assert "     100  SchedulerDelay        0.100000  app\n" in out


def test_offcpu_non_ascii_digit_pid_is_not_a_pid(tmp_path, capsys):
    # "²".isdigit() holds but int() rejects it, as it rejects a run of more
    # than 4300 digits: a sched pid holding either must read as a
    # non-number, like "abc", not abort the analysis or the export's sort
    for field in ("next_pid=0 ", "prev_pid=100 ", " pid=100 "):
        pid = field.strip().split("=")[1]
        outputs = []
        for value in ("²", "9" * 5000, "abc"):
            path = tmp_path / "trace.txt"
            path.write_text(IDLE_WAKE_TRACE.replace(field, field.replace(pid, value), 1),
                            encoding="utf-8")
            outputs.append([run(capsys, *verb, "--input", str(path))
                            for verb in (["offcpu"], ["export", "--format", "csv"])])
        assert outputs[0] == outputs[1] == outputs[2], field
        assert [code for code, _, _ in outputs[2]] == [0, 0], field
        if field == "next_pid=0 ":  # a switch to a non-number is one to idle
            assert outputs[2][0] == (0, IDLE_WAKE_OFFCPU, "")


@pytest.fixture
def sim_trace(tmp_path, capsys):
    path = tmp_path / "sim.txt"
    code, _, _ = run(capsys, "simulate", "--producers", "2", "--consumers", "3",
                     "--capacity", "1", "--items", "20", "--seed", "5",
                     "--jitter", "0.3", "--out", str(path))
    assert code == 0
    return str(path)


def test_offcpu_negative_top_lists_every_stack(sim_trace, capsys):
    _, every, _ = run(capsys, "offcpu", "--input", sim_trace, "--top", "1000")
    code, out, _ = run(capsys, "offcpu", "--input", sim_trace, "--top", "-1")
    assert code == 0
    assert out == every
    stacks = out.split("=== Top wait stacks ===\n")[1].split("\n\n")[0]
    assert len(stacks.splitlines()) >= 2 and "(no data)" not in stacks


def test_negative_lookback_is_usage_error(trace_file, capsys):
    for verb in (["report"], ["offcpu"], ["export", "--format", "json"]):
        for value in ("-1", "inf", "nan", "1e400"):
            code, out, err = run(capsys, *verb, "--input", trace_file,
                                 "--lookback-ms", value)
            assert code == 2
            assert out == ""
            assert "--lookback-ms: must be >= 0" in err
    code, _, _ = run(capsys, "offcpu", "--input", trace_file, "--lookback-ms", "0")
    assert code == 0


def test_unknown_group_by_field_is_usage_error(trace_file, capsys):
    code, out, err = run(capsys, "report", "--input", trace_file, "--group-by", "sym")
    assert (code, out) == (2, "")
    assert "--group-by: unknown field 'sym'" in err
    _, by_nothing, _ = run(capsys, "report", "--input", trace_file, "--group-by", "")
    code, out, _ = run(capsys, "report", "--input", trace_file, "--group-by", ",")
    assert (code, out) == (0, by_nothing)


def test_each_verb_sorts_events_once(sim_trace, tmp_path, capsys, monkeypatch):
    from latprof import sched_analysis

    calls = []
    real = sched_analysis.canonical_sort

    def counting(events):
        calls.append(1)
        return real(events)

    monkeypatch.setattr(sched_analysis, "canonical_sort", counting)
    # the first event moved to the end: the input steps back in time once
    with open(sim_trace, encoding="utf-8") as handle:
        blocks = handle.read().split("\n\n")
    unordered = tmp_path / "unordered.txt"
    unordered.write_text("\n\n".join(blocks[1:] + blocks[:1]))
    for verb in (["offcpu"], ["report"], ["export", "--format", "json"],
                 ["export", "--format", "csv"], ["export", "--format", "bulk"]):
        for path, sorts in ((sim_trace, 0), (unordered, 1)):
            calls.clear()
            code, _, _ = run(capsys, *verb, "--input", str(path))
            assert code == 0
            assert len(calls) == sorts, (verb, path)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_callers_gc_state(trace_file, capsys, enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv in (["offcpu", "--input", trace_file], ["offcpu", "--input", "missing"],
                     ["offcpu", "--no-such-option"]):
            run(capsys, *argv)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_offcpu_leaves_cyclic_garbage_of_fixed_size(tmp_path, capsys):
    # a run creates no reference cycles that grow with the trace, which is
    # why main can switch the cyclic collector off
    paths = []
    for items in (10, 40):
        path = tmp_path / f"sim{items}.txt"
        code, _, _ = run(capsys, "simulate", "--producers", "2", "--consumers", "2",
                         "--items", str(items), "--seed", "3", "--out", str(path))
        assert code == 0
        paths.append(str(path))
    was = gc.isenabled()
    gc.disable()
    try:
        counts = []
        for path in [paths[0]] + paths:  # the first run warms caches
            gc.collect()
            code, _, _ = run(capsys, "offcpu", "--input", path)
            assert code == 0
            counts.append(gc.collect())
    finally:
        if was:
            gc.enable()
    assert counts[1] == counts[2]


# Two inputs of one trace, each out of time order in places.  They hold a
# BlockIO (block event), a Network (syscall, then net event), a Timer and
# a Lock wait, an R+ preemption, same-instant wakeup/switch groups split
# across the inputs, a tid first seen mid-trace (60), one wakeup of a
# running thread (50 at 1.006) and a cpu-clock sample with a stack.
TWO_INPUT_TRACE = (
    "db 10/10 [000] 1.000100: block:block_rq_issue: dev=8,0 sector=64\n"
    "\n"
    "db 10/10 [000] 1.000200: sched:sched_switch: prev_comm=db prev_pid=10 "
    "prev_prio=120 prev_state=S ==> next_comm=swapper/0 next_pid=0 next_prio=120\n"
    "\tffffffff81000010 io_schedule ([kernel.kallsyms])\n"
    "\t400100 read_page (db)\n"
    "\n"
    "web 20/20 [001] 1.000300: syscalls:sys_enter_recvfrom: fd=5\n"
    "\n"
    "web 20/20 [001] 1.000400: sched:sched_switch: prev_comm=web prev_pid=20 "
    "prev_prio=120 prev_state=S ==> next_comm=cruncher next_pid=50 next_prio=120\n"
    "\tffffffff81000020 schedule_timeout ([kernel.kallsyms])\n"
    "\t400200 serve (web)\n"
    "\n"
    "cruncher 50/50 [001] 1.001000: cpu-clock: \n"
    "\t400300 crunch+0x10 (cruncher)\n"
    "\t400340 main (cruncher)\n"
    "\n"
    "cruncher 50/50 [001] 1.002000: sched:sched_switch: prev_comm=cruncher "
    "prev_pid=50 prev_prio=120 prev_state=R+ ==> next_comm=late next_pid=60 "
    "next_prio=120\n"
    "\tffffffff81000030 preempt_schedule ([kernel.kallsyms])\n"
    "\t400300 crunch+0x10 (cruncher)\n"
    "\n"
    "late 60/60 [001] 1.003000: sched:sched_switch: prev_comm=late prev_pid=60 "
    "prev_prio=120 prev_state=S ==> next_comm=cruncher next_pid=50 next_prio=120\n"
    "\tffffffff81000040 do_nanosleep ([kernel.kallsyms])\n"
    "\t400400 nap (late)\n"
    "\n"
    "swapper 0/0 [000] 1.005000: sched:sched_switch: prev_comm=swapper/0 "
    "prev_pid=0 prev_prio=120 prev_state=R ==> next_comm=db next_pid=10 "
    "next_prio=120\n",
    "timer 30/30 [002] 1.000050: syscalls:sys_enter_clock_nanosleep: which=0\n"
    "\n"
    "timer 30/30 [002] 1.000060: sched:sched_switch: prev_comm=timer prev_pid=30 "
    "prev_prio=120 prev_state=S ==> next_comm=swapper/2 next_pid=0 next_prio=120\n"
    "\tffffffff81000050 hrtimer_nanosleep ([kernel.kallsyms])\n"
    "\t400500 tick (timer)\n"
    "\n"
    "worker 40/40 [003] 1.000070: sched:sched_switch: prev_comm=worker prev_pid=40 "
    "prev_prio=120 prev_state=S ==> next_comm=swapper/3 next_pid=0 next_prio=120\n"
    "\tffffffff81000060 futex_wait_queue_me ([kernel.kallsyms])\n"
    "\t7f0000000010 pthread_mutex_lock (libpthread.so.0)\n"
    "\t400600 take_lock (worker)\n"
    "\n"
    "swapper 0/0 [002] 1.002500: sched:sched_switch: prev_comm=swapper/2 "
    "prev_pid=0 prev_prio=120 prev_state=R ==> next_comm=timer next_pid=30 "
    "next_prio=120\n"
    "waker 99/99 [003] 1.002500: sched:sched_wakeup: comm=timer pid=30 prio=120 "
    "target_cpu=002\n"
    "timer 30/30 [002] 1.002600: syscalls:sys_exit_clock_nanosleep: 0x0\n"
    "timer 30/30 [002] 1.004000: sched:sched_switch: prev_comm=timer prev_pid=30 "
    "prev_prio=120 prev_state=S ==> next_comm=web next_pid=20 next_prio=120\n"
    "waker 99/99 [003] 1.004000: sched:sched_wakeup: comm=web pid=20 prio=120 "
    "target_cpu=002\n"
    "web 20/20 [002] 1.004600: syscalls:sys_exit_recvfrom: 0x40\n"
    "waker 99/99 [003] 1.005000: sched:sched_wakeup: comm=db pid=10 prio=120 "
    "target_cpu=000\n"
    "web 20/20 [002] 1.005500: net:netif_receive_skb: len=64\n"
    "web 20/20 [002] 1.005600: sched:sched_switch: prev_comm=web prev_pid=20 "
    "prev_prio=120 prev_state=S ==> next_comm=swapper/2 next_pid=0 next_prio=120\n"
    "waker 99/99 [003] 1.006000: sched:sched_wakeup: comm=cruncher pid=50 "
    "prio=120 target_cpu=001\n"
    "waker 99/99 [000] 1.007000: sched:sched_wakeup: comm=worker pid=40 "
    "prio=120 target_cpu=003\n"
    "swapper 0/0 [003] 1.007200: sched:sched_switch: prev_comm=swapper/3 "
    "prev_pid=0 prev_prio=120 prev_state=R ==> next_comm=worker next_pid=40 "
    "next_prio=120\n",
)


def _input_args(tmp_path, name) -> list:
    """--input arguments for TWO_INPUT_TRACE or a GOLDEN_RUNS simulator trace."""
    if name == "two-input":
        texts = TWO_INPUT_TRACE
    else:
        events = simulate_events(small_cfg(**GOLDEN_RUNS[name][0]), GroundTruth())
        texts = [written(PerfScriptWriter, events)]
    args = []
    for i, text in enumerate(texts):
        path = tmp_path / f"{name}-{i}.txt"
        path.write_text(text)
        args += ["--input", str(path)]
    return args


_DIGEST_VERBS = {"parse": ["parse"], "offcpu": ["offcpu"], "report": ["report"],
                 "csv": ["export", "--format", "csv"],
                 "bulk": ["export", "--format", "bulk"],
                 "json": ["export", "--format", "json"]}

# sha256 of each verb's stdout, recorded before the scheduler walk kept
# each thread's state in one record and the verbs shared one off-CPU path
STDOUT_DIGESTS = {
    "hand-traced": {
        "parse": "b5b26fb156ed98c996878dff50e484e669981b33b27e774b01708d35e4c18a16",
        "offcpu": "803f011489317e2b6443ebf153f5ea8cfb67286c3648c3a6012ff86683a08d26",
        "report": "ff58b689fe49328d33a47ecf18742fa26f8647890c7e543052fa1fd399fad0f5",
        "csv": "bd2dd151efd7367abb9f374c80dcd6afb5e1815c3112520756889014c16763f6",
        "bulk": "8e3d352c8caaa9f4c0c37f800e36dce39bc624826c6f3d23463a8652f300bb7e",
        "json": "326d5e6f9ff63f606c2d0889b500cd2c686114393a6b7d94f227887a040859e4",
    },
    "inverted-deadlock": {
        "parse": "c758dbed3914816a4334822ebbcae1ea889884cb3255e98bbb8d899ff4ccee32",
        "offcpu": "894d58bfaa400dc7d3d23fa848c8b8571aad37581c6e2a26b2271e2f8eeca74d",
        "report": "c0a9bee00bb56774eaf78c4465ffa440b466727d5ab068f92a21252eec14a902",
        "csv": "d120d799f2875f4023ccefa85b185e8265488f431e031814cc1685cef724b495",
        "bulk": "c74f2937ae9d0e1585d5a7b9940fb30dd17a85ba05a6b5afdf8841a89597d940",
        "json": "63593ac8abac173f9e0837b17727332958a1a3bda06c389f47216d80306ae192",
    },
    "jittered-multi-queue": {
        "parse": "ad1ebcea7f01838ae428788d91c00c9425381443e19a78ecaa837f96b9ffc390",
        "offcpu": "072bff2f3b4680e9825f61765989cc26296a2c3d6d524534d0933905a395e021",
        "report": "2a6082f79eac3003256d1d7e27ddc606b6c67b37ccd77066ba27260f2f4f4c55",
        "csv": "6748e1e65c4d22dd10ffe9ea57be3cd4bdcbe3c23f9c94e1fdf8a36976ca7753",
        "bulk": "58d95df7648786aabed2da951e2b414a1171804db0c8b954795ef4939a69afc0",
        "json": "1475c77d0ea7ca84ae3d20c6c7e5f0a44bcaac59b8488486fc371f03286d4726",
    },
    "two-input": {
        "parse": "50e7a6fabddde4ae8d002307d7beea93351213d13ed3027d8e63cb16edfb0152",
        "offcpu": "b9f5f7ef85a79ab308c5f12fdea175343641beb19de9935cf6f8318a853c9ada",
        "report": "7b27494b0598a153575055a444925932f226dff0829bfd55ea1dc0e12e09eb4b",
        "csv": "1dcef9632f5d0243b888b5e42e4d1db77ac41144c23c1a307f007c0f90c6f72b",
        "bulk": "401317bab0e91088329b794f00f2826c5c9378a788a31a348b2c40dd9cc8823f",
        "json": "6cd9657d20f0792f16db9d4cee71f5d7dae7bc3f0fd59694f7696813c0978743",
    },
}


@pytest.mark.parametrize("name", sorted(STDOUT_DIGESTS))
def test_stdout_digests(tmp_path, capsys, name):
    inputs = _input_args(tmp_path, name)
    digests = {}
    for verb, argv in _DIGEST_VERBS.items():
        code, out, _ = run(capsys, *argv, *inputs)
        assert code == 0, verb
        digests[verb] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == STDOUT_DIGESTS[name]


# sha256 of `locks` stdout on each GOLDEN_RUNS acquisitions CSV, recorded
# before the lock-order graph became a graph_core.Graph
LOCKS_DIGESTS = {
    "hand-traced": "d2057ddea94f8f99fb9d04d2b9521e7f03ff9db06b62bebadfbc4b2ca8fe5bab",
    "inverted-deadlock": "f04c9e8bc456b5327f491728b0bd90ec14a721e86432a0695ee7dabbf94a55c5",
    "jittered-multi-queue": "efd080c44d11964ecf63b604f411b015f8f319328236aa6cd4e737906e2453c1",
}


@pytest.mark.parametrize("name", sorted(LOCKS_DIGESTS))
def test_locks_stdout_digests(tmp_path, capsys, name):
    path = tmp_path / "acq.csv"
    _, _, rows = whole_run(small_cfg(**GOLDEN_RUNS[name][0]))
    path.write_text(write_acquisitions_csv(lock_acquisitions(rows)))
    code, out, err = run(capsys, "locks", "--input", str(path))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LOCKS_DIGESTS[name]
    cycles = out.split("=== Lock-order cycles (deadlock risk) ===\n")[1]
    assert cycles == ("0 -> 1 -> 0\n" if name == "inverted-deadlock"
                      else "(none detected)\n")


# one cyclic edge list with fractional weights, through every graph mode
GRAPH_EDGES = "a b 3\nb c 4\nc a 5\nc d 1/2\nd b 2\nd e 1\ne a 0.5\nb e 7\n"
GRAPH_OUTPUTS = {
    "cycles": (["--cycles"], 0,
               "a -> b -> c -> a\na -> b -> e -> a\nb -> c -> d -> b\n"
               "a -> b -> c -> d -> e -> a\n", ""),
    "critical-path": (["--critical-path", "a"], 1,
                      "", "latprof: error: graph contains a cycle: a -> b -> c\n"),
    "shortest": (["--shortest", "a", "e"], 0,
                 "a -> b -> c -> d -> e\ndistance: 17/2\n", ""),
    "mst": (["--undirected", "--mst"], 0,
            "a e 1/2\nb d 2\nc d 1/2\nd e 1\ntotal weight: 4\n", ""),
}


@pytest.mark.parametrize("mode", sorted(GRAPH_OUTPUTS))
def test_graph_outputs(tmp_path, capsys, mode):
    path = tmp_path / "edges.txt"
    path.write_text(GRAPH_EDGES)
    argv, *expected = GRAPH_OUTPUTS[mode]
    assert list(run(capsys, "graph", "--input", str(path), *argv)) == expected


def test_every_wait_verb_counts_contradictory_transitions(tmp_path, capsys):
    inputs = _input_args(tmp_path, "two-input")
    for verb in (["offcpu"], ["report"], ["export", "--format", "json"]):
        code, _, err = run(capsys, *verb, *inputs)
        assert (code, err) == (0, "1 contradictory scheduler transitions ignored\n"), verb
