import json

import pytest

from latprof.cli import main

import listings

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


@pytest.mark.parametrize("verb", ["offcpu", "locks"])
def test_undecodable_input_names_file_and_line(tmp_path, capsys, verb):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"tid,lock_id,request_ts,grant_ts,release_ts\n"
                     b"1,1,1.0,1.0,3.0\n"
                     b"\xff1,2,2.0,2.0,2.5\n")  # the bad byte starts line 3
    code, out, err = run(capsys, verb, "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == (f"latprof: error: {path}: line 3: byte 0xff is not UTF-8"
                   " (invalid start byte)\n")
    assert "Traceback" not in err


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
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(PERF_TRACE))
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


def test_offcpu_non_ascii_digit_pid_is_not_a_pid(tmp_path, capsys):
    # "²".isdigit() holds but int() rejects it: such a next_pid must read
    # as a non-number, like "abc", not abort the analysis
    outputs = []
    for next_pid in ("²", "abc"):
        path = tmp_path / "trace.txt"
        path.write_text(IDLE_WAKE_TRACE.replace("next_pid=0 ", f"next_pid={next_pid} ", 1),
                        encoding="utf-8")
        outputs.append(run(capsys, "offcpu", "--input", str(path)))
    assert outputs[0] == outputs[1] == (0, IDLE_WAKE_OFFCPU, "")


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
        code, out, err = run(capsys, *verb, "--input", trace_file,
                             "--lookback-ms", "-1")
        assert code == 2
        assert out == ""
        assert "--lookback-ms: must be >= 0" in err
    code, _, _ = run(capsys, "offcpu", "--input", trace_file, "--lookback-ms", "0")
    assert code == 0


def test_each_verb_sorts_events_once(sim_trace, capsys, monkeypatch):
    from latprof import sched_analysis

    calls = []
    real = sched_analysis.canonical_sort

    def counting(events):
        calls.append(1)
        return real(events)

    monkeypatch.setattr(sched_analysis, "canonical_sort", counting)
    for verb in (["offcpu"], ["report"], ["export", "--format", "json"],
                 ["export", "--format", "csv"], ["export", "--format", "bulk"]):
        calls.clear()
        code, _, _ = run(capsys, *verb, "--input", sim_trace)
        assert code == 0
        assert len(calls) == 1, verb
