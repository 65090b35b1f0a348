"""The streaming verbs: `offcpu`, `report` and `export` fold the events in
one pass and `parse` writes them as they are parsed, with the same stdout,
stderr and exit code as loading (and, for the analyses, sorting) every
event, and memory that does not grow with the trace.  `simulate` and
`simulate --check` stream the simulator's events the same way."""

import contextlib
import hashlib
import io
import tracemalloc
import unittest.mock
import weakref

import pytest

from latprof import export, parsers, sched_analysis
from latprof.cli import main
from latprof.export import PerfScriptWriter
from latprof.simgen import GroundTruth, simulate_events

from folds import written
from sampled_trace import sampled_trace
from test_cli import PERF_TRACE
from test_simgen import GOLDEN_RUNS, small_cfg

_SIM_BLOCKS = written(PerfScriptWriter, simulate_events(
    small_cfg(**GOLDEN_RUNS["jittered-multi-queue"][0]), GroundTruth())).split("\n\n")


def _join(blocks) -> str:
    return "\n\n".join(blocks).rstrip("\n") + "\n"


_PERF_BLOCKS = PERF_TRACE.split("\n\n")

# each case's inputs, as texts
FOLD_INPUTS = {
    # the simulator emits groups of equal timestamps; alternate blocks in
    # two files put events of one instant in both inputs
    "equal-ts-across-inputs": [_join(_SIM_BLOCKS[0::2]), _join(_SIM_BLOCKS[1::2])],
    "equal-ts-across-inputs-swapped": [_join(_SIM_BLOCKS[1::2]), _join(_SIM_BLOCKS[0::2])],
    # the first five blocks moved to the middle: one backward step
    "backward-step": [_join(_SIM_BLOCKS[5:40] + _SIM_BLOCKS[:5] + _SIM_BLOCKS[40:])],
    "backward-step-then-in-order": [
        _join(_SIM_BLOCKS[5:40] + _SIM_BLOCKS[:5]), _join(_SIM_BLOCKS[40:])],
    "malformed": [_join(_PERF_BLOCKS[:3] + ["this is not a header"] + _PERF_BLOCKS[3:])
                  + "\t zz not a frame\n"],
    "empty": [""],
    # its one header's pid is past int()'s digit limit: perf text, no events
    "no-events": ["a " + "1" * 5000 + " [0] 1.0: cpu-clock:\n"],
    "samples-only": [_join(_PERF_BLOCKS[:3])],
    "no-sched-events": [
        "gzip 100/100 [000] 10.000000: syscalls:sys_enter_read: fd=3\n\n"
        "gzip 100/100 [000] 10.200000: cpu-clock: \n\t400000 deflate+0x10 (libz.so)\n\n"
        "gzip 100/100 [000] 10.300000: block:block_rq_issue: dev=8\n\n"
        "scp 200/200 [001] 10.300000: cpu-clock: \n\t500000 aes (libcrypto.so)\n\n"
        "gzip 100/100 [000] 10.400000: syscalls:sys_exit_read: ret=0\n"],
    # malformed frame lines in blocks whose stacks a verb may not build:
    # a sample's (first as its leaf, then as a caller), a syscall's and a
    # switch's, and one valid caller line in every kind of block
    "unread-frames": [
        "gzip 100/100 [000] 10.000000: cpu-clock: \n"
        "\t zz not a leaf\n\t400000 deflate+0x10 (libz.so)\n\t400040 main (gzip)\n\n"
        "gzip 100/100 [000] 10.100000: syscalls:sys_enter_read: fd=3\n"
        "\t700000 read (libc.so)\n\t400040 main (gzip)\n\t(no address)\n\n"
        "gzip 100/100 [000] 10.200000: cpu-clock: \n"
        "\t400000 deflate+0x10 (libz.so)\n\t400040 main (gzip\n\t400040 main (gzip)\n\n"
        "gzip 100/100 [000] 10.300000: sched:sched_switch: prev_comm=gzip prev_pid=100 "
        "prev_prio=120 prev_state=S ==> next_comm=swapper next_pid=0 next_prio=120\n"
        "\t600000 futex_wait ([kernel.kallsyms])\n\tzz main (gzip)\n\t400040 main (gzip)\n\n"
        "scp 200/200 [001] 10.400000: sched:sched_wakeup: comm=gzip pid=100 prio=120\n"
        "\t400040 main (gzip)\n\n"
        "gzip 100/100 [000] 10.500000: sched:sched_switch: prev_comm=swapper prev_pid=0 "
        "prev_prio=120 prev_state=R ==> next_comm=gzip next_pid=100 next_prio=120\n\n"
        "gzip 100/100 [000] 10.600000: syscalls:sys_exit_read: ret=0\n"
        "\t400040 main (gzip)\n\t700000 read (libc.so)\n"],
}

_FOLD_VERBS = {"offcpu": ["offcpu"], "report": ["report"],
               "json": ["export", "--format", "json"], "parse": ["parse"],
               "csv": ["export", "--format", "csv"],
               "bulk": ["export", "--format", "bulk"]}

_NO_FORMAT = "latprof: error: empty-0.txt: cannot detect input format; use --format\n"
_STRICT = "latprof: error: line 12: unrecognized event header: 'this is not a header'\n"
_UNREAD = "unread-frames-0.txt: 4 malformed lines skipped\n"
_UNREAD_STRICT = "latprof: error: line 2: unrecognized stack frame: '\\t zz not a leaf'\n"
_BAD_INDEX_NAME = \
    "latprof: error: index name must match [a-z0-9_-]+, got 'Not An Index'\n"

# (exit code, sha256 of stdout (first 16 hex digits), stderr) of each case
# and verb with its inputs given as files, recorded when every analysis
# loaded all events and sorted them before walking them, and `parse`,
# csv and bulk loaded every event before writing any
FOLD_OUTPUTS = {
    "backward-step": {
        "bulk": (0, "58d95df7648786aa", ""),
        "csv": (0, "6748e1e65c4d22dd", ""),
        "json": (0, "1475c77d0ea7ca84", ""),
        "offcpu": (0, "072bff2f3b4680e9", ""),
        "parse": (0, "de75ec4129217d8e", ""),
        "report": (0, "2a6082f79eac3003", ""),
    },
    "backward-step-then-in-order": {
        "bulk": (0, "58d95df7648786aa", ""),
        "csv": (0, "6748e1e65c4d22dd", ""),
        "json": (0, "1475c77d0ea7ca84", ""),
        "offcpu": (0, "072bff2f3b4680e9", ""),
        "parse": (0, "de75ec4129217d8e", ""),
        "report": (0, "2a6082f79eac3003", ""),
    },
    "empty": {
        "bulk": (1, "e3b0c44298fc1c14", _NO_FORMAT),
        "csv": (1, "e3b0c44298fc1c14", _NO_FORMAT),
        "json": (1, "e3b0c44298fc1c14", _NO_FORMAT),
        "offcpu": (1, "e3b0c44298fc1c14", _NO_FORMAT),
        "parse": (1, "e3b0c44298fc1c14", _NO_FORMAT),
        "report": (1, "e3b0c44298fc1c14", _NO_FORMAT),
    },
    "empty-as-perf": {
        "offcpu": (0, "c711426f253c1df9", ""),
        "parse": (0, "e3b0c44298fc1c14", ""),
        "report": (0, "35c64ded92b284f7", ""),
    },
    "empty-bad-index": {
        "bulk": (1, "e3b0c44298fc1c14", _NO_FORMAT),
    },
    "equal-ts-across-inputs": {
        "bulk": (0, "58d95df7648786aa", ""),
        "csv": (0, "6748e1e65c4d22dd", ""),
        "json": (0, "1475c77d0ea7ca84", ""),
        "offcpu": (0, "072bff2f3b4680e9", ""),
        "parse": (0, "647f955649d1ce37", ""),
        "report": (0, "2a6082f79eac3003", ""),
    },
    "equal-ts-across-inputs-swapped": {
        "bulk": (0, "58d95df7648786aa", ""),
        "csv": (0, "6748e1e65c4d22dd", ""),
        "json": (0, "1475c77d0ea7ca84", ""),
        "offcpu": (0, "072bff2f3b4680e9", ""),
        "parse": (0, "024d1107d46a882a", ""),
        "report": (0, "2a6082f79eac3003", ""),
    },
    "malformed": {
        "bulk": (0, "b99d8f2e2ee28e52", "malformed-0.txt: 2 malformed lines skipped\n"),
        "csv": (0, "5a30fd802c2284ad", "malformed-0.txt: 2 malformed lines skipped\n"),
        "json": (0, "672ddcc610ba92e2", "malformed-0.txt: 2 malformed lines skipped\n"),
        "offcpu": (0, "b9e80c45fc39cef7", "malformed-0.txt: 2 malformed lines skipped\n"),
        "parse": (0, "d50fc4178af506ab", "malformed-0.txt: 2 malformed lines skipped\n"),
        "report": (0, "7688a77b6fe7e728", "malformed-0.txt: 2 malformed lines skipped\n"),
    },
    "malformed-bad-index": {
        "bulk": (1, "e3b0c44298fc1c14",
                 "malformed-0.txt: 2 malformed lines skipped\n" + _BAD_INDEX_NAME),
    },
    "malformed-strict": {
        "bulk": (1, "e3b0c44298fc1c14", _STRICT),
        "csv": (1, "e3b0c44298fc1c14", _STRICT),
        "json": (1, "e3b0c44298fc1c14", _STRICT),
        "offcpu": (1, "e3b0c44298fc1c14", _STRICT),
        "parse": (1, "e3b0c44298fc1c14", _STRICT),
        "report": (1, "e3b0c44298fc1c14", _STRICT),
    },
    "no-events": {
        "bulk": (0, "e3b0c44298fc1c14", "no-events-0.txt: 1 malformed lines skipped\n"),
        "csv": (0, "6bdbcac848040645", "no-events-0.txt: 1 malformed lines skipped\n"),
        "json": (0, "c4088b70a3560a37", "no-events-0.txt: 1 malformed lines skipped\n"),
        "offcpu": (0, "c711426f253c1df9", "no-events-0.txt: 1 malformed lines skipped\n"),
        "parse": (0, "e3b0c44298fc1c14", "no-events-0.txt: 1 malformed lines skipped\n"),
        "report": (0, "35c64ded92b284f7", "no-events-0.txt: 1 malformed lines skipped\n"),
    },
    "no-events-bad-bin-width": {
        "json": (0, "c4088b70a3560a37", "no-events-0.txt: 1 malformed lines skipped\n"),
    },
    "no-sched-events": {
        "bulk": (0, "3326950616eb820a", ""),
        "csv": (0, "8543ad7bfb9b2f68", ""),
        "json": (0, "907648e11f68b56a", ""),
        "offcpu": (0, "c711426f253c1df9", ""),
        "parse": (0, "0551e7fefd66a43c", ""),
        "report": (0, "9e674540a29571c9", ""),
    },
    "no-sched-events-half-second-bins": {
        "json": (0, "bb9107f80416b851", ""),
    },
    "samples-only": {
        "bulk": (0, "737e472e32a5d599", ""),
        "csv": (0, "ad0c91781c39e607", ""),
        "json": (0, "e22e4a7b02feb8b3", ""),
        "offcpu": (0, "c711426f253c1df9", ""),
        "parse": (0, "542bbad38daaa2df", ""),
        "report": (0, "feb102f4399c3b16", ""),
    },
    "samples-only-bad-bin-width": {
        "json": (1, "e3b0c44298fc1c14", "latprof: error: bin width must be positive\n"),
    },
    "samples-only-bad-index": {
        "bulk": (1, "e3b0c44298fc1c14", _BAD_INDEX_NAME),
    },
    "unread-frames": {
        "bulk": (0, "14c53743374f2d76", _UNREAD),
        "csv": (0, "2a7068f8d58fa9f2", _UNREAD),
        "json": (0, "99545d46c8669ef7", _UNREAD),
        "offcpu": (0, "59b02b20cc18f0a6", _UNREAD),
        "parse": (0, "26f8d364211e44b3", _UNREAD),
        "report": (0, "c55c5646cb76c027", _UNREAD),
    },
    "unread-frames-strict": {
        "bulk": (1, "e3b0c44298fc1c14", _UNREAD_STRICT),
        "csv": (1, "e3b0c44298fc1c14", _UNREAD_STRICT),
        "json": (1, "e3b0c44298fc1c14", _UNREAD_STRICT),
        "offcpu": (1, "e3b0c44298fc1c14", _UNREAD_STRICT),
        "parse": (1, "e3b0c44298fc1c14", _UNREAD_STRICT),
        "report": (1, "e3b0c44298fc1c14", _UNREAD_STRICT),
    },
}

_BAD_INDEX = ["--index", "Not An Index"]

# extra argv per case: (name suffix, argv added to every verb)
_FOLD_VARIANTS = {
    "malformed": [("", []), ("-strict", ["--strict"]), ("-bad-index", _BAD_INDEX)],
    "empty": [("", []), ("-as-perf", ["--format", "perf"]), ("-bad-index", _BAD_INDEX)],
    "no-events": [("", []), ("-bad-bin-width", ["--bin-width", "0"])],
    "samples-only": [("", []), ("-bad-bin-width", ["--bin-width", "0"]),
                     ("-bad-index", _BAD_INDEX)],
    "no-sched-events": [("", []), ("-half-second-bins", ["--bin-width", "0.5"])],
    "unread-frames": [("", []), ("-strict", ["--strict"])],
}


class _Pipe(io.BytesIO):
    """Bytes that cannot be read twice, as from a pipe."""

    def seekable(self):
        return False


def _outcome(capsys, argv, stdin=None):
    if stdin is None:
        code = main(argv)
    else:
        with unittest.mock.patch("sys.stdin", io.TextIOWrapper(stdin)):
            code = main(argv)
    out, err = capsys.readouterr()
    return code, hashlib.sha256(out.encode()).hexdigest()[:16], err


def test_fold_outputs_match_loading_every_event(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # stderr names the inputs as given
    # blocks of two rows: csv and bulk rows reach the spool before a
    # backward step restarts the fold, which must drop them
    monkeypatch.setattr(export, "_BLOCK_ROWS", 2)
    got = {}
    for case, texts in FOLD_INPUTS.items():
        names = [f"{case}-{i}.txt" for i in range(len(texts))]
        for name, text in zip(names, texts):
            (tmp_path / name).write_text(text)
        inputs = [arg for name in names for arg in ("--input", name)]
        for suffix, extra in _FOLD_VARIANTS.get(case, [("", [])]):
            for verb, argv in _FOLD_VERBS.items():
                if "--format" in extra and argv[0] == "export":
                    continue  # export's --format names the output format
                if "--bin-width" in extra and verb != "json" \
                        or "--index" in extra and verb != "bulk":
                    continue
                outcome = _outcome(capsys, argv + extra + inputs)
                got.setdefault(case + suffix, {})[verb] = outcome
                if len(texts) == 1:  # the same from stdin, seekable or not
                    code, digest, err = outcome
                    want = (code, digest, err.replace(names[0], "<stdin>"))
                    for stdin in (io.BytesIO, _Pipe):
                        assert _outcome(capsys, argv + extra,
                                        stdin(texts[0].encode())) == want, (case, verb)
    assert got == FOLD_OUTPUTS


# (exit code, sha256 of stdout (first 16 hex digits), stderr) when the
# sort fallback runs, recorded when it loaded each input into a list:
# "back-then-bad-byte" steps back in its first input, which has a
# malformed line, and its second input has a byte that is not UTF-8 past
# where the streaming path stops reading it; "stdin-twice" reads one
# stream as two inputs, the second read empty
_BAD_BYTE = ("back-0.txt: 1 malformed lines skipped\n"
             "latprof: error: back-1.txt: line 131746: byte 0xff is not UTF-8"
             " (invalid start byte)\n")
_TWICE = ("<stdin>: 2 malformed lines skipped\n"
          "latprof: error: <stdin>: cannot detect input format; use --format\n")
FALLBACK_OUTPUTS = {
    "back-then-bad-byte": {
        "csv": (1, "e3b0c44298fc1c14", _BAD_BYTE),
        "json": (1, "e3b0c44298fc1c14", _BAD_BYTE),
        "offcpu": (1, "e3b0c44298fc1c14", _BAD_BYTE),
    },
    "stdin-twice": {
        "csv": (1, "e3b0c44298fc1c14", _TWICE),
        "json": (1, "e3b0c44298fc1c14", _TWICE),
        "offcpu": (1, "e3b0c44298fc1c14", _TWICE),
    },
    "stdin-twice-as-perf": {
        "offcpu": (0, "b9e80c45fc39cef7", "<stdin>: 2 malformed lines skipped\n"),
    },
}


def test_fallback_counts_each_inputs_malformed_lines_when_it_ends(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # stderr names the inputs as given
    (tmp_path / "back-0.txt").write_text(_join(
        _SIM_BLOCKS[5:20] + ["this is not a header"] + _SIM_BLOCKS[20:40] + _SIM_BLOCKS[:5]))
    # blank lines past the block the streaming path decodes first
    (tmp_path / "back-1.txt").write_bytes(
        (_join(_SIM_BLOCKS[40:]) + "\n" * 2**17).encode() + b"\xff\n")
    got = {}
    for verb in ("offcpu", "csv", "json"):
        argv = _FOLD_VERBS[verb]
        got.setdefault("back-then-bad-byte", {})[verb] = _outcome(
            capsys, argv + ["--input", "back-0.txt", "--input", "back-1.txt"])
        got.setdefault("stdin-twice", {})[verb] = _outcome(
            capsys, argv + ["--input", "-", "--input", "-"],
            io.BytesIO(FOLD_INPUTS["malformed"][0].encode()))
    got["stdin-twice-as-perf"] = {"offcpu": _outcome(
        capsys, ["offcpu", "--format", "perf", "--input", "-", "--input", "-"],
        io.BytesIO(FOLD_INPUTS["malformed"][0].encode()))}
    assert got == FALLBACK_OUTPUTS


def test_fallback_frees_the_streaming_pass_before_it_sorts(tmp_path, capsys, monkeypatch):
    # the stream gives up at the backward step; the interns of what it
    # parsed must be gone before the sort fallback parses every event again
    path = tmp_path / "back.txt"
    path.write_text(FOLD_INPUTS["backward-step"][0])
    made = []  # a weak reference to each PerfInterns made
    alive = []  # at each sort, which of them are alive
    real_interns, real_sort = parsers.PerfInterns, sched_analysis.canonical_sort

    def interns():
        obj = real_interns()
        made.append(weakref.ref(obj))
        return obj

    def canonical_sort(events):
        alive.append([ref() is not None for ref in made])
        return real_sort(events)

    monkeypatch.setattr(parsers, "PerfInterns", interns)
    monkeypatch.setattr(sched_analysis, "canonical_sort", canonical_sort)
    for verb, argv in _FOLD_VERBS.items():
        if verb == "parse":  # it never sorts
            continue
        made.clear()
        alive.clear()
        assert main(argv + ["--input", str(path)]) == 0, verb
        # the sort is called before the fallback parses anything
        assert alive == [[False]], verb
    capsys.readouterr()


def test_strict_error_in_a_later_input_writes_nothing(tmp_path, capsys, monkeypatch):
    # the second input's bad line is read after the first input's events
    # are written (parse) or folded (the rest); with blocks of two rows,
    # the writers have passed rows on to the spool by then
    monkeypatch.setattr(export, "_BLOCK_ROWS", 2)
    first = tmp_path / "first.txt"
    first.write_text(_join(_SIM_BLOCKS[:40]))
    second = tmp_path / "second.txt"
    second.write_text(_join(_SIM_BLOCKS[40:] + ["this is not a header"]))
    out = tmp_path / "out.txt"
    for verb, argv in _FOLD_VERBS.items():
        inputs = ["--strict", "--input", str(first), "--input", str(second)]
        for extra in ([], ["--out", str(out)]):
            code, digest, err = _outcome(capsys, argv + inputs + extra)
            assert (code, digest) == (1, "e3b0c44298fc1c14"), (verb, extra)
            assert err.startswith("latprof: error: line "), (verb, err)
            assert not out.exists(), verb


@pytest.fixture(scope="module")
def sim_traces(tmp_path_factory):
    """Two simulator traces of one shape, the second 4x as long."""
    paths = {}
    for items in (400, 1600):
        paths[items] = tmp_path_factory.mktemp("sim") / f"sim-{items}.txt"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--producers", "4", "--consumers", "4",
                         "--capacity", "2", "--items", str(items), "--jitter", "0.2",
                         "--seed", "1", "--out", str(paths[items])]) == 0
    return paths


def _peak_mib(argv, path) -> float:
    """tracemalloc's peak, in MiB, of running `argv` on `path`, its output
    going to a file so that the output is not counted."""
    tracemalloc.start()
    try:
        assert main(argv + ["--input", str(path), "--out", f"{path}.out"]) == 0
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _growth(argv, small, large, warm=None) -> tuple:
    # imports and first-call caches are not the trace's
    _peak_mib(argv, small if warm is None else warm)
    return _peak_mib(argv, small), _peak_mib(argv, large)


def test_offcpu_memory_does_not_grow_with_the_trace(sim_traces):
    small, large = _growth(["offcpu"], sim_traces[400], sim_traces[1600])
    assert large / small < 1.5, (small, large)


@pytest.mark.parametrize("verb", ["parse", "csv", "bulk"])
def test_streaming_verb_memory_does_not_grow_with_the_trace(sim_traces, verb):
    small, large = _growth(_FOLD_VERBS[verb], sim_traces[400], sim_traces[1600])
    assert large / small < 1.5, (small, large)


@pytest.fixture(scope="module")
def sampled_traces(tmp_path_factory):
    """Three traces of a sampled program: a short one to warm up on, then
    two, the second 4x as long, whose distinct caller frames grow with
    their length.  The shorter of the two already has more distinct frame
    lines than the parse remembers as checked."""
    paths = []
    for events in (50, 700, 2800):
        paths.append(tmp_path_factory.mktemp("sampled") / f"sampled-{events}.txt")
        paths[-1].write_text(sampled_trace(events))
    frame_lines = {line for line in paths[1].read_text().splitlines()
                   if line.startswith("\t")}
    assert len(frame_lines) > parsers._CHECKED_LINES
    return paths


@pytest.mark.parametrize("verb", ["offcpu", "report", "csv", "bulk", "json"])
def test_verb_memory_does_not_grow_with_a_sampled_trace(sampled_traces, verb):
    # these verbs build the leaf of a sample at most, and check its callers;
    # `parse` is left out, because it builds every frame of every sample,
    # and the interns that hold them are not bounded
    warm, small, large = sampled_traces
    small, large = _growth(_FOLD_VERBS[verb], small, large, warm)
    assert large / small < 1.5, (small, large)


def _simulate_peak_mib(items, argv) -> float:
    """tracemalloc's peak, in MiB, of a simulator run of `items` per
    producer, its output going to a file so that the output is not
    counted."""
    tracemalloc.start()
    try:
        assert main(["simulate", "--producers", "2", "--consumers", "2", "--capacity", "2",
                     "--items", str(items), "--jitter", "0.2", "--seed", "1"] + argv) == 0
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check", [[], ["--check"]])
def test_simulate_memory_does_not_grow_with_the_run(tmp_path, check):
    argv = check + ["--out", str(tmp_path / "out.txt")]
    _simulate_peak_mib(100, argv)  # imports and first-call caches are not the run's
    small, large = _simulate_peak_mib(100, argv), _simulate_peak_mib(400, argv)
    assert large / small < 1.5, (small, large)
