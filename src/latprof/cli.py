"""Command-line interface: parse -> analyze -> report/export, plus the simulator.

One verb per workflow: `parse` dumps normalized records as NDJSON, `report`
renders a flat-profile report from perf-script text, `offcpu` attributes
off-CPU wait time, `locks` analyzes contention and deadlock risk, `graph`
runs the generic graph algorithms over an edge list, `simulate` runs the
bounded-buffer simulator, `export` writes dashboard files.

Exit codes: 0 success, 1 analysis error, 2 usage error.  Diagnostics go to
stderr; data goes to stdout or --out.  Same argv plus same input files
yields byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import math
import os
import shutil
import sys
import tempfile
from fractions import Fraction

# the analysis modules are imported by the verbs that use them, so that a
# run compiles and loads only what its verb needs
from . import export, parsers
from .trace_model import STACK_NONE, event_parts

# graph_core.GraphError and simgen.ConfigError are ValueErrors
_ANALYSIS_ERRORS = (
    parsers.ParseError,
    export.BadIndexName,
    ValueError,
    OSError,
)


# input is read and decoded this many bytes at a time
_BLOCK_BYTES = 1 << 16


def _decode(name: str, data, lines_before: int) -> str:
    """`data` decoded as UTF-8; bytes that are not UTF-8 are a ParseError
    naming the line of the first bad one, `lines_before` lines counted
    before `data`."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = lines_before + len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise parsers.ParseError(
            f"{name}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8"
            f" ({exc.reason})") from None


def _read_lines(name: str, stream):
    """Yield the lines of a binary stream's UTF-8 text, as the whole text's
    `splitlines()` would, decoding one block at a time.

    Each block is cut after its last newline byte and the rest carried
    into the next, so no multi-byte character and no \\r\\n pair is split,
    and the whole text is never held.  A bad byte raises `_decode`'s
    ParseError with the same line number as decoding the whole text.
    """
    lines_before = 0  # lines yielded from earlier blocks
    rest = bytearray()
    while True:
        chunk = stream.read(_BLOCK_BYTES)
        if chunk:
            rest += chunk
            cut = rest.rfind(b"\n", len(rest) - len(chunk)) + 1
            if not cut:
                continue
        else:
            cut = len(rest)
        block = rest[:cut]
        del rest[:cut]
        lines = _decode(name, block, lines_before).splitlines()
        yield from lines
        if not chunk:
            return
        lines_before += len(lines)


@contextlib.contextmanager
def _open_inputs(paths):
    """(name, binary stream) for each input path ('-' is stdin), every file
    opened before any is read, so a missing one fails before any output."""
    with contextlib.ExitStack() as files:
        yield [("<stdin>", sys.stdin.buffer) if path == "-"
               else (path, files.enter_context(open(path, "rb")))
               for path in paths or ["-"]]


def _sniffed_lines(name: str, stream, override) -> tuple:
    """(format, lines) of one input: the format from its first lines, then
    an iterator over all of its lines."""
    lines = _read_lines(name, stream)
    head = list(itertools.islice(lines, parsers.SNIFF_LINES))
    return _detect(name, head, override), itertools.chain(head, lines)


def _text(lines) -> str:
    """The lines, each ended by "\\n": a text whose `splitlines()`, which
    is all the whole-text parsers read, gives back exactly these lines."""
    return "".join(line + "\n" for line in lines)


class _Spool:
    """A verb's output, held UTF-8 encoded in an anonymous temporary file
    until the verb has succeeded, so that a run that fails writes nothing
    and every verb writes UTF-8, whatever the encoding of stdout."""

    def __init__(self, file):
        self.file = file

    def write(self, text: str) -> None:
        self.file.write(text.encode())

    def clear(self) -> None:
        """Drop everything written so far."""
        self.file.seek(0)
        self.file.truncate()


@contextlib.contextmanager
def _spooled_output(out_path):
    """Yield a `_Spool` for a verb's output, and copy what it holds to
    `out_path` (stdout when None) if the block ends without an error."""
    with tempfile.TemporaryFile() as file:
        yield _Spool(file)
        file.seek(0)
        if out_path:
            with open(out_path, "wb") as handle:
                shutil.copyfileobj(file, handle)
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.flush()
            shutil.copyfileobj(file, sys.stdout.buffer)
        else:  # a text-only stdout, such as an io.StringIO
            with io.TextIOWrapper(file, "utf-8", newline="") as text:
                shutil.copyfileobj(text, sys.stdout)


@contextlib.contextmanager
def _side_file(path):
    """Yield a text file for `path` (None for no path).  A new or regular
    file is written beside `path` and takes its place only if the block
    ends without an error, so a run that fails creates no side file; any
    other path (a device, a pipe) is written in place."""
    if not path:
        yield None
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
        return
    try:
        fd, staged = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".latprof-")
    except OSError as exc:  # name the path asked for, not the staged one
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            yield handle
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(staged, 0o666 & ~umask)  # the mode `open` would have given
        os.replace(staged, target)
    except BaseException:
        os.unlink(staged)
        raise


def _detect(name: str, source, override) -> str:
    if override:
        return override
    fmt = parsers.sniff_format(source)
    if fmt is None:
        raise parsers.ParseError(f"{name}: cannot detect input format; use --format")
    return fmt


def _note_malformed(name: str, errors: list) -> None:
    if errors:
        print(f"{name}: {len(errors)} malformed lines skipped", file=sys.stderr)


def _perf_lines(name: str, stream, args):
    """The lines of one input, which must be perf-script text."""
    fmt, lines = _sniffed_lines(name, stream, getattr(args, "format", None))
    if fmt != "perf":
        raise parsers.ParseError(f"{name}: expected perf-script text, detected {fmt}")
    return lines


def _stack_depth(folds):
    """The `depth` to parse for `folds`: of each event name, the most that
    any of their `add`s reads of its events' stacks."""
    def depth(event):
        parts = event_parts(event)
        return max((fold.stack_depth(*parts) for fold in folds), default=STACK_NONE)
    return depth


def _input_events(args, inputs, depth):
    """Yield the perf-script events of each input in turn, in input order,
    their stacks built to `depth`; each input's malformed lines are counted
    on stderr as it ends (or, when strict, raised)."""
    for name, stream in inputs:
        errors = []
        yield from parsers.perf_events(_perf_lines(name, stream, args), errors,
                                       args.strict, depth=depth)
        _note_malformed(name, errors)


def _analysis_config(args) -> sched_analysis.AnalysisConfig:
    from . import sched_analysis

    lock_symbols = sched_analysis.DEFAULT_LOCK_SYMBOLS
    if getattr(args, "lock_symbols", None):
        lock_symbols = frozenset(s for s in args.lock_symbols.split(",") if s)
    lookback = sched_analysis.DEFAULT_LOOKBACK_NS
    if getattr(args, "lookback_ms", None) is not None:
        lookback = int(Fraction(str(args.lookback_ms)) * 10**6)
    return sched_analysis.AnalysisConfig(lock_symbols=lock_symbols,
                                         lookback_ns=lookback)


def _spooled(stream):
    """A rewound temporary file holding the rest of `stream`'s bytes."""
    spool = tempfile.TemporaryFile()
    shutil.copyfileobj(stream, spool)
    spool.seek(0)
    return spool


def _fold_events(args, start) -> list:
    """Feed every perf-script event of the inputs, in canonical order, to
    the folds `start()` returns (objects with an `add(event)` method),
    and return those folds.

    Each event's stack is built only as far as the folds read it (see
    `_stack_depth`).  When every input is in time order, events stream
    from the parse through `canonical_stream` into the folds, and no event
    list is held; the inputs share one `PerfInterns`.  When one steps back
    in time, that pass is dropped, the inputs are read again from their
    start, one after another, and every event is `canonical_sort`ed; fresh
    folds from `start()` are fed that, so the result is the same.  A
    stream that cannot seek back (a pipe) is first copied to a temporary
    file.  Malformed-line counts go to stderr in input order either way.
    """
    from . import sched_analysis

    with _open_inputs(args.input) as inputs, contextlib.ExitStack() as spools:
        # a stream given twice ('-' twice) is read once, as the sort reads it
        if len({id(stream) for _, stream in inputs}) == len(inputs):
            inputs = [(name, stream if stream.seekable()
                       else spools.enter_context(_spooled(stream)))
                      for name, stream in inputs]
            folds = _streamed(args, inputs, start)
            if folds is not None:
                return folds
        # no streaming pass is left: its folds, interns and errors are freed
        folds = start()
        _feed(sched_analysis.canonical_sort(
            _input_events(args, inputs, _stack_depth(folds))), folds)
        return folds


def _streamed(args, inputs, start):
    """The folds `start()` returns, fed the events of the seekable `inputs`
    through `canonical_stream`, with each input's malformed lines counted
    on stderr; None, every input back at its start, when one steps back in
    time."""
    from . import sched_analysis

    starts = [stream.tell() for _, stream in inputs]
    folds = start()
    depth = _stack_depth(folds)
    interns = parsers.PerfInterns()
    errors = [[] for _ in inputs]
    events = sched_analysis.canonical_stream([
        parsers.perf_events(_perf_lines(name, stream, args), errs, args.strict,
                            interns, depth)
        for (name, stream), errs in zip(inputs, errors)])
    try:
        _feed(events, folds)
    except sched_analysis.OutOfOrder:
        for (_, stream), pos in zip(inputs, starts):
            stream.seek(pos)
        return None
    for (name, _), errs in zip(inputs, errors):
        _note_malformed(name, errs)
    return folds


def _feed(events, folds) -> None:
    adds = [fold.add for fold in folds]
    for ev in events:
        for add in adds:
            add(ev)


def _finish_walk(walk) -> None:
    """Close the walk's open intervals and count on stderr the
    contradictory transitions it ignored."""
    walk.finish()
    if walk.anomalies:
        print(f"{walk.anomalies} contradictory scheduler transitions ignored",
              file=sys.stderr)


# --- subcommands ---


# `parse` NDJSON of the record formats: each format's parser
_RECORD_FORMATS = {
    "gprof": parsers.parse_gprof_flat,
    "oprofile": parsers.parse_oprofile_flat,
    "mutrace": parsers.parse_mutrace,
    "strace": parsers.parse_strace,
}


def cmd_parse(args) -> int:
    with _open_inputs(args.input) as inputs, _spooled_output(args.out) as spool:
        for name, stream in inputs:
            fmt, lines = _sniffed_lines(name, stream, args.format)
            if fmt == "perf":
                # each event is written as it is parsed, in input order;
                # each input has its own interns, freed when it ends
                errors = []
                writer = export.PerfNdjsonWriter(spool.write)
                _feed(parsers.perf_events(lines, errors, args.strict), [writer])
                writer.flush()
                _note_malformed(name, errors)
            elif fmt in _RECORD_FORMATS:
                spool.write(export.to_records_ndjson(_RECORD_FORMATS[fmt](_text(lines))))
            else:
                raise parsers.ParseError(f"{name}: no NDJSON dump for format {fmt}")
    return 0


def cmd_report(args) -> int:
    from . import profile_agg, sched_analysis

    config = _analysis_config(args)
    walk, profile = _fold_events(args, lambda: [
        sched_analysis.SchedWalk(config), profile_agg.FlatProfile(args.group_by)])
    _finish_walk(walk)
    with _spooled_output(args.out) as spool:
        spool.write(export.render_text_report(profile.rows(), walk.summary,
                                              top_n=args.top))
    return 0


def cmd_offcpu(args) -> int:
    from . import sched_analysis

    config = _analysis_config(args)
    [walk] = _fold_events(args, lambda: [sched_analysis.SchedWalk(config)])
    _finish_walk(walk)
    with _spooled_output(args.out) as spool:
        spool.write(export.render_offcpu_report(walk.summary, walk.comms(), args.top))
    return 0


def cmd_locks(args) -> int:
    from . import lock_analysis
    from .graph_core import detect_cycles

    lines = []
    with _open_inputs(args.input) as inputs:
        for name, stream in inputs:
            fmt, source = _sniffed_lines(name, stream, args.format)
            text = _text(source)
            if fmt == "mutrace":
                lines.extend(export.render_lock_table(parsers.parse_mutrace(text)))
            elif fmt == "acquisitions":
                acqs = lock_analysis.read_acquisitions_csv(text)
                stats = lock_analysis.contention_stats(acqs)
                cycles = detect_cycles(lock_analysis.build_lock_order_graph(acqs),
                                       max_len=args.max_len)
                lines.extend(export.render_lock_table(stats))
                lines.append("")
                lines.append("=== Lock-order cycles (deadlock risk) ===")
                if cycles:
                    for cycle in cycles:
                        lines.append(" -> ".join(str(n) for n in cycle + [cycle[0]]))
                else:
                    lines.append("(none detected)")
            else:
                raise parsers.ParseError(
                    f"{name}: locks needs mutrace text or an acquisitions CSV, got {fmt}")
    with _spooled_output(args.out) as spool:
        spool.write("\n".join(lines) + "\n")
    return 0


def cmd_graph(args) -> int:
    from .graph_core import Graph, GraphError, critical_path, detect_cycles, \
        minimum_spanning_tree, shortest_path

    if args.input and len(args.input) > 1:
        print("latprof graph: error: graph takes one --input", file=sys.stderr)
        return 2
    with _open_inputs(args.input) as ((name, stream),):
        text = _text(_read_lines(name, stream))
    graph = Graph.parse_edge_list(text, directed=not args.undirected)
    lines = []
    if args.critical_path is not None:
        path, weight = critical_path(graph, args.critical_path)
        lines.append(" -> ".join(path))
        lines.append(f"total weight: {weight}")
    elif args.shortest is not None:
        path, dist = shortest_path(graph, args.shortest[0], args.shortest[1])
        lines.append(" -> ".join(path))
        lines.append(f"distance: {dist}")
    elif args.mst:
        edges, total = minimum_spanning_tree(graph)
        for u, v in sorted(edges):
            lines.append(f"{u} {v} {graph.weight(u, v)}")
        lines.append(f"total weight: {total}")
    elif args.cycles:
        found = detect_cycles(graph, max_len=args.max_len)
        if found:
            lines.extend(" -> ".join(map(str, c + [c[0]])) for c in found)
        else:
            lines.append("(no cycles)")
    else:
        raise GraphError("choose one of --critical-path/--shortest/--mst/--cycles")
    with _spooled_output(args.out) as spool:
        spool.write("\n".join(lines) + "\n")
    return 0


def cmd_simulate(args) -> int:
    from . import lock_analysis, simgen

    cfg = simgen.SimConfig(
        producers=args.producers,
        consumers=args.consumers,
        queues=args.queues,
        capacity=args.capacity,
        items_per_producer=args.items,
        produce_ns=simgen.seconds_to_ns(args.produce_time),
        consume_ns=simgen.seconds_to_ns(args.consume_time),
        critical_ns=simgen.seconds_to_ns(args.critical_time),
        seed=args.seed,
        jitter=args.jitter,
        inverted_wait_order=args.inverted_wait_order,
    )
    truth = simgen.GroundTruth()
    rows = [] if args.acquisitions else None
    events = simgen.simulate_events(cfg, truth, rows)
    # the side files take their places only after the spool is copied out
    with (_side_file(args.truth) as truth_file,
          _side_file(args.acquisitions) as acquisitions_file,
          _spooled_output(args.out) as spool):
        # the run streams into the check or the trace writer; its ledger
        # and acquisition rows are complete once its events are exhausted
        if args.check:
            report = simgen.replay_check(events, truth)
            lines = [f"checked {report.checked} (tid, semaphore) ledger entries"]
            for d in report.discrepancies:
                lines.append(
                    f"{d.kind}: tid {d.tid} {d.sem}: truth {d.truth_ns} ns x{d.truth_count}"
                    f" vs measured {d.measured_ns} ns x{d.measured_count}")
            lines.append("replay: " + ("clean" if report.clean else
                                       f"{len(report.discrepancies)} discrepancies"))
            spool.write("\n".join(lines) + "\n")
        else:
            writer = export.PerfScriptWriter(spool.write)
            _feed(events, [writer])
            writer.flush()
        if truth.deadlocked:
            stuck = ", ".join(f"tid {tid} on {sem}" for tid, sem, _ in truth.pending)
            print(f"deadlock reached: {stuck}", file=sys.stderr)
        if truth.timed_out:
            print("simulated-time limit hit before completion", file=sys.stderr)

        if truth_file is not None:
            truth_file.write(truth.to_json())
        if acquisitions_file is not None:
            acquisitions_file.write(lock_analysis.write_acquisitions_csv(
                simgen.lock_acquisitions(rows)))
    return 1 if args.check and not report.clean else 0


def _export_rows(args) -> int:
    """`export --format csv|bulk`: one row per event, in canonical order,
    each written as the fold reaches it."""
    index_error = None
    if args.export_format == "bulk":
        try:
            export.check_index_name(args.index)
        except export.BadIndexName as exc:  # an error once the inputs are read
            index_error = exc
    with _spooled_output(args.out) as spool:
        def start():
            spool.clear()  # a restart drops the rows written so far
            if index_error is not None:
                return []
            if args.export_format == "csv":
                return [export.CsvWriter(spool.write)]
            return [export.BulkWriter(spool.write, args.index)]

        folds = _fold_events(args, start)
        if index_error is not None:
            raise index_error
        folds[0].flush()
    return 0


def cmd_export(args) -> int:
    if args.export_format in ("csv", "bulk"):
        return _export_rows(args)
    from . import profile_agg, sched_analysis

    config = _analysis_config(args)
    try:
        export.EventCounts(args.bin_width)
        width_error = None
    except ValueError as exc:  # an error only once there are events to bin
        width_error = exc

    def start():
        folds = [sched_analysis.SchedWalk(config), profile_agg.FlatProfile()]
        return folds + ([export.EventCounts(args.bin_width)] if width_error is None else [])

    walk, profile, *counts = _fold_events(args, start)
    histogram = pie = summary = None  # no events: no histogram and no pie
    if walk.origin is not None:
        if width_error is not None:
            raise width_error
        histogram, pie = counts[0].histogram(), counts[0].pie()
    if walk.saw_sched:  # no sched events: no wait sections
        _finish_walk(walk)
        summary = walk.summary
    with _spooled_output(args.out) as spool:
        spool.write(export.to_report_json(profile.rows(), summary, histogram, pie))
    return 0


# --- parser wiring ---


def _add_input_args(sub, strict=True, input_format=True):
    sub.add_argument("--input", "-i", action="append",
                     help="input file (repeatable; default stdin)")
    if input_format:
        sub.add_argument("--format",
                         choices=["perf", "gprof", "oprofile", "mutrace",
                                  "strace", "acquisitions"],
                         help="override input format auto-detection")
    if strict:
        sub.add_argument("--strict", action="store_true",
                         help="abort on the first malformed line")
    sub.add_argument("--out", "-o", help="write output to this file")


def _non_negative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:  # keep argparse's wording for type=float
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (value >= 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be >= 0 and finite, got {text}")
    return value


_GROUP_BY_FIELDS = ("comm", "dso", "symbol")


def _group_by(text: str) -> tuple:
    names = tuple(name for name in text.split(",") if name)
    for name in names:
        if name not in _GROUP_BY_FIELDS:
            raise argparse.ArgumentTypeError(
                f"unknown field {name!r}; choose from {','.join(_GROUP_BY_FIELDS)}")
    return names


def _add_analysis_args(sub):
    sub.add_argument("--lock-symbols",
                     help="comma-separated stack symbols classified as lock waits")
    sub.add_argument("--lookback-ms", type=_non_negative_float,
                     help="block/network correlation window (default 1 ms)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latprof",
        description="Offline latency profiling toolkit for textual Unix "
                    "profiler traces",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="dump normalized records as NDJSON")
    _add_input_args(p)
    p.set_defaults(func=cmd_parse)

    p = subs.add_parser("report", help="flat-profile utilization report")
    _add_input_args(p)
    _add_analysis_args(p)
    p.add_argument("--top", type=int, default=20, help="rows to print")
    p.add_argument("--group-by", type=_group_by, default="comm,dso,symbol",
                   help="comma subset of comm,dso,symbol")
    p.set_defaults(func=cmd_report)

    p = subs.add_parser("offcpu", help="attribute off-CPU wait time")
    _add_input_args(p)
    _add_analysis_args(p)
    p.add_argument("--top", type=int, default=20, help="stacks to print")
    p.set_defaults(func=cmd_offcpu)

    p = subs.add_parser("locks", help="lock contention and deadlock risk")
    _add_input_args(p)
    p.add_argument("--max-len", type=int, default=8,
                   help="cycle length bound for deadlock risk")
    p.set_defaults(func=cmd_locks)

    p = subs.add_parser("graph", help="edge-list graph algorithms")
    _add_input_args(p, strict=False)
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--critical-path", metavar="SOURCE",
                   help="longest weighted path from SOURCE (DAG)")
    p.add_argument("--shortest", nargs=2, metavar=("A", "B"))
    p.add_argument("--mst", action="store_true")
    p.add_argument("--cycles", action="store_true")
    p.add_argument("--max-len", type=int, default=8)
    p.set_defaults(func=cmd_graph)

    p = subs.add_parser("simulate", help="bounded-buffer simulator")
    p.add_argument("--producers", type=int, default=2)
    p.add_argument("--consumers", type=int, default=2)
    p.add_argument("--queues", type=int, default=1)
    p.add_argument("--capacity", type=int, default=4)
    p.add_argument("--items", type=int, default=100,
                   help="items per producer")
    p.add_argument("--produce-time", default="0.001", help="seconds")
    p.add_argument("--consume-time", default="0.001", help="seconds")
    p.add_argument("--critical-time", default="0.0001", help="seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--inverted-wait-order", action="store_true",
                   help="deadlock-prone variant: producers take the mutex first")
    p.add_argument("--check", action="store_true",
                   help="verify the analyzer against the ground truth")
    p.add_argument("--truth", help="write the ground-truth JSON ledger here")
    p.add_argument("--acquisitions", help="write the acquisition CSV here")
    p.add_argument("--out", "-o", help="write output to this file")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("export", help="write dashboard data files")
    _add_input_args(p, input_format=False)
    _add_analysis_args(p)
    p.add_argument("--format", dest="export_format",
                   choices=["csv", "bulk", "json"], default="csv",
                   help="output format")
    p.add_argument("--index", default=export.DEFAULT_INDEX,
                   help="bulk index name")
    p.add_argument("--bin-width", default="1", help="histogram bin width, seconds")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # a run leaves only a fixed amount of cyclic garbage (argparse's), so
    # the cyclic collector would only rescan what a run grows: the parser's
    # interns, the folds' state and the sort fallback's event list
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except _ANALYSIS_ERRORS as exc:
        print(f"latprof: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
