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
import sys
from fractions import Fraction

from . import export, lock_analysis, parsers, profile_agg, sched_analysis, simgen
from .graph_core import Graph, GraphError, critical_path, detect_cycles, \
    minimum_spanning_tree, shortest_path

_ANALYSIS_ERRORS = (
    parsers.ParseError,
    GraphError,
    profile_agg.NoSamples,
    export.BadIndexName,
    export.EmptyInput,
    simgen.ConfigError,
    ValueError,
    OSError,
)


def _read_text(path: str) -> str:
    """The UTF-8 text of a file; a file that is not UTF-8 is a ParseError
    naming the line of its first bad byte."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError:
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # bytes.splitlines breaks lines as text-mode reading does
            line = len((data[:exc.start] + b"x").splitlines())
            raise parsers.ParseError(
                f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8"
                f" ({exc.reason})") from None
        raise


def _read_inputs(paths) -> list:
    """Read each input path ('-' is stdin) as (name, text)."""
    texts = []
    for path in paths or ["-"]:
        if path == "-":
            texts.append(("<stdin>", sys.stdin.read()))
        else:
            texts.append((path, _read_text(path)))
    return texts


def _write_output(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _detect(name: str, text: str, override) -> str:
    if override:
        return override
    fmt = parsers.sniff_format(text)
    if fmt is None:
        raise parsers.ParseError(f"{name}: cannot detect input format; use --format")
    return fmt


def _load_events(args) -> list:
    """Parse perf-script inputs into one event list, in input order."""
    events = []
    for name, text in _read_inputs(args.input):
        fmt = _detect(name, text, getattr(args, "format", None))
        if fmt != "perf":
            raise parsers.ParseError(
                f"{name}: expected perf-script text, detected {fmt}")
        result = parsers.parse_perf_script(text, strict=args.strict)
        if result.errors:
            print(f"{name}: {len(result.errors)} malformed lines skipped",
                  file=sys.stderr)
        events.extend(result.events)
    return events


def _analysis_config(args) -> sched_analysis.AnalysisConfig:
    lock_symbols = sched_analysis.DEFAULT_LOCK_SYMBOLS
    if getattr(args, "lock_symbols", None):
        lock_symbols = frozenset(s for s in args.lock_symbols.split(",") if s)
    lookback = sched_analysis.DEFAULT_LOOKBACK_NS
    if getattr(args, "lookback_ms", None) is not None:
        lookback = int(Fraction(str(args.lookback_ms)) * 10**6)
    return sched_analysis.AnalysisConfig(lock_symbols=lock_symbols,
                                         lookback_ns=lookback)


def _wait_summary(args, events):
    """The off-CPU wait summary, or None when the trace has no sched events."""
    if not any(ev.event_class == "sched" for ev in events):
        return None
    timelines = sched_analysis.build_timelines(events, _analysis_config(args))
    return sched_analysis.summarize_waits(sched_analysis.attribute_offcpu(timelines))


# --- subcommands ---


# `parse` NDJSON of the record formats: the parser, and the keys that differ
# from the record's field names
_RECORD_FORMATS = {
    "gprof": (parsers.parse_gprof_flat, None),
    "oprofile": (parsers.parse_oprofile_flat, None),
    "mutrace": (parsers.parse_mutrace, None),
    "strace": (parsers.parse_strace,
               {"args_text": "args", "wall_duration_s": "duration_s"}),
}


def cmd_parse(args) -> int:
    chunks = []
    for name, text in _read_inputs(args.input):
        fmt = _detect(name, text, args.format)
        if fmt == "perf":
            result = parsers.parse_perf_script(text, strict=args.strict)
            if result.errors:
                print(f"{name}: {len(result.errors)} malformed lines skipped",
                      file=sys.stderr)
            chunks.append(export.to_perf_ndjson(result.events))
        elif fmt in _RECORD_FORMATS:
            parse, renames = _RECORD_FORMATS[fmt]
            chunks.append(export.to_records_ndjson(parse(text), renames))
        else:
            raise parsers.ParseError(f"{name}: no NDJSON dump for format {fmt}")
    _write_output("".join(chunks), args.out)
    return 0


def cmd_report(args) -> int:
    events = _load_events(args)
    group_by = tuple(g for g in args.group_by.split(",") if g)
    try:
        profile = profile_agg.flat_profile(events, group_by=group_by)
    except profile_agg.NoSamples:
        profile = []
    _write_output(export.render_text_report(profile, _wait_summary(args, events),
                                            top_n=args.top), args.out)
    return 0


def cmd_offcpu(args) -> int:
    events = _load_events(args)
    timelines = sched_analysis.build_timelines(events, _analysis_config(args))
    summary = sched_analysis.summarize_waits(
        sched_analysis.attribute_offcpu(timelines))
    comms = {tid: timeline.comm for tid, timeline in timelines.by_tid.items()}
    if timelines.anomalies:
        print(f"{timelines.anomalies} contradictory scheduler transitions ignored",
              file=sys.stderr)
    _write_output(export.render_offcpu_report(summary, comms, args.top), args.out)
    return 0


def cmd_locks(args) -> int:
    lines = []
    for name, text in _read_inputs(args.input):
        fmt = _detect(name, text, args.format)
        if fmt == "mutrace":
            lines.extend(export.render_lock_table(parsers.parse_mutrace(text)))
        elif fmt == "acquisitions":
            acqs = lock_analysis.read_acquisitions_csv(text)
            stats = lock_analysis.contention_stats(acqs)
            graph = lock_analysis.build_lock_order_graph(acqs)
            cycles = lock_analysis.detect_deadlock_risk(graph, max_len=args.max_len)
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
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_graph(args) -> int:
    if args.input and len(args.input) > 1:
        print("latprof graph: error: graph takes one --input", file=sys.stderr)
        return 2
    ((name, text),) = _read_inputs(args.input)
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
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
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
    result = simgen.simulate(cfg)
    if result.truth.deadlocked:
        stuck = ", ".join(f"tid {tid} on {sem}" for tid, sem, _ in result.truth.pending)
        print(f"deadlock reached: {stuck}", file=sys.stderr)
    if result.truth.timed_out:
        print("simulated-time limit hit before completion", file=sys.stderr)

    if args.truth:
        with open(args.truth, "w", encoding="utf-8") as handle:
            handle.write(result.truth.to_json())
    if args.acquisitions:
        with open(args.acquisitions, "w", encoding="utf-8") as handle:
            handle.write(lock_analysis.write_acquisitions_csv(result.acquisitions))

    if args.check:
        report = simgen.replay_check(result.events, result.truth)
        lines = [f"checked {report.checked} (tid, semaphore) ledger entries"]
        for d in report.discrepancies:
            lines.append(
                f"{d.kind}: tid {d.tid} {d.sem}: truth {d.truth_ns} ns x{d.truth_count}"
                f" vs measured {d.measured_ns} ns x{d.measured_count}")
        lines.append("replay: " + ("clean" if report.clean else
                                   f"{len(report.discrepancies)} discrepancies"))
        _write_output("\n".join(lines) + "\n", args.out)
        return 0 if report.clean else 1

    _write_output(export.render_perf_script(result.events), args.out)
    return 0


def cmd_export(args) -> int:
    events = _load_events(args)
    # CSV and bulk rows follow event order; every other output sorts inside
    # build_timelines or does not depend on order
    if args.export_format == "csv":
        _write_output(export.to_csv(sched_analysis.canonical_sort(events)), args.out)
    elif args.export_format == "bulk":
        _write_output(export.to_bulk_ndjson(sched_analysis.canonical_sort(events),
                                            index_name=args.index), args.out)
    else:
        try:
            profile = profile_agg.flat_profile(events)
        except profile_agg.NoSamples:
            profile = []
        histogram = export.events_per_second(events, args.bin_width) if events else None
        pie = export.utilization_pie(events) if events else None
        _write_output(export.to_report_json(profile, _wait_summary(args, events),
                                            histogram, pie), args.out)
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
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


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
    p.add_argument("--group-by", default="comm,dso,symbol",
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
    try:
        return args.func(args)
    except _ANALYSIS_ERRORS as exc:
        print(f"latprof: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
