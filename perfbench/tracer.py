"""In-process probes of latprof: a traced pass over a list of CLI steps, the
bare import time of `latprof.cli`, and the RSS growth of one parse.

Run it in a fresh process whose PYTHONPATH holds the checkout's `src`:

    python3 perfbench/tracer.py pass SPEC.json OUT.json
    python3 perfbench/tracer.py startup
    python3 perfbench/tracer.py parse-rss INPUT [INPUT ...]

A traced pass wraps every public function of the layer modules from
outside, in each latprof module namespace that binds it, so calls made
through `cli`, through another layer (simgen binds sched_analysis
functions, lock_analysis binds graph_core.detect_cycles) or from inside
the defining module all go through the wrapper.  Each wrapper records a
span (name, start, end, parent) in memory; the spans are reduced once the
step ends.  Functions called once per event, wait or row only count their
calls (COUNT_ONLY), so their time stays in their caller's self time.
Each step runs `latprof.cli.main(argv)` under a root span, so the layer
self times plus the root's own self time (`cli`) add up to the step's wall
time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import sys
import time
import traceback

from child import vm_hwm_kb

LAYERS = ("parsers", "trace_model", "sched_analysis", "profile_agg", "export",
          "lock_analysis", "graph_core", "simgen")
MODULES = LAYERS + ("cli",)

COUNT_ONLY = frozenset({
    "trace_model.classify_event",
    "trace_model.duration",
    "trace_model.duration_ns",
    "trace_model.stack_signature",
    "export.event_record",
    "sched_analysis.classify_wait",
})

# Functions whose first argument or result the counters read after the step.
PROBED = frozenset({
    "parsers.parse_perf_script",
    "sched_analysis.build_timelines",
    "sched_analysis.attribute_offcpu",
    "sched_analysis.summarize_waits",
    "profile_agg.flat_profile",
    "lock_analysis.read_acquisitions_csv",
    "lock_analysis.detect_deadlock_risk",
    "simgen.simulate",
})

ROOT = "cli.main"


class Tracer:
    """Spans and call counts for one step at a time."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.open = []  # indices of the spans now running
        self.calls = {}
        self.probes = []  # (name, first argument, result)

    def reset(self):
        self.spans, self.open, self.probes = [], [], []
        self.calls.clear()  # the counting wrappers hold this dict

    def _span(self, name, fn):
        probed = name in PROBED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.open[-1] if self.open else -1]
            self.spans.append(span)
            self.open.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.open.pop()
            if probed:
                self.probes.append((name, args[0] if args else None, result))
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules):
        """Wrap every public layer function wherever a module binds it."""
        wrapped = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                make = self._counter if name in COUNT_ONLY else self._span
                wrapped[fn] = make(name, fn)
        undo = []
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapped[value])
        return undo

    def run_step(self, main, argv):
        """Run one CLI invocation under the root span; returns its record."""
        self.reset()
        out, err = io.StringIO(), io.StringIO()
        self.spans.append([ROOT, 0.0, 0.0, -1])
        self.open.append(0)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self.spans[0][1] = time.perf_counter()
            try:
                code = main(argv)
            except Exception:  # a crashing verb is a failed step, not a failed pass
                traceback.print_exc()
                code = "uncaught exception"
            self.spans[0][2] = time.perf_counter()
        self.open.pop()
        record = self.reduce(code, out.getvalue(), err.getvalue())
        self.reset()  # drop the step's spans and the results the probes hold
        return record

    def reduce(self, code, stdout, stderr):
        durations = [end - start for _, start, end, _ in self.spans]
        self_s = list(durations)
        for (_, _, _, parent), dur in zip(self.spans, durations):
            if parent >= 0:
                self_s[parent] -= dur
        totals = {}
        calls = dict(self.calls)
        for (name, _, _, _), own in zip(self.spans, self_s):
            totals[name] = totals.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        calls.pop(ROOT)
        return {
            "exit": code,
            "wall_s": durations[0],
            "self_s": totals,
            "calls": calls,
            "counts": _probe_counts(self.probes),
            "stdout": stdout,
            "stderr": stderr,
        }


def _probe_counts(probes) -> dict:
    """Counts read from the probed calls' arguments and results."""
    # imported here: `startup` must be the process's first latprof import
    from latprof.trace_model import WaitKind, WaitReason

    counts = {}

    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    for name, arg, result in probes:
        if name == "parsers.parse_perf_script":
            add("parsers.lines_in", len(arg.splitlines()))
            add("parsers.events_out", len(result.events))
            add("parsers.malformed", len(result.errors))
        elif name == "sched_analysis.build_timelines":
            add("sched_analysis.intervals",
                sum(len(t.intervals) for t in result.by_tid.values()))
            add("sched_analysis.anomalies", result.anomalies)
        elif name == "sched_analysis.attribute_offcpu":
            blocked = [w for w in result if w.kind is WaitKind.BLOCKED]
            add("sched_analysis.waits", len(result))
            add("sched_analysis.blocked_ns", sum(w.end - w.start for w in blocked))
            add("sched_analysis.unknown_ns", sum(
                w.end - w.start for w in blocked if w.reason is WaitReason.UNKNOWN))
            add("sched_analysis.truncated_ns", sum(
                w.end - w.start for w in blocked if w.truncated))
        elif name == "sched_analysis.summarize_waits":
            add("sched_analysis.distinct_stacks", len(result.by_stack))
        elif name == "profile_agg.flat_profile":
            add("profile_agg.rows", len(result))
            add("profile_agg.samples", sum(r.samples for r in result))
        elif name == "lock_analysis.read_acquisitions_csv":
            add("lock_analysis.acquisitions", len(result))
        elif name == "lock_analysis.detect_deadlock_risk":
            add("lock_analysis.cycles", len(result))
        elif name == "simgen.simulate":
            add("simgen.events", len(result.events))
    return counts


def _import_latprof():
    return {name: importlib.import_module(f"latprof.{name}") for name in MODULES}


def _uninstall(undo):
    for module, attr, fn in undo:
        setattr(module, attr, fn)


def _untraced_wall(main, argv) -> float:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        main(argv)
        return time.perf_counter() - start


def traced_pass(spec: dict) -> dict:
    """Run every step of `spec["steps"]` traced.

    Right after the step named `spec["overhead_step"]`, the same argv runs
    once more untraced, so the tracing overhead compares adjacent runs.
    """
    modules = _import_latprof()
    main = modules["cli"].main
    tracer = Tracer()
    steps = {}
    untraced_s = None
    for step in spec["steps"]:
        undo = tracer.install(modules)
        try:
            record = tracer.run_step(main, step["argv"])
        finally:
            _uninstall(undo)
        stdout = record.pop("stdout")
        record["stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
        if step.get("stdout_file"):
            with open(step["stdout_file"], "w", encoding="utf-8") as handle:
                handle.write(stdout)
        steps[step["name"]] = record
        if step["name"] == spec["overhead_step"]:
            untraced_s = _untraced_wall(main, step["argv"])
    return {"untraced_s": untraced_s, "steps": steps}


def startup_s() -> float:
    start = time.perf_counter()
    importlib.import_module("latprof.cli")
    return time.perf_counter() - start


def parse_rss_growth_mb(paths) -> float:
    """Peak RSS growth across parsing the inputs (kept alive, as the CLI does).

    Uses VmHWM, not ru_maxrss, which starts at the parent's peak.
    """
    from latprof import parsers

    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    before = vm_hwm_kb()
    results = [parsers.parse_perf_script(text) for text in texts]
    after = vm_hwm_kb()
    del results
    return (after - before) / 1024.0


def main(argv) -> int:
    mode = argv[0] if argv else ""
    if mode == "pass" and len(argv) == 3:
        with open(argv[1], encoding="utf-8") as handle:
            spec = json.load(handle)
        result = traced_pass(spec)
        with open(argv[2], "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        return 0
    if mode == "startup" and len(argv) == 1:
        print(repr(startup_s()))
        return 0
    if mode == "parse-rss" and len(argv) >= 2:
        print(repr(parse_rss_growth_mb(argv[1:])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
