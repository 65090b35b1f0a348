"""latprof benchmark: per-verb wall time and peak RSS on seeded workloads,
with oracle checks, plus a traced run for per-layer self times and counts.

Run from the repository root:

    python3 perfbench/run.py --workload sim-contended --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

With `--trace 0` each latprof verb runs as a subprocess, one at a time, in
rounds until `--seconds` have passed (at least one round); each metric is
the median over the rounds.  With `--trace 1` fresh processes run traced
passes of the same verbs in-process (see tracer.py).  Every output is
checked; the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  A results file with the run
environment, input and stdout digests and every sample is written under
.perfbench-work/results/.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from statistics import median

from workloads import VERB_METRICS, WORKLOADS, check, count_events, expected_answers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
PYTHON = sys.executable
TRACER = os.path.join(HERE, "tracer.py")
CHILD = os.path.join(HERE, "child.py")

SETUP_REPS = 3
STARTUP_REPS = 5
RUN_LIMIT_S = 170  # every child is killed once the run has lasted this long
CALIBRATION_REF_S = 0.1  # calibrate() at the reference host speed

END_TO_END = {"setup_s": "s", **{m: "s" for m in VERB_METRICS},
              "offcpu_rss_mb": "MB", "peak_rss_mb": "MB"}

SELF_TIMED = (
    "parsers.parse_perf_script",
    "sched_analysis.canonical_sort",
    "sched_analysis.build_timelines",
    "sched_analysis.attribute_offcpu",
    "sched_analysis.summarize_waits",
    "profile_agg.flat_profile",
    "export.to_csv",
    "export.to_bulk_ndjson",
    "export.to_report_json",
    "export.events_per_second",
    "export.utilization_pie",
    "export.render_text_report",
    "export.render_perf_script",
    "lock_analysis.read_acquisitions_csv",
    "lock_analysis.contention_stats",
    "lock_analysis.build_lock_order_graph",
    "lock_analysis.detect_deadlock_risk",
    "graph_core.detect_cycles",
    "simgen.simulate",
    "simgen.replay_check",
)
# counts read from the one step that defines them: (count, step)
STEP_COUNTS = (
    ("parsers.lines_in", "offcpu_s"),
    ("parsers.events_out", "offcpu_s"),
    ("parsers.malformed", "offcpu_s"),
    ("sched_analysis.intervals", "offcpu_s"),
    ("sched_analysis.waits", "offcpu_s"),
    ("sched_analysis.anomalies", "offcpu_s"),
    ("sched_analysis.distinct_stacks", "offcpu_s"),
    ("profile_agg.samples", "report_s"),
    ("profile_agg.rows", "report_s"),
    ("lock_analysis.acquisitions", "locks_s"),
    ("lock_analysis.cycles", "locks_s"),
    ("simgen.events", "simulate_check_s"),
)
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.self_s": "s",
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    "parsers.parse_perf_script.us_per_event": "us",
    "parsers.rss_growth_mb": "MB",
    **{count: "count" for count, _ in STEP_COUNTS},
    "trace_model.classify_event.calls_per_event": "calls/event",
    "sched_analysis.canonical_sort.calls": "count",
    "sched_analysis.unknown_share": "fraction",
    "sched_analysis.truncated_share": "fraction",
    "trace.overhead_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed setup)."""


_CALIBRATION_RE = re.compile(r"^(\S+)\s+(\d+)/(\d+)\s+\[(\d+)\]\s+(\d+)\.(\d+):")


def calibrate() -> float:
    """Seconds this process takes for a fixed Python workload.

    The work (regex matching, dict and tuple churn, a sort, string
    joining) resembles latprof's and does not depend on latprof's code.
    The host this benchmark runs on changes speed by tens of percent
    within seconds, whatever runs on it; timing this workload right
    before and right after each child measures the host speed the child
    ran at.
    """
    start = time.perf_counter()
    totals = {}
    rows = []
    for i in range(24000):
        line = (f"comm{i % 37} {1000 + i % 97}/{2000 + i % 89} [{i % 8:03d}] "
                f"{8000 + i // 1000}.{i:06d}: x")
        m = _CALIBRATION_RE.match(line)
        key = (m.group(1), int(m.group(2)))
        totals[key] = totals.get(key, 0) + int(m.group(6))
        rows.append((int(m.group(5)) * 10**9 + int(m.group(6)), m.group(1), [i]))
    rows.sort()
    "\n".join(f"{ts},{comm},{len(tail)}" for ts, comm, tail in rows)
    return time.perf_counter() - start


@dataclass
class Child:
    argv: list
    wall_s: float
    rss_mb: float
    exit: int
    stdout: bytes
    stderr: str
    slowdown: float  # calibration time around it over CALIBRATION_REF_S

    @property
    def corrected_s(self) -> float:
        """Wall time at the reference host speed."""
        return self.wall_s / self.slowdown

    def why_failed(self) -> str:
        tail = self.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return f"exit {self.exit}: {tail[0]}"


class Runner:
    """Runs children one at a time in the work directory, each timed and reaped."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.started = time.monotonic()
        calibrate()  # warm-up
        self.calibration = [calibrate()]
        self.hwm_path = os.path.join(workdir, "child-hwm")
        self.env = dict(os.environ, PERFBENCH_HWM_FILE=self.hwm_path)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    def run(self, argv: list) -> Child:
        """Wall time from spawn to reap, and the child's own peak RSS."""
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        if os.path.exists(self.hwm_path):
            os.remove(self.hwm_path)
        with tempfile.TemporaryFile(dir=self.workdir) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                proc.stdout.close()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        self.calibration.append(calibrate())
        slowdown = (self.calibration[-2] + self.calibration[-1]) / 2 / CALIBRATION_REF_S
        # child.py reports the child's own peak; ru_maxrss, the fallback for
        # a child that did not, also counts this process's peak
        peak_kb = usage.ru_maxrss
        if os.path.exists(self.hwm_path):
            with open(self.hwm_path, encoding="ascii") as handle:
                peak_kb = int(handle.read())
        return Child(argv, wall, peak_kb / 1024.0, proc.returncode, out, stderr,
                     slowdown)

    def latprof(self, argv: list) -> Child:
        """Run `latprof ARGV` as `python3 -m latprof.cli` would, via child.py."""
        return self.run([PYTHON, CHILD] + argv)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def describe_inputs(workload, workdir: str) -> dict:
    """sha256, byte count and event count of every generated input."""
    out = {}
    for name in workload.input_files():
        path = os.path.join(workdir, name)
        entry = {"sha256": sha256_file(path), "bytes": os.path.getsize(path)}
        if name.endswith(".txt"):
            with open(path, encoding="utf-8") as handle:
                entry["events"] = count_events(handle.read())
        elif name.endswith(".csv"):
            with open(path, encoding="utf-8") as handle:
                entry["events"] = sum(1 for _ in handle) - 1
        out[name] = entry
    return out


def setup(runner: Runner, workload, seed: int, scale: float) -> tuple:
    """Make the workload's inputs; returns their (wall, corrected) seconds."""
    generator = workload.generator_argv(PYTHON, seed, scale)
    children = [runner.run(generator)] if generator else []
    children.append(runner.latprof(workload.simulate_argv(seed, scale)))
    for child in children:
        if child.exit != 0:
            raise BenchError(f"setup command {child.argv[1:]} failed: "
                             f"{child.why_failed()}")
    return (sum(child.wall_s for child in children),
            sum(child.corrected_s for child in children))


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def measure(runner, workload, seed, seconds, scale, report):
    setups = []  # (wall, corrected) seconds
    inputs = None
    for _ in range(SETUP_REPS):
        setups.append(setup(runner, workload, seed, scale))
        described = describe_inputs(workload, runner.workdir)
        if inputs is not None and described != inputs:
            raise BenchError("setup is not deterministic: inputs differ between runs")
        inputs = described
    report["inputs"] = inputs
    exp = expected_answers(workload, runner.workdir)

    verbs = workload.verbs(seed, scale)
    walls = {metric: [] for metric, _ in verbs}
    corrected = {metric: [] for metric, _ in verbs}
    rss = {metric: [] for metric, _ in verbs}
    digests = {}
    failures = []
    attempted = failed = 0
    # Verbs run in a fixed rotation until the next one would overrun the
    # deadline (each runs at least once), so samples of every verb spread
    # over the whole run and their counts differ by at most one.
    deadline = time.perf_counter() + seconds
    for index in itertools.count():
        metric, argv = verbs[index % len(verbs)]
        if index >= len(verbs) and time.perf_counter() + walls[metric][-1] > deadline:
            break
        child = runner.latprof(argv)
        attempted += 1
        walls[metric].append(child.wall_s)
        corrected[metric].append(child.corrected_s)
        rss[metric].append(child.rss_mb)
        problems = [] if child.exit == 0 else [child.why_failed()]
        digest = hashlib.sha256(child.stdout).hexdigest()
        if metric not in digests:
            digests[metric] = digest
            problems += check(metric, child.stdout.decode("utf-8", "replace"), exp)
        elif digest != digests[metric]:
            problems.append("stdout differs from the first repetition")
        if problems:
            failed += 1
            failures.append(f"{metric} sample {len(walls[metric])}: {problems[0]}")

    metrics = {"setup_s": median(c for _, c in setups)}
    metrics.update({metric: median(values) for metric, values in corrected.items()})
    metrics["offcpu_rss_mb"] = median(rss["offcpu_s"])
    metrics["peak_rss_mb"] = max(median(values) for values in rss.values())
    raw = {"setup_s": median(w for w, _ in setups)}
    raw.update({metric: median(values) for metric, values in walls.items()})
    report.update(setup_s=setups, wall_s=walls, corrected_s=corrected,
                  wall_median_s=raw, calibration_s=runner.calibration, rss_mb=rss,
                  stdout_sha256=digests)
    return metrics, attempted, failed, failures, END_TO_END


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def layer_metrics(traced: dict) -> dict:
    """Per-layer metrics of one traced pass (self times summed over its steps)."""
    steps = traced["steps"]
    self_s = {}
    for step in steps.values():
        for name, own in step["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + own
    parsed = sum(step["counts"].get("parsers.events_out", 0) for step in steps.values())
    off = steps["offcpu_s"]
    off_counts = off["counts"]
    blocked = off_counts.get("sched_analysis.blocked_ns", 0)

    metrics = {"cli.self_s": self_s["cli.main"]}
    metrics.update({f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED})
    metrics["parsers.parse_perf_script.us_per_event"] = (
        self_s.get("parsers.parse_perf_script", 0.0) / parsed * 1e6 if parsed else 0.0)
    for count, step in STEP_COUNTS:
        metrics[count] = steps[step]["counts"].get(count, 0)
    metrics["trace_model.classify_event.calls_per_event"] = (
        off["calls"].get("trace_model.classify_event", 0)
        / max(1, off_counts.get("parsers.events_out", 0)))
    metrics["sched_analysis.canonical_sort.calls"] = off["calls"].get(
        "sched_analysis.canonical_sort", 0)
    for share in ("unknown", "truncated"):
        metrics[f"sched_analysis.{share}_share"] = (
            off_counts.get(f"sched_analysis.{share}_ns", 0) / blocked if blocked else 0.0)
    metrics["trace.overhead_frac"] = off["wall_s"] / traced["untraced_s"] - 1.0
    return metrics


def check_pass(traced: dict, first: dict | None, exp, workload, workdir) -> dict:
    """Problems of one traced pass, by step name (steps without any are left out)."""
    problems = {}
    for name, step in traced["steps"].items():
        found = []
        if step["exit"] != 0:
            found.append(f"exit {step['exit']}: {step['stderr'].strip()[-200:]}")
        layered = sum(step["self_s"].values())
        if abs(layered - step["wall_s"]) > 1e-6 * max(1.0, step["wall_s"]):
            found.append(f"self times add to {layered} s, wall {step['wall_s']} s")
        if first is not None:
            earlier = first["steps"][name]
            if step["stdout_sha256"] != earlier["stdout_sha256"]:
                found.append("stdout differs between passes")
            if (step["counts"], step["calls"]) != (earlier["counts"], earlier["calls"]):
                found.append("counts or call counts differ between passes")
        elif name == "setup":
            for option, traced_name in workload.simulate_outputs("traced-").items():
                plain = workload.simulate_outputs()[option]
                if sha256_file(os.path.join(workdir, traced_name)) != \
                        sha256_file(os.path.join(workdir, plain)):
                    found.append(f"wrote a different {plain} than the untraced setup")
        else:
            with open(os.path.join(workdir, f"traced-{name}.out"),
                      encoding="utf-8") as handle:
                found += check(name, handle.read(), exp)
        if found:
            problems[name] = found
    return problems


def trace(runner, workload, seed, seconds, scale, report):
    start = time.perf_counter()
    setup(runner, workload, seed, scale)
    report["inputs"] = describe_inputs(workload, runner.workdir)
    exp = expected_answers(workload, runner.workdir)

    startup = []
    for _ in range(STARTUP_REPS):
        child = runner.run([PYTHON, TRACER, "startup"])
        if child.exit != 0:
            raise BenchError(f"startup probe failed: {child.why_failed()}")
        startup.append(float(child.stdout))
    child = runner.run([PYTHON, TRACER, "parse-rss"] + workload.trace_files())
    if child.exit != 0:
        raise BenchError(f"parse RSS probe failed: {child.why_failed()}")
    rss_growth = float(child.stdout)

    verbs = workload.verbs(seed, scale)
    spec = {
        "overhead_step": "offcpu_s",
        "steps": [{"name": "setup", "argv": workload.simulate_argv(seed, scale, "traced-")}]
        + [{"name": metric, "argv": argv, "stdout_file": f"traced-{metric}.out"}
           for metric, argv in verbs],
    }
    spec_path = os.path.join(runner.workdir, "trace-spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)

    passes = []
    failures = []
    attempted = failed = 0
    deadline = start + seconds
    while True:
        pass_start = time.perf_counter()
        out_path = os.path.join(runner.workdir, "trace-pass.json")
        child = runner.run([PYTHON, TRACER, "pass", spec_path, out_path])
        if child.exit != 0:
            raise BenchError(f"traced pass failed: {child.why_failed()}")
        with open(out_path, encoding="utf-8") as handle:
            traced = json.load(handle)
        attempted += len(spec["steps"])
        problems = check_pass(traced, passes[0] if passes else None, exp,
                              workload, runner.workdir)
        failed += len(problems)
        failures += [f"traced {name} pass {len(passes)}: {found[0]}"
                     for name, found in problems.items()]
        passes.append(traced)
        now = time.perf_counter()
        if now + (now - pass_start) > deadline:
            break

    # times are medians over the passes; counts and shares are exact and
    # repeat, so they come from the first pass
    per_pass = [layer_metrics(traced) for traced in passes]
    metrics = {name: median([m[name] for m in per_pass])
               if PER_LAYER[name] == "s" or name == "trace.overhead_frac"
               else per_pass[0][name] for name in per_pass[0]}
    metrics["cli.startup_s"] = median(startup)
    metrics["parsers.rss_growth_mb"] = rss_growth
    report.update(passes=len(passes), startup_s=startup, steps=passes[0]["steps"],
                  per_pass=per_pass)
    return metrics, attempted, failed, failures, PER_LAYER


# ---------------------------------------------------------------------------
# command line


def environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "loadavg_start": list(os.getloadavg()),
        "timing": "warm page cache, unpinned CPUs",
    }


def run_workload(name, seed, seconds, trace_mode, scale):
    """One workload's run; returns (result line dict, report dict)."""
    workload = WORKLOADS[name]
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace_mode,
              "scale": scale, "environment": environment()}
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        runner = Runner(workdir)
        body = trace if trace_mode else measure
        metrics, attempted, failed, failures, units = body(
            runner, workload, seed, seconds, scale, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(metrics=metrics, attempted=attempted, failed=failed,
                  failed_frac=failed / attempted, failures=failures)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }
    return line, report


def write_report(report: dict) -> str:
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{report['workload']}-seed{report['seed']}"
                                 f"-trace{report['trace']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return os.path.relpath(path, ROOT)


def print_table(name: str, line: dict, report: dict, path: str) -> None:
    print(f"== {name} (seed {report['seed']}, trace {report['trace']}) ==")
    raw = report.get("wall_median_s", {})
    for metric, entry in line["metrics"].items():
        wall = f"   (wall {raw[metric]:.6f} s)" if metric in raw else ""
        print(f"  {metric:<44} {entry['value']:>14.6f} {entry['unit']}{wall}")
    print(f"  {'failed_frac':<44} {report['failed_frac']:>14.6f} fraction "
          f"({line['failed']} of {line['attempted']} invocations)")
    for failure in report["failures"][:10]:
        print(f"  FAILED {failure}")
    print(f"  results: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (tiny values for smoke tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "latprof", "cli.py")):
        print(f"perfbench: no latprof sources under {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            line, report = run_workload(name, args.seed, args.seconds, args.trace,
                                        args.scale)
            print_table(name, line, report, write_report(report))
            combined["correct"] = combined["correct"] and line["correct"]
            combined["attempted"] += line["attempted"]
            combined["failed"] += line["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            combined["metrics"].update(
                {prefix + m: entry for m, entry in line["metrics"].items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
