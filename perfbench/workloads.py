"""The benchmark's workloads: how each makes its inputs from a seed, which
latprof verbs it runs, and the oracle that checks every verb's stdout.

All three workloads run the same eight verbs, so every end-to-end metric
exists on every workload; they differ in the trace shape the verbs read:

* sim-contended: a contended bounded-buffer simulator trace (sched events
  only, many equal-timestamp groups, 5 distinct stacks) with its ground
  truth ledger and lock-acquisition CSV;
* mixed-profile: a real-shaped perf-script trace in two files from
  mixed_trace.py (deep, high-cardinality sample stacks, syscalls, block
  and net events, S/D/R switches), plus a small uncontended multi-queue
  simulator run for the `locks` and `simulate --check` verbs;
* sim-long: the sim-contended shape with 4x the items.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction

from mixed_trace import EXPECTED_NAME, FILE_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))

VERB_METRICS = ("parse_s", "offcpu_s", "report_s", "export_csv_s",
                "export_bulk_s", "export_json_s", "locks_s", "simulate_check_s")

CSV_HEADER = "timestamp,comm,pid,tid,cpu,event,dso,symbol"
NS_PER_SEC = 10**9


@dataclass(frozen=True)
class SimShape:
    producers: int
    consumers: int
    capacity: int
    items: int
    jitter: float
    queues: int = 1

    def argv(self, seed: int, scale: float) -> list:
        items = max(2, round(self.items * scale))
        return ["simulate", "--producers", str(self.producers),
                "--consumers", str(self.consumers), "--queues", str(self.queues),
                "--capacity", str(self.capacity), "--items", str(items),
                "--jitter", str(self.jitter), "--seed", str(seed)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sim: SimShape  # drives setup (sim-*) or the lock/simulate verbs (mixed)
    mixed: bool = False  # trace comes from mixed_trace.py

    def trace_files(self) -> list:
        return list(FILE_NAMES) if self.mixed else ["sim.txt"]

    def generator_argv(self, python: str, seed: int, scale: float) -> list | None:
        """The standard-library trace generator's command, if the workload has one."""
        if not self.mixed:
            return None
        return [python, os.path.join(HERE, "mixed_trace.py"), "--seed", str(seed),
                "--out-dir", ".", "--scale", repr(scale)]

    def simulate_outputs(self, prefix: str = "") -> dict:
        """The setup simulator run's output files, by option."""
        if self.mixed:
            return {"--acquisitions": prefix + "acq.csv",
                    "--out": prefix + "companion.txt"}
        return {"--acquisitions": prefix + "acq.csv", "--truth": prefix + "truth.json",
                "--out": prefix + "sim.txt"}

    def simulate_argv(self, seed: int, scale: float, prefix: str = "") -> list:
        """latprof argv of the setup simulator run (outputs named with `prefix`)."""
        argv = self.sim.argv(seed, scale)
        for option, name in self.simulate_outputs(prefix).items():
            argv += [option, name]
        return argv

    def input_files(self) -> list:
        extra = list(FILE_NAMES) + [EXPECTED_NAME] if self.mixed else []
        return extra + list(self.simulate_outputs().values())

    def verbs(self, seed: int, scale: float) -> list:
        """(metric name, latprof argv) for each timed verb."""
        inputs = [arg for f in self.trace_files() for arg in ("--input", f)]
        return [
            ("parse_s", ["parse"] + inputs),
            ("offcpu_s", ["offcpu"] + inputs),
            ("report_s", ["report"] + inputs),
            ("export_csv_s", ["export", "--format", "csv"] + inputs),
            ("export_bulk_s", ["export", "--format", "bulk"] + inputs),
            ("export_json_s", ["export", "--format", "json"] + inputs),
            ("locks_s", ["locks", "--input", "acq.csv"]),
            ("simulate_check_s", self.sim.argv(seed, scale) + ["--check"]),
        ]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sim-contended",
            "simulator trace: sched events, equal-timestamp groups, 5 stacks; "
            "loads sort, timelines, attribution, summary, locks and simgen",
            SimShape(producers=4, consumers=4, capacity=2, items=400, jitter=0.2)),
        Workload(
            "mixed-profile",
            "real-shaped trace in 2 files, deep high-cardinality stacks; loads "
            "parsing, flat profiles and syscall/block/net wait attribution",
            SimShape(producers=4, consumers=4, capacity=8, items=500, jitter=0.5,
                     queues=2),
            mixed=True),
        Workload(
            "sim-long",
            "sim-contended shape with 4x the items; shows how time and peak "
            "memory grow with input size",
            SimShape(producers=4, consumers=4, capacity=2, items=1600, jitter=0.2)),
    )
}


# ---------------------------------------------------------------------------
# what the inputs say the answers are


def count_events(text: str) -> int:
    """perf-script event headers: non-blank lines that do not start with space."""
    return sum(1 for line in text.splitlines() if line and not line[0].isspace())


def _seconds(ns: int) -> str:
    return f"{ns / NS_PER_SEC:.6f}"


@dataclass
class Expected:
    """Answers derived from the generated inputs, never from latprof."""

    events: int
    acquisitions: int
    mixed: bool
    waits: dict = field(default_factory=dict)  # (tid, reason) -> ns
    lock_ns: dict = field(default_factory=dict)  # tid -> ledger ns (sim only)
    profile: dict = field(default_factory=dict)  # (comm, dso, symbol) -> (n, w)


def expected_answers(workload: Workload, workdir: str) -> Expected:
    def read(name):
        with open(os.path.join(workdir, name), encoding="utf-8") as handle:
            return handle.read()

    acquisitions = read("acq.csv").count("\n") - 1
    if workload.mixed:
        doc = json.loads(read(EXPECTED_NAME))
        return Expected(
            events=doc["events"], acquisitions=acquisitions, mixed=True,
            waits={(tid, reason): ns for tid, reason, ns in doc["waits"]},
            profile={(c, d, s): (n, w) for c, d, s, n, w in doc["profile"]})
    ledger = json.loads(read("truth.json"))
    lock_ns = {}
    for entry in ledger["blocked"]:
        lock_ns[entry["tid"]] = lock_ns.get(entry["tid"], 0) + entry["blocked_ns"]
    return Expected(events=count_events(read("sim.txt")),
                    acquisitions=acquisitions, mixed=False, lock_ns=lock_ns)


# ---------------------------------------------------------------------------
# oracles: each returns a list of problems, empty when the output is right

_WAIT_ROW = re.compile(r"^\s*(\d+)\s+([A-Za-z]+)\s+(\d+\.\d{6})(?:\s|$)")


def _section(text: str, title: str) -> list:
    lines = text.splitlines()
    try:
        start = lines.index(f"=== {title} ===") + 1
    except ValueError:
        return []
    end = start
    while end < len(lines) and lines[end]:
        end += 1
    return lines[start:end]


def _wait_rows(lines) -> dict:
    rows = {}
    for line in lines:
        m = _WAIT_ROW.match(line)
        if m:
            rows[(int(m.group(1)), m.group(2))] = m.group(3)
    return rows


def _check_waits(got: dict, exp: Expected, fmt) -> list:
    """Compare per-(tid, reason) totals; `fmt` renders expected ns as printed."""
    if exp.mixed:
        want = {key: fmt(ns) for key, ns in exp.waits.items()}
    else:
        want = {(tid, "Lock"): fmt(ns) for tid, ns in exp.lock_ns.items()}
        # the simulator switches a woken thread in at the wakeup instant
        want.update({key: fmt(0) for key in got if key[1] == "SchedulerDelay"})
    if got == want:
        return []
    diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return [f"wait totals differ at {len(diff)} (tid, reason) keys, first "
            f"{diff[0]}: got {got.get(diff[0])} want {want.get(diff[0])}"]


def _expected_profile_rows(exp: Expected, top: int) -> list:
    total = sum(w for _, w in exp.profile.values())
    rows = sorted(exp.profile.items(),
                  key=lambda kv: (-Fraction(100 * kv[1][1], total), kv[0]))
    return [f"{float(Fraction(100 * w, total)):8.2f}  {n:8d}  {w:10d}  {'/'.join(k)}"
            for k, (n, w) in rows[:top]]


def check_parse(out: str, exp: Expected) -> list:
    lines = out.count("\n")
    return [] if lines == exp.events else [f"{lines} NDJSON lines, {exp.events} events"]


def check_offcpu(out: str, exp: Expected) -> list:
    rows = _wait_rows(_section(out, "Off-CPU wait time by (tid, reason)")[1:])
    return _check_waits(rows, exp, _seconds)


def check_report(out: str, exp: Expected) -> list:
    problems = _check_waits(
        _wait_rows(_section(out, "Off-CPU wait time by reason")[1:]), exp, _seconds)
    profile = _section(out, "Flat profile")
    if exp.mixed:
        if profile[1:] != _expected_profile_rows(exp, 20):
            problems.append("flat profile rows differ from the generator's tallies")
    elif profile != ["(no data)"]:
        problems.append("flat profile should be empty on a simulator trace")
    return problems


def check_csv(out: str, exp: Expected) -> list:
    lines = out.split("\n")
    problems = [] if lines[0] == CSV_HEADER else ["bad CSV header"]
    rows = len(lines) - 2  # header and the empty string after the final LF
    if rows != exp.events:
        problems.append(f"{rows} CSV rows, {exp.events} events")
    return problems


def check_bulk(out: str, exp: Expected) -> list:
    lines = out.count("\n")
    return ([] if lines == 2 * exp.events
            else [f"{lines} bulk lines, want 2 x {exp.events} events"])


def check_json(out: str, exp: Expected) -> list:
    doc = json.loads(out)
    got = {(w["tid"], w["reason"]): w["blocked_ns"] for w in doc["wait_totals"]}
    problems = _check_waits(got, exp, lambda ns: ns)
    profile = {(r["comm"], r["dso"], r["symbol"]): (r["samples"], r["weight"])
               for r in doc["profile"]}
    if profile != exp.profile:
        problems.append("profile samples/weights differ from the generator's tallies")
    binned = sum(sum(b["counts"].values()) for b in doc["events_per_bin"]["bins"])
    if binned != exp.events:
        problems.append(f"{binned} events in the per-second bins, {exp.events} events")
    return problems


def check_locks(out: str, exp: Expected) -> list:
    table = _section(out, "Lock contention")[1:]
    locked = sum(int(line.split()[1]) for line in table)
    problems = [] if locked == exp.acquisitions else [
        f"{locked} acquisitions in the lock table, {exp.acquisitions} CSV rows"]
    if _section(out, "Lock-order cycles (deadlock risk)") != ["(none detected)"]:
        problems.append("lock-order cycle reported under the default wait order")
    return problems


def check_simulate(out: str, exp: Expected) -> list:
    last = out.rstrip("\n").rsplit("\n", 1)[-1]
    return [] if last == "replay: clean" else [f"simulate --check said {last!r}"]


ORACLES = {
    "parse_s": check_parse,
    "offcpu_s": check_offcpu,
    "report_s": check_report,
    "export_csv_s": check_csv,
    "export_bulk_s": check_bulk,
    "export_json_s": check_json,
    "locks_s": check_locks,
    "simulate_check_s": check_simulate,
}


def check(metric: str, out: str, exp: Expected) -> list:
    try:
        return ORACLES[metric](out, exp)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]

