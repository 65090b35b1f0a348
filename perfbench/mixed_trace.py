"""Seeded generator of a real-shaped perf-script trace (standard library only).

The trace mixes what a `perf record -g` session on a busy host shows:
cpu-clock samples with 6-20-frame stacks drawn Zipf-like from about 3000
symbols in 20 DSOs, traced syscall enter/exit pairs, block and net
tracepoints, and sched switch/wakeup events with S, D and R states across
several multi-threaded processes.  Every off-CPU wait is built to have
exactly one reason under latprof's documented rule order (lock, block I/O,
network, timer, unknown), so the generator knows the answer:

* per-(comm, dso, symbol) leaf sample counts and period weights;
* per-(tid, reason) wait totals in integer nanoseconds, including the
  SchedulerDelay between a wakeup and the switch-in, preemptions
  (prev_state=R) and waits left open when the trace ends.

The events are split over two files by cpu (0-3 and 4-7), each in time
order, so an analysis has to merge both inputs.  Timestamps print with
microsecond precision, as `perf script` does by default.  This module does
not import latprof.

    python3 perfbench/mixed_trace.py --seed 7 --out-dir DIR [--scale 1.0]

writes DIR/mixed-a.txt, DIR/mixed-b.txt and DIR/mixed-expected.json.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random

NCPU = 8
SAMPLE_GAP_US = (200, 300)  # cpu-clock at about 4 kHz
RUN_US = (1200, 3000)  # > 1 ms lookback, so no wait sees an older block/net event
CYCLES_PER_THREAD = 50  # about 10k events at scale 1
BASE_US = 8_123_000_000  # trace clock starts near 8123 s of uptime

PROCESSES = [  # (comm, pid, threads)
    ("httpd", 2101, 5),
    ("pgworker", 3302, 4),
    ("indexer", 4410, 4),
    ("rpcgate", 5120, 3),
]

KWORKER = ("kworker/u16:3", 231)
KSOFTIRQD_PID = 12  # ksoftirqd/N has pid 12 + N

_LIB = "/usr/lib/x86_64-linux-gnu/"
DSOS = [
    ("[kernel.kallsyms]", "k", 0xFFFFFFFF81000000),
    (_LIB + "libc.so.6", "libc", 0x7F3A10000000),
    (_LIB + "libstdc++.so.6.0.30", "cxx", 0x7F3A11000000),
    (_LIB + "libssl.so.3", "ssl", 0x7F3A12000000),
    (_LIB + "libcrypto.so.3", "crypto", 0x7F3A13000000),
    (_LIB + "libz.so.1.2.13", "z", 0x7F3A14000000),
    (_LIB + "libm.so.6", "m", 0x7F3A15000000),
    (_LIB + "libsqlite3.so.0.8.6", "sqlite", 0x7F3A16000000),
    (_LIB + "libxml2.so.2.9.14", "xml", 0x7F3A17000000),
    (_LIB + "libpcre2-8.so.0.11.2", "pcre", 0x7F3A18000000),
    (_LIB + "libjemalloc.so.2", "je", 0x7F3A19000000),
    (_LIB + "libprotobuf.so.32", "pb", 0x7F3A1A000000),
    (_LIB + "libcurl.so.4.8.0", "curl", 0x7F3A1B000000),
    (_LIB + "libyaml-0.so.2.0.9", "yaml", 0x7F3A1C000000),
    (_LIB + "libuv.so.1.0.0", "uv", 0x7F3A1D000000),
    (_LIB + "libgcc_s.so.1", "gcc", 0x7F3A1E000000),
    ("/usr/sbin/httpd", "httpd", 0x55D000000000),
    ("/usr/bin/pgworker", "pgw", 0x55D100000000),
    ("/usr/bin/indexer", "idx", 0x55D200000000),
    ("/usr/bin/rpcgate", "rpc", 0x55D300000000),
]
SYMBOLS_PER_DSO = 150  # 3000 symbols in all
_VERBS = ["read", "write", "parse", "scan", "hash", "copy", "find", "emit",
          "merge", "flush", "alloc", "free", "encode", "decode", "sort"]
_NOUNS = ["buf", "node", "page", "row", "key", "frame", "block", "entry",
          "chunk", "token"]

# Fixed frames of the wait stacks, leaf-first: (symbol, DSO index).
_K = 0
_LIBC = 1
_SYSCALL_TAIL = [("do_syscall_64", _K), ("entry_SYSCALL_64_after_hwframe", _K)]
WAIT_FRAMES = {
    "Lock": [("__schedule", _K), ("schedule", _K), ("futex_wait_queue_me", _K),
             ("futex_wait", _K), ("do_futex", _K), ("__x64_sys_futex", _K),
             *_SYSCALL_TAIL, ("__lll_lock_wait", _LIBC),
             ("pthread_mutex_lock", _LIBC)],
    "BlockIO": [("__schedule", _K), ("schedule", _K), ("io_schedule", _K),
                ("folio_wait_bit_common", _K), ("filemap_read", _K),
                ("ext4_file_read_iter", _K), ("vfs_read", _K), ("ksys_read", _K),
                ("__x64_sys_read", _K), *_SYSCALL_TAIL, ("__libc_read", _LIBC)],
    "Network": [("__schedule", _K), ("schedule", _K), ("schedule_timeout", _K),
                ("sk_wait_data", _K), ("tcp_recvmsg_locked", _K),
                ("tcp_recvmsg", _K), ("inet_recvmsg", _K), ("sock_recvmsg", _K),
                ("__sys_recvfrom", _K), ("__x64_sys_recvfrom", _K),
                *_SYSCALL_TAIL, ("recvfrom", _LIBC)],
    "NetworkSend": [("__schedule", _K), ("schedule", _K), ("schedule_timeout", _K),
                    ("sk_stream_wait_memory", _K), ("tcp_sendmsg_locked", _K),
                    ("tcp_sendmsg", _K), ("sock_sendmsg", _K), ("__sys_sendto", _K),
                    ("__x64_sys_sendto", _K), *_SYSCALL_TAIL, ("sendto", _LIBC)],
    "Timer": [("__schedule", _K), ("schedule", _K), ("do_nanosleep", _K),
              ("hrtimer_nanosleep", _K), ("common_nsleep", _K),
              ("__x64_sys_clock_nanosleep", _K), *_SYSCALL_TAIL,
              ("clock_nanosleep", _LIBC), ("usleep", _LIBC)],
    "Unknown": [("__schedule", _K), ("schedule", _K), ("do_sigtimedwait", _K),
                ("__x64_sys_rt_sigtimedwait", _K), *_SYSCALL_TAIL,
                ("sigtimedwait", _LIBC)],
}

# wait kind -> (weight, duration range in us)
WAIT_KINDS = {
    "Lock": (30, (20, 2000)),
    "BlockIO": (15, (100, 5000)),
    "Network": (20, (50, 8000)),
    "Timer": (10, (1000, 6000)),
    "Unknown": (10, (50, 3000)),
    "Preempt": (15, (5, 400)),
}
SCHED_DELAY_US = (1, 300)  # wakeup to switch-in


class SymbolTable:
    """The fixed symbol universe plus a seed-permuted Zipf popularity order."""

    def __init__(self, rng: random.Random):
        self.frames = []  # (symbol, dso path, base address)
        for path, stem, base in DSOS:
            for i in range(SYMBOLS_PER_DSO):
                name = (f"{stem}_{_VERBS[i % len(_VERBS)]}_"
                        f"{_NOUNS[(i // len(_VERBS)) % len(_NOUNS)]}{i}")
                self.frames.append((name, path, base + 0x400 * i))
        rng.shuffle(self.frames)
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(self.frames))]
        self.cum = []
        total = 0.0
        for w in weights:
            total += w
            self.cum.append(total)
        self.total = total
        self.fixed = {}
        for frames in WAIT_FRAMES.values():
            for sym, dso_index in frames:
                if sym not in self.fixed:
                    path, _, base = DSOS[dso_index]
                    self.fixed[sym] = (sym, path, base + 0x9000 + 0x80 * len(self.fixed))

    def draw(self, rng: random.Random):
        return self.frames[bisect.bisect_left(self.cum, rng.random() * self.total)]


def _frame_line(frame, offset: int) -> str:
    sym, dso, addr = frame
    return f"\t{addr + offset:16x} {sym}+0x{offset:x} ({dso})"


def _unknown_frame_line(rng: random.Random) -> str:
    return f"\t{0x7F3A20000000 + rng.randrange(1 << 20):16x} [unknown] ([unknown])"


class _Thread:
    def __init__(self, comm, pid, tid, cpu, app_dso):
        self.comm = comm
        self.pid = pid
        self.tid = tid
        self.cpu = cpu
        self.app_dso = app_dso


class MixedTrace:
    """Builds the event blocks and the expected answers for one seed."""

    def __init__(self, seed: int, scale: float = 1.0):
        self.rng = random.Random(seed)
        self.symbols = SymbolTable(self.rng)
        self.cycles = max(2, round(CYCLES_PER_THREAD * scale))
        self.blocks = []  # (ts_us, seq, cpu, text)
        self.profile = {}  # (comm, dso, symbol) -> [samples, weight]
        self.waits = {}  # (tid, reason) -> ns
        self.open_waits = []  # (tid, reason, since_us), truncated at trace end
        self.threads = []
        for comm, pid, count in PROCESSES:
            app = next(i for i, d in enumerate(DSOS) if d[0].endswith("/" + comm))
            for i in range(count):
                name = comm if i == 0 else f"{comm}-w{i}"
                cpu = len(self.threads) % NCPU
                self.threads.append(_Thread(name, pid, pid + i, cpu, app))

    # -- event text

    def _emit(self, ts_us, cpu, ctx, event, payload="", period=None, frames=()):
        """One event block; `ctx` is (comm, "pid/tid" or bare "tid")."""
        comm, who = ctx
        ts = f"{ts_us // 1_000_000}.{ts_us % 1_000_000:06d}"
        lead = f"{period} " if period is not None else ""
        head = f"{comm:<16} {who:>11} [{cpu:03d}] {ts}: {lead}{event}:"
        text = f"{head} {payload}" if payload else head
        if frames:
            text += "\n" + "\n".join(frames)
        self.blocks.append((ts_us, len(self.blocks), cpu, text))

    @staticmethod
    def _ctx(thread):
        return (thread.comm, f"{thread.pid}/{thread.tid}")

    def _user_frames(self, thread, depth):
        rng = self.rng
        out = [_frame_line(self.symbols.draw(rng), rng.randrange(1, 0x400))
               for _ in range(depth)]
        main = ("main", DSOS[thread.app_dso][0], DSOS[thread.app_dso][2] + 0x100)
        start = ("_start", DSOS[thread.app_dso][0], DSOS[thread.app_dso][2] + 0x40)
        libc_start = ("__libc_start_main", DSOS[_LIBC][0], DSOS[_LIBC][2] + 0x29D90)
        out += [_frame_line(main, 0x5A), _frame_line(libc_start, 0x80),
                _frame_line(start, 0x25)]
        return out

    def _sample(self, thread, ts_us, gap_us):
        rng = self.rng
        depth = rng.randint(6, 20)
        if rng.random() < 0.03:
            leaf_line = _unknown_frame_line(rng)
            leaf = ("[unknown]", "[unknown]")
        else:
            frame = self.symbols.draw(rng)
            leaf_line = _frame_line(frame, rng.randrange(1, 0x400))
            leaf = (frame[1], frame[0])
        frames = [leaf_line] + self._user_frames(thread, depth - 4)
        period = gap_us * 1000
        self._emit(ts_us, thread.cpu, self._ctx(thread), "cpu-clock",
                   period=period, frames=frames)
        tally = self.profile.setdefault((thread.comm, leaf[0], leaf[1]), [0, 0])
        tally[0] += 1
        tally[1] += period

    def _wait_stack(self, thread, kind):
        fixed = [_frame_line(self.symbols.fixed[sym], 0x20 + 4 * i)
                 for i, (sym, _) in enumerate(WAIT_FRAMES[kind])]
        return fixed + self._user_frames(thread, self.rng.randint(3, 10))

    def _syscall(self, thread, ts_us, name, enter):
        if enter:
            self._emit(ts_us, thread.cpu, self._ctx(thread),
                       f"syscalls:sys_enter_{name}",
                       f"fd: 0x{self.rng.randrange(3, 64):08x}, "
                       f"count: 0x{self.rng.randrange(1, 65536):08x}")
        else:
            self._emit(ts_us, thread.cpu, self._ctx(thread),
                       f"syscalls:sys_exit_{name}",
                       f"0x{self.rng.randrange(0, 4096):x}")

    def _switch_out(self, thread, ts_us, state, frames):
        self._emit(ts_us, thread.cpu, self._ctx(thread), "sched:sched_switch",
                   f"prev_comm={thread.comm} prev_pid={thread.tid} prev_prio=120 "
                   f"prev_state={state} ==> next_comm=swapper/{thread.cpu} "
                   f"next_pid=0 next_prio=120", frames=frames)

    def _switch_in(self, thread, ts_us):
        # emitted in the incoming thread's context, as latprof's simulator
        # does; events of the idle task (pid 0) are not parseable today
        self._emit(ts_us, thread.cpu, self._ctx(thread), "sched:sched_switch",
                   f"prev_comm=swapper/{thread.cpu} prev_pid=0 prev_prio=120 "
                   f"prev_state=R ==> next_comm={thread.comm} "
                   f"next_pid={thread.tid} next_prio=120")

    def _wakeup(self, waker_ctx, waker_cpu, thread, ts_us):
        self._emit(ts_us, waker_cpu, waker_ctx, "sched:sched_wakeup",
                   f"comm={thread.comm} pid={thread.tid} prio=120 "
                   f"target_cpu={thread.cpu:03d}")

    def _add_wait(self, tid, reason, ns):
        self.waits[(tid, reason)] = self.waits.get((tid, reason), 0) + ns

    # -- one thread's life

    def _run_phase(self, thread, start_us):
        """Samples and maybe one non-blocking syscall pair; returns the end."""
        rng = self.rng
        end = start_us + rng.randint(*RUN_US)
        t = start_us
        while True:
            gap = rng.randint(*SAMPLE_GAP_US)
            if t + gap >= end - 150:  # leave room for the pre-wait events
                break
            t += gap
            self._sample(thread, t, gap)
        if rng.random() < 0.5:
            at = start_us + rng.randint(10, 60)
            if at + 3 < end - 150:
                name = rng.choice(["getpid", "write", "futex", "mmap"])
                self._syscall(thread, at, name, True)
                self._syscall(thread, at + rng.randint(1, 2), name, False)
        return end

    def _block(self, thread, t_sw, kind, rng):
        """Emit the events before one wait's switch-out.

        Returns (reason, prev_state, pending syscall or None, stack lines).
        """
        if kind == "Lock":
            syscall = "futex" if rng.random() < 0.5 else None
            return "Lock", "S", syscall, self._wait_stack(thread, "Lock")
        if kind == "BlockIO":
            self._emit(t_sw - rng.randint(1, 40), thread.cpu, self._ctx(thread),
                       "block:block_rq_issue",
                       f"8,0 R {4096 * rng.randint(1, 32)} () "
                       f"{rng.randrange(1 << 24)} + 8 [{thread.comm}]")
            return "BlockIO", "D", "read", self._wait_stack(thread, "BlockIO")
        if kind == "Network":
            if rng.random() < 0.5:  # classified by the pending syscall
                syscall = rng.choice(["recvfrom", "epoll_wait"])
                return "Network", "S", syscall, self._wait_stack(thread, "Network")
            # classified by a net event inside the lookback window
            self._emit(t_sw - rng.randint(41, 800), thread.cpu, self._ctx(thread),
                       "net:net_dev_queue",
                       f"dev=eth0 skbaddr=0xffff8881{rng.randrange(1 << 28):08x} "
                       f"len={rng.randint(60, 1514)}")
            return "Network", "S", None, self._wait_stack(thread, "NetworkSend")
        if kind == "Timer":
            syscall = rng.choice(["nanosleep", "clock_nanosleep"])
            return "Timer", "S", syscall, self._wait_stack(thread, "Timer")
        return "Unknown", "S", None, self._wait_stack(thread, "Unknown")

    def _waker(self, thread, reason, rng):
        if reason == "BlockIO":
            return (KWORKER[0], str(KWORKER[1])), rng.randrange(NCPU)
        if reason in ("Network", "Timer"):
            # kernel threads print the "comm tid [cpu]" header form
            cpu = rng.randrange(NCPU)
            return (f"ksoftirqd/{cpu}", str(KSOFTIRQD_PID + cpu)), cpu
        siblings = [t for t in self.threads
                    if t.pid == thread.pid and t.tid != thread.tid]
        other = rng.choice(siblings)
        return self._ctx(other), other.cpu

    def _thread_life(self, thread, start_us, ends_blocked):
        rng = self.rng
        kinds = list(WAIT_KINDS)
        weights = [WAIT_KINDS[k][0] for k in kinds]
        self._switch_in(thread, start_us)
        t = start_us
        for cycle in range(self.cycles):
            t_sw = self._run_phase(thread, t)
            last = cycle == self.cycles - 1
            if last and not ends_blocked:
                return
            kind = rng.choices(kinds, weights)[0]
            if last:
                kind = rng.choice(["Timer", "Unknown"])
            if kind == "Preempt":
                self._switch_out(thread, t_sw, "R", self._user_frames(
                    thread, rng.randint(3, 16)))
                t = t_sw + rng.randint(*WAIT_KINDS[kind][1])
                self._switch_in(thread, t)
                self._add_wait(thread.tid, "SchedulerDelay", (t - t_sw) * 1000)
                continue
            reason, state, syscall, frames = self._block(thread, t_sw, kind, rng)
            if syscall is not None:
                self._syscall(thread, t_sw - rng.randint(1, 40), syscall, True)
            self._switch_out(thread, t_sw, state, frames)
            if last:
                self.open_waits.append((thread.tid, reason, t_sw))
                return
            t_wake = t_sw + rng.randint(*WAIT_KINDS[kind][1])
            waker_ctx, waker_cpu = self._waker(thread, reason, rng)
            if reason == "BlockIO":
                self._emit(t_wake - 1, waker_cpu, waker_ctx, "block:block_rq_complete",
                           f"8,0 R () {rng.randrange(1 << 24)} + 8 [0]")
            elif reason == "Network" and syscall is not None:
                self._emit(t_wake - 1, waker_cpu, waker_ctx, "net:netif_receive_skb",
                           f"dev=eth0 skbaddr=0xffff8881{rng.randrange(1 << 28):08x} "
                           f"len={rng.randint(60, 1514)}")
            self._wakeup(waker_ctx, waker_cpu, thread, t_wake)
            t = t_wake + rng.randint(*SCHED_DELAY_US)
            self._switch_in(thread, t)
            if syscall is not None:
                self._syscall(thread, t + rng.randint(1, 5), syscall, False)
            self._add_wait(thread.tid, reason, (t_wake - t_sw) * 1000)
            self._add_wait(thread.tid, "SchedulerDelay", (t - t_wake) * 1000)

    def build(self):
        for index, thread in enumerate(self.threads):
            start = BASE_US + self.rng.randint(0, 2000)
            self._thread_life(thread, start, ends_blocked=index % 4 == 3)
        end_us = max(ts for ts, _, _, _ in self.blocks)
        for tid, reason, since in self.open_waits:
            self._add_wait(tid, reason, (end_us - since) * 1000)
        self.blocks.sort()
        return self

    # -- output

    def files(self):
        """The two perf-script texts: cpus 0-3, then cpus 4-7."""
        halves = ([], [])
        for _, _, cpu, text in self.blocks:
            halves[cpu >= NCPU // 2].append(text)
        return ["\n\n".join(h) + "\n" for h in halves]

    def expected(self):
        return {
            "events": len(self.blocks),
            "profile": [[c, d, s, n, w] for (c, d, s), (n, w)
                        in sorted(self.profile.items())],
            "waits": [[tid, reason, ns] for (tid, reason), ns
                      in sorted(self.waits.items())],
        }


FILE_NAMES = ("mixed-a.txt", "mixed-b.txt")
EXPECTED_NAME = "mixed-expected.json"


def write(seed: int, out_dir: str, scale: float = 1.0) -> None:
    trace = MixedTrace(seed, scale).build()
    for name, text in zip(FILE_NAMES, trace.files()):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    with open(os.path.join(out_dir, EXPECTED_NAME), "w", encoding="utf-8") as handle:
        json.dump(trace.expected(), handle, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    write(args.seed, args.out_dir, args.scale)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
