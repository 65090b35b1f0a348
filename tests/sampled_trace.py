"""A seeded perf-script trace shaped like a profiled real program, for
memory tests: cpu-clock samples whose caller frames seldom recur, with
leaves from a small pool, and a few threads that sleep on a few stacks
and are woken again.  Standard library only."""

import random

_THREADS = (101, 102, 103, 104)
_LEAVES = [f"\t{0x400000 + 0x100 * i:x} leaf{i}+0x{i:x} (libleaf.so)" for i in range(16)]
_CALLERS = 8  # caller frames below each sample's leaf
_SLEEP_STACKS = [
    "\tffffffff81000100 schedule+0x20 ([kernel.kallsyms])\n"
    "\tffffffff81000200 futex_wait+0x40 ([kernel.kallsyms])\n"
    "\t7f0000001000 pthread_mutex_lock+0x10 (libc.so.6)",
    "\tffffffff81000100 schedule+0x20 ([kernel.kallsyms])\n"
    "\tffffffff81000300 io_schedule+0x10 ([kernel.kallsyms])\n"
    "\t7f0000002000 read+0x8 (libc.so.6)",
    "\tffffffff81000100 schedule+0x20 ([kernel.kallsyms])\n"
    "\t7f0000003000 nanosleep+0x8 (libc.so.6)",
]


def sampled_trace(events: int, seed: int = 1) -> str:
    """`events` events of perf-script text, in time order.  Each step takes
    a thread on: a running one is sampled, or (one time in five) switches
    out in state S or D; a sleeping one is woken; a woken one switches in."""
    rng = random.Random(seed)
    state = dict.fromkeys(_THREADS, "running")
    ns = 10**9
    blocks = []
    for _ in range(events):
        ns += rng.randrange(1_000, 50_000)
        tid = rng.choice(_THREADS)
        stamp = f"{ns // 10**9}.{ns % 10**9:09d}"
        head = f"w{tid} {tid}/{tid} [{tid % 2:03d}] {stamp}:"
        if state[tid] == "running" and rng.random() < 0.8:
            callers = "".join(
                f"\n\t{rng.randrange(1 << 40):x} fn{rng.randrange(10**6)}+0x{rng.randrange(4096):x}"
                f" (libapp.so)" for _ in range(_CALLERS))
            blocks.append(f"{head} 1000 cpu-clock:\n{rng.choice(_LEAVES)}{callers}")
        elif state[tid] == "running":
            prev_state = rng.choice("SD")
            blocks.append(
                f"{head} sched:sched_switch: prev_comm=w{tid} prev_pid={tid} prev_prio=120"
                f" prev_state={prev_state} ==> next_comm=swapper next_pid=0 next_prio=120\n"
                f"{rng.choice(_SLEEP_STACKS)}")
            state[tid] = "sleeping"
        elif state[tid] == "sleeping":
            blocks.append(f"{head} sched:sched_wakeup: comm=w{tid} pid={tid} prio=120")
            state[tid] = "woken"
        else:
            blocks.append(
                f"{head} sched:sched_switch: prev_comm=swapper prev_pid=0 prev_prio=120"
                f" prev_state=R ==> next_comm=w{tid} next_pid={tid} next_prio=120")
            state[tid] = "running"
    return "\n\n".join(blocks) + "\n"
