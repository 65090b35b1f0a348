"""Run the latprof CLI in this process, as `python3 -m latprof.cli ARGS`
does, and record the peak RSS of this process's own address space.

    PERFBENCH_HWM_FILE=PATH python3 perfbench/child.py ARGS...

The peak RSS that wait4 reports for a child starts at its parent's peak:
Linux keeps the high-water mark of the address space that exec replaced.
So at exit this writes VmHWM, the high-water mark of the new address
space, in kB to the file named by $PERFBENCH_HWM_FILE.
"""

import atexit
import os
import runpy


def vm_hwm_kb():
    """This process's peak RSS in kB, or None where /proc is unavailable."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _record_hwm(path):
    hwm = vm_hwm_kb()
    if hwm is not None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(str(hwm))


if __name__ == "__main__":
    atexit.register(_record_hwm, os.environ["PERFBENCH_HWM_FILE"])
    runpy.run_module("latprof.cli", run_name="__main__", alter_sys=True)
