"""Run one command; print its wall time, peak RSS and exit status as JSON.

    python3 -I perfbench/spawn.py <stderr-file> <timeout-s> <argv...>

The benchmark starts every timed command through this small process.
On Linux a child's ``ru_maxrss`` starts from the resident set of the
process that forked it, because exec keeps the old memory's high-water
mark.  Forked straight from the benchmark, whose memory holds the
corpus and its truth, a command would report the benchmark's size
instead of its own.  This process stays at the interpreter's minimum,
below any ``bgpchurn`` command's own peak.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    errlog, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    with open(errlog, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "returncode": proc.returncode}))


if __name__ == "__main__":
    main()
